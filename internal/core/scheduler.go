// Parallel DAG build scheduler (DESIGN.md §4e).
//
// The paper's unit model (§3) makes compilation units closed functions
// with explicit pid-based imports and exports, so units whose imports
// are all resolved are independent by construction. The scheduler
// exploits exactly that property: a worker pool compiles (or
// rehydrates) units the moment their dependencies' interface pids are
// known, while a single committer applies the effectful tail of each
// unit's turn — execute, accept, save, explain — strictly in
// topological order.
//
// The split is what makes parallel builds deterministic:
//
//   - Workers do only per-unit-deterministic work (elaborate the
//     scan's syntax, hash, pickle, bin decode; parse only a source the
//     scan took from the cache) against immutable inputs: the frozen
//     pre-build context, and the already-completed dependency
//     environments. Bin bytes and interface pids depend on nothing
//     but the unit and its deps, so they are identical for every -j.
//   - Workers record counters into a private obs.Buffer; the committer
//     flushes each buffer in commit order, so the final Stats are the
//     sums the sequential build would have produced — speculative work
//     past a failed unit is discarded unflushed and leaves no trace.
//   - Unit execution (the paper's execute: codeUnit × dynenv → dynenv)
//     runs on the committer, in commit order, threading the one
//     session dynamic environment through the units exactly as a
//     sequential run does. Shared mutable state (a ref or array one
//     unit exports and its siblings update) therefore sees the
//     sequential interleaving by construction.
//   - Explain records, log lines, store writes, and stdout all happen
//     on the committer in topological order.
//
// Error semantics: the first failure in *commit order* (the same unit
// the sequential build would have failed on) aborts the build. Units
// earlier in the order still commit; queued work is dropped; units
// already running drain cleanly before Build returns, so their spans
// stay inside the build span.
package core

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/depend"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/pid"
)

// unitTask is the immutable input of one worker invocation: everything
// a unit's compile-or-load decision needs, captured by the scheduler at
// dispatch time (when all dependencies have completed).
type unitTask struct {
	idx     int // position in topological order == commit order
	info    *depend.Info
	source  string
	entry   *Entry
	srcHash pid.Pid
	corrupt bool // the store flagged this unit's entry corrupt in phase 1

	depNames []string   // direct deps, sorted by name (the Entry contract)
	depPids  []pid.Pid  // their current interface pids, aligned with depNames
	depEnvs  []*env.Env // their export environments, in topological order

	depRecompiled bool // some direct dep was recompiled this build
	depAtRisk     bool // some dep (transitively, through loads) recompiled
}

// unitResult is a worker's output. Nothing in it has touched shared
// build state yet: the committer turns it into execution, store writes,
// counters, and the unit's explain record — or discards it entirely if
// the build fails on an earlier unit.
type unitResult struct {
	task   *unitTask
	unit   *compiler.Unit
	action string // obs.ActionLoaded or obs.ActionCompiled
	bin    []byte // encoded bin, when compiled
	exp    obs.Explain
	buf    *obs.Buffer
	uspan  *obs.Span
	logs   []string // per-unit log lines, replayed by the committer

	recompiled bool
	atRisk     bool
	err        error // compile/pickle failure; exp.Error is already set
}

// intHeap is a min-heap of topo indexes: the ready queue dispatches
// lowest-index-first so that -j1 processes units in exactly the
// sequential order.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// jobs resolves the worker count: Manager.Jobs when positive, else
// GOMAXPROCS, clamped to the number of units.
func (m *Manager) jobs(units int) int {
	j := m.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > units {
		j = units
	}
	if j < 1 {
		j = 1
	}
	return j
}

// schedule runs Phase 3 of a build: compile or load every unit of the
// topological order on a worker pool, committing results in order.
func (m *Manager) schedule(col *obs.Collector, gen int, bspan *obs.Span,
	session *compiler.Session, order []*depend.Info, deps map[string][]string,
	sources map[string]string, srcHashes map[string]pid.Pid,
	entries map[string]*Entry, corrupt map[string]bool) error {

	n := len(order)
	if n == 0 {
		return nil
	}
	jobs := m.jobs(n)
	bspan.Arg("jobs", jobs)

	// Frozen shared inputs: the basis and prelude the build's fresh
	// session was forked from. Workers read them concurrently; nothing
	// ever mutates them.
	baseCtx, baseIx := session.Prelude()

	idxOf := make(map[string]int, n)
	for i, info := range order {
		idxOf[info.Name] = i
	}
	waiting := make([]int, n)      // unresolved direct deps per unit
	dependents := make([][]int, n) // reverse edges
	for i, info := range order {
		for _, d := range deps[info.Name] {
			j := idxOf[d]
			dependents[j] = append(dependents[j], i)
			waiting[i]++
		}
	}

	// Cross-unit decision state, owned by the scheduler goroutine: a
	// unit's pids/recompiled/atRisk are published here when its worker
	// finishes, and read when a dependent is dispatched.
	currentPids := make(map[string]pid.Pid, n)
	recompiled := make(map[string]bool, n)
	atRisk := make(map[string]bool, n)
	envs := make([]*env.Env, n)
	results := make([]*unitResult, n)

	ctx, cancel := context.WithCancel(context.Background())
	dispatchCh := make(chan *unitTask, n)
	resultCh := make(chan *unitResult, n)
	var wg sync.WaitGroup
	var inflight, maxPar atomic.Int64
	for w := 0; w < jobs; w++ {
		lane := w + 1 // lane 0 is the committer/coordinator track
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// build.sched.wait_ns is worker idle time: how long this
				// worker blocked waiting for the scheduler to hand it a
				// task. Each worker's idle intervals are disjoint, so the
				// sum over all workers is bounded by jobs × wall (the
				// invariant TestSchedWaitBound pins); the final wait that
				// ends with the channel closing is shutdown, not
				// scheduling, and is not counted.
				idle0 := time.Now()
				t, ok := <-dispatchCh
				if !ok {
					return
				}
				col.Add("build.sched.wait_ns", int64(time.Since(idle0)))
				if ctx.Err() != nil {
					// The build already failed: drop queued work. Units
					// already past this check drain to completion.
					continue
				}
				cur := inflight.Add(1)
				for {
					mx := maxPar.Load()
					if cur <= mx || maxPar.CompareAndSwap(mx, cur) {
						break
					}
				}
				resultCh <- m.runUnit(t, lane, gen, bspan, baseCtx, baseIx)
				inflight.Add(-1)
			}
		}()
	}

	commitIdx := 0
	defer func() {
		cancel()
		close(dispatchCh)
		wg.Wait()
		// On a fatal abort, in-flight workers drained results that will
		// never commit; their unit spans would otherwise stay open and
		// export as still-running to the trace's end. Close every
		// uncommitted span here so a failing build's -trace/-jsonl
		// output is as well-formed as a passing one (their buffered
		// counters are still discarded unflushed).
		for drained := false; !drained; {
			select {
			case res := <-resultCh:
				results[res.task.idx] = res
			default:
				drained = true
			}
		}
		for i := commitIdx; i < n; i++ {
			if results[i] != nil {
				results[i].uspan.End()
			}
		}
		col.Add("build.parallelism.max", maxPar.Load())
	}()

	dispatch := func(i int) {
		info := order[i]
		name := info.Name
		depNames := append([]string(nil), deps[name]...)
		sort.Strings(depNames)
		depPids := make([]pid.Pid, len(depNames))
		depRecompiled, depAtRisk := false, false
		for k, d := range depNames {
			depPids[k] = currentPids[d]
			if recompiled[d] {
				depRecompiled = true
			}
			if recompiled[d] || atRisk[d] {
				depAtRisk = true
			}
		}
		depIdx := make([]int, 0, len(depNames))
		for _, d := range depNames {
			depIdx = append(depIdx, idxOf[d])
		}
		sort.Ints(depIdx)
		depEnvs := make([]*env.Env, len(depIdx))
		for k, j := range depIdx {
			depEnvs[k] = envs[j]
		}
		dispatchCh <- &unitTask{
			idx: i, info: info, source: sources[name],
			entry: entries[name], srcHash: srcHashes[name], corrupt: corrupt[name],
			depNames: depNames, depPids: depPids, depEnvs: depEnvs,
			depRecompiled: depRecompiled, depAtRisk: depAtRisk,
		}
	}

	ready := &intHeap{}
	for i := 0; i < n; i++ {
		if waiting[i] == 0 {
			heap.Push(ready, i)
		}
	}

	// The first failure in commit order is where the sequential build
	// would have stopped; nothing past it is dispatched once known.
	failIdx := n
	for commitIdx < n {
		for ready.Len() > 0 {
			i := heap.Pop(ready).(int)
			if i > failIdx {
				continue
			}
			dispatch(i)
		}
		for commitIdx < n && results[commitIdx] != nil {
			if err := m.commitUnit(results[commitIdx], col, session); err != nil {
				return err
			}
			commitIdx++
		}
		if commitIdx >= n {
			break
		}
		res := <-resultCh
		i := res.task.idx
		results[i] = res
		if res.err != nil {
			if i < failIdx {
				failIdx = i
			}
		} else {
			name := res.task.info.Name
			envs[i] = res.unit.Env
			currentPids[name] = res.unit.StatPid
			recompiled[name] = res.recompiled
			atRisk[name] = res.atRisk
			for _, d := range dependents[i] {
				waiting[d]--
				if waiting[d] == 0 {
					heap.Push(ready, d)
				}
			}
		}
	}
	return nil
}

// runUnit is the worker half of one unit's turn: decide reuse, then
// rehydrate the cached bin or compile from source. It touches no shared
// mutable state — counters go to a private buffer, diagnostics into the
// result — so any number of runUnit calls may overlap.
func (m *Manager) runUnit(t *unitTask, lane, gen int, bspan *obs.Span,
	baseCtx *env.Env, baseIx *pickle.Index) *unitResult {

	name := t.info.Name
	buf := obs.NewBuffer()
	res := &unitResult{task: t, buf: buf}
	exp := obs.Explain{Build: gen, Unit: name, Policy: m.Policy.String()}
	if t.entry != nil {
		exp.OldPid = t.entry.StatPid.String()
	}
	srcOK := t.entry != nil && t.entry.SrcHash == t.srcHash
	exp.SourceChanged = t.entry != nil && !srcOK
	depsOK := t.entry != nil && pidsEqual(t.entry.DepPids, t.depPids) &&
		namesEqual(t.entry.DepNames, t.depNames)
	var reuse bool
	switch m.Policy {
	case PolicyCutoff:
		reuse = srcOK && depsOK
	case PolicyTimestamp:
		reuse = srcOK && !t.depRecompiled
	}
	reuse = reuse && t.entry != nil && len(t.entry.Bin) > 0

	uspan := bspan.Child(obs.CatUnit, name).Lane(lane)
	res.uspan = uspan
	binUnreadable := false
	if reuse {
		lspan := uspan.Child(obs.CatPhase, "load")
		// Rehydrate against a private overlay: the frozen base plus
		// this unit's dependency environments, never the (mutable)
		// session index. The process-wide EnvCache sits in front of the
		// decode: a warm interface pid skips the env segment entirely,
		// and with it the only reader of the overlay, which is
		// therefore filled only when the env decode first consults it.
		ix := pickle.NewLazyOverlay(baseIx, t.depEnvs)
		u, err := binfile.ReadCachedObserved(t.entry.Bin, ix, m.envCache(), buf)
		lspan.End()
		buf.Add("time.load_ns", int64(lspan.Duration()))
		if err == nil {
			res.unit = u
			res.action = obs.ActionLoaded
			res.atRisk = t.depAtRisk
			exp.Action = obs.ActionLoaded
			exp.NewPid = u.StatPid.String()
			exp.Reason = obs.ReasonCached
			res.exp = exp
			return res
		}
		// The entry passed store validation but its bin failed to
		// rehydrate — corruption caught by the inner format layer.
		buf.Add("cache.corrupt", 1)
		binUnreadable = true
		if m.Log != nil {
			res.logs = append(res.logs, fmt.Sprintf(
				"[%s] %s: bin reload failed (%v); recompiling", m.Policy, name, err))
		}
	}

	// Recompile, with the decision spelled out (most specific reason
	// wins; see the obs.Reason* precedence order).
	exp.Action = obs.ActionCompiled
	switch {
	case binUnreadable:
		exp.Reason = obs.ReasonBinUnreadable
	case t.corrupt:
		exp.Reason = obs.ReasonCorrupt
	case t.entry == nil:
		exp.Reason = obs.ReasonCold
	case !srcOK:
		exp.Reason = obs.ReasonSourceChanged
	case m.Policy == PolicyCutoff && !depsOK:
		exp.Reason = obs.ReasonDepInterfaceChanged
		exp.ChangedDeps = depChanges(t.entry, t.depNames, t.depPids)
	case m.Policy == PolicyTimestamp && t.depRecompiled:
		exp.Reason = obs.ReasonDepRecompiled
	default:
		exp.Reason = obs.ReasonBinMissing
	}

	// The compile context is this unit's own: the frozen pre-build
	// context plus one layer holding the dependency exports, merged in
	// topological order (later definers shadow, as in the sequential
	// context chain). See DESIGN.md §4e for the equivalence argument.
	layer := env.New(baseCtx)
	for _, de := range t.depEnvs {
		de.CopyInto(layer)
	}
	cspan := uspan.Child(obs.CatPhase, "compile")
	var u *compiler.Unit
	var err error
	if t.info.Decs != nil {
		// The scan parsed this source; elaborate its syntax.
		u, err = compiler.CompileDecs(name, t.info.Decs, layer)
	} else {
		// The scan took this unit's info from its cache entry: the
		// source is unchanged but must recompile (a dependency's
		// interface changed, or the bin is unusable), so parse it now.
		u, err = compiler.Compile(name, t.source, layer)
	}
	cspan.End()
	buf.Add("time.compile_ns", int64(cspan.Duration()))
	if err != nil {
		exp.Error = err.Error()
		res.exp = exp
		res.err = err
		return res
	}
	buf.Add("build.compiled", 1)
	// Closure-compilation accounting (the compiled exec engine's
	// codegen, DESIGN.md §4j): every fresh compile produced a compiled
	// form and its bin-file code section.
	buf.Add("code.compiles", 1)
	buf.Add("code.compile_ns", int64(u.CodeTime))
	buf.Add("code.bytes", int64(len(u.CodeBytes)))
	exp.NewPid = u.StatPid.String()
	if t.corrupt || binUnreadable {
		// The unit's cache entry was corrupt and the rebuild
		// succeeded: the store healed itself by recompilation.
		buf.Add("cache.recovered", 1)
	}

	// Attribute the hashing cost separately (E3's measurement). The
	// fused compile pipeline timed its own hash+pickle traversal, so
	// the attribution is exact and costs no extra walk.
	buf.Add("time.hash_ns", int64(u.HashTime))

	if t.entry != nil && t.entry.StatPid == u.StatPid {
		buf.Add("build.cutoffs", 1)
		exp.Cutoff = true
		if m.Log != nil {
			res.logs = append(res.logs, fmt.Sprintf(
				"[%s] %s: recompiled, interface UNCHANGED (%s) — dependents cut off",
				m.Policy, name, u.StatPid.Short()))
		}
	} else if m.Log != nil {
		res.logs = append(res.logs, fmt.Sprintf(
			"[%s] %s: recompiled, interface %s", m.Policy, name, u.StatPid.Short()))
	}

	pkspan := uspan.Child(obs.CatPhase, "pickle")
	bin, err := binfile.EncodeObserved(u, buf)
	pkspan.End()
	buf.Add("time.pickle_ns", int64(pkspan.Duration()))
	if err != nil {
		exp.Error = err.Error()
		res.exp = exp
		res.err = fmt.Errorf("%s: %v", name, err)
		return res
	}

	res.unit = u
	res.action = obs.ActionCompiled
	res.bin = bin
	res.recompiled = true
	res.exp = exp
	return res
}

// commitUnit is the sequential half of one unit's turn, applied in
// topological order: flush the worker's counters, replay its log lines,
// execute the unit against the session's dynamic environment, extend
// the session, save the bin, and file the unit's explain record.
func (m *Manager) commitUnit(res *unitResult, col *obs.Collector,
	session *compiler.Session) error {

	t := res.task
	name := t.info.Name
	exp := res.exp
	uspan := res.uspan
	res.buf.FlushTo(col)
	for _, line := range res.logs {
		m.logf("%s", line)
	}
	if res.err != nil {
		col.Explain(exp)
		uspan.End()
		return res.err
	}

	// The execute phase runs instrumented: an "execute" span (with
	// imports/apply/bind sub-phases) nests under the unit span on the
	// committer's lane 0, and the exec.*/dynenv.*/interp.* counters land
	// in the shared collector — all in commit order, so the deltas,
	// stdout, and the session step total are identical at every -j. The
	// session machine's MaxSteps bounds the build's cumulative steps.
	steps0 := session.Machine.Steps
	t0 := time.Now()
	execErr := compiler.ExecuteObserved(session.Machine, res.unit, session.Dyn, uspan, col)
	execNs := int64(time.Since(t0))
	steps := session.Machine.Steps - steps0
	col.Add("time.exec_ns", execNs)
	// A failing unit's partial profile merges too, exactly as a
	// sequential run accumulates it.
	if m.profB != nil {
		m.profB.AddUnit(name, res.unit.Code, res.unit.Env, t.source)
		for _, up := range session.Machine.TakeUnitProfiles() {
			m.profB.Add(up)
		}
	}
	if execErr != nil {
		exp.Error = execErr.Error()
		col.Explain(exp)
		uspan.End()
		return execErr
	}
	session.Accept(res.unit)

	if res.action == obs.ActionLoaded {
		col.Add("build.loaded", 1)
		col.Add("build.executed", 1)
		// The cutoff rule's payoff, as data: something upstream
		// recompiled, yet this unit still loads from cache.
		exp.SavedByCutoff = m.Policy == PolicyCutoff && t.depAtRisk
		col.Explain(exp)
		uspan.Arg("action", obs.ActionLoaded).Arg("pid", res.unit.StatPid.Short())
		uspan.End()
		m.UnitTimings = append(m.UnitTimings, obs.UnitTiming{
			Unit: name, Action: obs.ActionLoaded, Ns: int64(uspan.Duration()),
			ExecNs: execNs, Steps: steps})
		if m.Log != nil {
			m.logf("[%s] %s: loaded (interface %s)", m.Policy, name, res.unit.StatPid.Short())
		}
		return nil
	}

	col.Add("build.executed", 1)
	if t.entry != nil && t.entry.StatPid != res.unit.StatPid {
		// The recompile superseded the stored interface: retire its
		// rehydrated environment rather than leave it to the cache's
		// byte budget.
		m.envCache().Remove(t.entry.StatPid)
	}
	svspan := uspan.Child(obs.CatPhase, "save").Lane(0)
	serr := m.Store.Save(name, &Entry{
		SrcHash:  t.srcHash,
		StatPid:  res.unit.StatPid,
		DepNames: t.depNames,
		DepPids:  t.depPids,
		Defs:     t.info.Defs,
		Free:     t.info.Free,
		Bin:      res.bin,
	})
	svspan.End()
	if serr != nil {
		// A failed save (ENOSPC, permissions) costs only future
		// incrementality — the unit is already compiled, executed,
		// and in scope, so the build itself proceeds.
		col.Add("cache.save_errors", 1)
		exp.SaveError = serr.Error()
		m.logf("[%s] %s: saving bin failed (%v); continuing uncached",
			m.Policy, name, serr)
	}
	col.Explain(exp)
	uspan.Arg("action", obs.ActionCompiled).Arg("pid", res.unit.StatPid.Short())
	uspan.End()
	m.UnitTimings = append(m.UnitTimings, obs.UnitTiming{
		Unit: name, Action: obs.ActionCompiled, Ns: int64(uspan.Duration()),
		ExecNs: execNs, Steps: steps})
	return nil
}
