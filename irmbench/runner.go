package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// runner performs one benchmark run: it times builds, checks each one
// against the oracle, and collects the samples the metrics derive from.
type runner struct {
	work   string // scratch directory for stores, removed by the caller
	jobs   int
	meter  *meter // nil when the run is untraced
	log    io.Writer
	nstore int

	attempted, failed int
	setups            []time.Duration
	samples           []sample // measured untraced builds
	traced            []sample // measured traced builds
	storeBytes        int64    // size of the store after the run
	counters          map[string]int64
	counterSeen       map[string]bool
	selfTime          time.Duration
	selfFound         int
}

// sample is one timed build.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated during the build
	compiled  int
	storeTime time.Duration // wrapper-timed store and lock time (traced builds)
}

func newRunner(work string, jobs int, traced bool, log io.Writer) *runner {
	r := &runner{work: work, jobs: jobs, log: log,
		counters: map[string]int64{}, counterSeen: map[string]bool{}}
	if traced {
		r.meter = newMeter()
	}
	return r
}

// freshDir returns a new empty store directory.
func (r *runner) freshDir() string {
	r.nstore++
	return filepath.Join(r.work, fmt.Sprintf("store%d", r.nstore))
}

// buildReq is one build a workload asks for.
type buildReq struct {
	files []core.File
	dir   string     // store directory
	store core.Store // store the Manager uses (wrapped when traced)
	cache *pickle.EnvCache
	// traced builds are wrapped, collected and replayed.
	traced bool
	// parsed marks the files the build must re-parse (replay input).
	parsed []bool
	// replayCache is the environment cache the replay reads bins
	// through.
	replayCache *pickle.EnvCache
	// check tests the build's Stats against the workload's invariant.
	check func(core.Stats) error
	// measured builds contribute samples; set-up builds are only
	// checked.
	measured bool
}

// build runs, times and checks one build. A build that fails or
// computes a wrong answer counts as failed; the error it returns is
// only for faults of the benchmark itself.
func (r *runner) build(o *oracle, req buildReq) error {
	var out bytes.Buffer
	m := &core.Manager{Store: req.store, Jobs: r.jobs, Stdout: &out, EnvCache: req.cache}
	var col *obs.Collector
	var colEpoch time.Time
	var store0 time.Duration
	if req.traced {
		col = obs.New()
		colEpoch = time.Now()
		m.Obs = col
		r.meter.beginBuild()
		defer r.meter.finishBuild()
		store0 = r.storeTime()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	endSpan := func() {}
	if req.traced {
		endSpan = r.meter.span("build")
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	sess, err := m.Build(req.files)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	endSpan()
	runtime.ReadMemStats(&ms1)

	s := sample{wall: wall, cpu: cpu, alloc: ms1.TotalAlloc - ms0.TotalAlloc,
		compiled: m.Stats.Compiled}
	if req.traced {
		s.storeTime = r.storeTime() - store0
	}
	r.attempted++
	if err == nil {
		err = req.check(m.Stats)
	}
	if err == nil {
		src, want := o.probe()
		err = checkProbe(sess, &out, src, want)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "irmbench: build %d failed: %v\n", r.attempted, err)
		return nil
	}

	if req.traced {
		if err := r.absorb(m, col, colEpoch, req); err != nil {
			return err
		}
	}
	if req.measured {
		if req.traced {
			r.traced = append(r.traced, s)
		} else {
			r.samples = append(r.samples, s)
		}
	}
	return nil
}

// absorb folds a traced build's program-side data into the run: its
// counters and span self time, then replays it layer by layer.
func (r *runner) absorb(m *core.Manager, col *obs.Collector, colEpoch time.Time, req buildReq) error {
	for k, v := range m.Counters {
		r.counters[k] += v
		r.counterSeen[k] = true
	}
	self, found, err := r.meter.absorbBuild(col, colEpoch)
	if err != nil {
		return err
	}
	if found {
		r.selfTime += self
		r.selfFound++
	}
	action := make(map[string]string, len(m.Explains))
	for _, e := range m.Explains {
		action[e.Unit] = e.Action
	}
	raw, err := core.NewDirStore(req.dir)
	if err != nil {
		return err
	}
	return r.meter.replay(req.files, req.parsed, action, raw, req.replayCache)
}

// storeTime is the wrapper-timed time spent in the store and its lock
// so far.
func (r *runner) storeTime() time.Duration {
	s := r.meter.get("core.store.load_s") + r.meter.get("core.store.save_s") +
		r.meter.get("core.lock.wait_s")
	return time.Duration(s * float64(time.Second))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureSetup times fn, which sets a workload up, and records it. Like
// a build, a set-up starts from a collected heap.
func (r *runner) measureSetup(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setups = append(r.setups, time.Since(t0))
	return nil
}

// loop calls step with i = 0, 1, 2, ... until the run's time is up,
// always at least once. In a traced run every i is a pair of builds:
// one untraced, for the tracing-overhead ratio, and one traced.
func (r *runner) loop(d time.Duration, step func(i int, traced bool) error) error {
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if r.meter != nil {
			if err := step(i, false); err != nil {
				return err
			}
		}
		if err := step(i, r.meter != nil); err != nil {
			return err
		}
	}
	return nil
}

// open opens a store directory, wrapped when traced.
func (r *runner) open(dir string, traced bool) (core.Store, error) {
	if traced {
		return openStore(dir, r.meter)
	}
	return openStore(dir, nil)
}

// finish records the size of the store a run leaves behind.
func (r *runner) finish(dir string) error {
	n, err := dirBytes(dir)
	r.storeBytes = n
	return err
}

// sourcesOf copies a project's files, so that edits never alias the
// generated project.
func sourcesOf(p *workload.Project) []core.File {
	return append([]core.File(nil), p.Files...)
}

// filled returns n copies of v.
func filled(n int, v bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// remove deletes a store directory the run no longer needs.
func (r *runner) remove(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(r.log, "irmbench: %v\n", err)
	}
}
