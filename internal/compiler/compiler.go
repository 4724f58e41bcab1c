// Package compiler is the Visible Compiler (§8 of the paper): the
// compilation and execution primitives — parse, elaborate, hash,
// pickle, execute — exposed as an ordinary library so that client
// programs (the IRM compilation manager, the REPL, metaprograms, the
// benchmark harness) drive compilation themselves.
//
// The central factoring is the paper's §3 unit model:
//
//	compile : source × statenv → Unit
//	execute : codeUnit × dynenv → dynenv
//
// A Unit carries the exported static environment, the closed code
// (λ imports . exports), the import pid vector, and the intrinsic
// static pid of its interface.
//
// Concurrency: a Session is confined to one goroutine (the build's
// coordinator). Sessions are forks of a per-process prelude template
// that nothing mutates after its one-time bootstrap, so sessions on
// different goroutines may be created and used at once. Compile and CompileDecs may run in many goroutines at
// once, provided each call's context env is layered over envs that
// are no longer mutated, and each CompileDecs call has its own syntax
// tree — the property the parallel scheduler in internal/core is
// built on.
package compiler

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/dynenv"
	"repro/internal/elab"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/pickle"
	"repro/internal/pid"
)

// Unit is a compiled compilation unit (§3: statenv × code × imports ×
// exports).
type Unit struct {
	// Name identifies the unit (typically its source file).
	Name string
	// StatPid is the intrinsic pid of the exported interface: the
	// CRC-128 of the alpha-converted pickle of the export environment,
	// seeded with the unit name (§5).
	StatPid pid.Pid
	// Env is the exported static environment (one layer; its parent is
	// the compilation context and is not part of the unit).
	Env *env.Env
	// Code is the unit's closed code: λ(import-vector).(export-record).
	Code *lambda.Fn
	// Imports lists the dynamic pids the code expects, in vector order.
	Imports []pid.Pid
	// NumSlots is the width of the export record; export slot i is
	// bound to pid StatPid+(i+1) after execution.
	NumSlots int
	// Warnings are non-fatal elaboration diagnostics.
	Warnings []string

	// EnvPickle, when non-nil, is the canonical dehydration of Env
	// produced by the compile's single hash-and-pickle traversal;
	// binfile.Encode derives the bin stream from it by stamp patching
	// instead of re-traversing the environment (DESIGN.md §4f).
	EnvPickle *pickle.EnvPickle
	// Frag, when non-nil, is the pre-collected index fragment of a
	// rehydrated Env (set by cached bin reads); Session.Accept merges
	// it instead of re-walking the environment.
	Frag *pickle.Fragment
	// HashTime is the duration of the fused hash+pickle traversal
	// inside Compile, kept separately attributable for the §6
	// overhead measurement (counter time.hash_ns).
	HashTime time.Duration

	// Prog is Code in compiled form (interp.CompileFn): the closure
	// tree the default exec engine applies, each function body built
	// on its first application. Compile always sets it; V2 bin reads
	// rebuild it
	// from CodeBytes, validating the whole section; V1 reads leave it
	// nil and ExecuteObserved compiles on demand.
	Prog *interp.CompiledFn
	// CodeBytes is the serialized slot layout of Prog — the bin
	// file's code section (binfile V2). It does not feed StatPid:
	// the intrinsic pid covers only the canonical env pickle, so
	// pids are identical whatever the engine.
	CodeBytes []byte
	// CodeTime is the duration of interp.CompileFn's eager walk inside
	// Compile (counter code.compile_ns): slot resolution over the whole
	// term. Closure trees are built on each function's first call,
	// inside the execute phase (time.exec_ns).
	CodeTime time.Duration
}

// ExportPid returns the dynamic pid of export slot i (§5: "derived from
// the hash by adding 1 through k").
func (u *Unit) ExportPid(i int) pid.Pid { return u.StatPid.Plus(uint64(i + 1)) }

// CompileError aggregates the diagnostics of a failed compilation.
type CompileError struct {
	Unit string
	Msgs []string
}

func (e *CompileError) Error() string {
	if len(e.Msgs) == 1 {
		return fmt.Sprintf("%s: %s", e.Unit, e.Msgs[0])
	}
	return fmt.Sprintf("%s: %d errors:\n  %s", e.Unit, len(e.Msgs), strings.Join(e.Msgs, "\n  "))
}

// Compile compiles one unit against a context static environment. It
// performs the full §3–§5 pipeline: parse, then CompileDecs.
func Compile(name, source string, context *env.Env) (*Unit, error) {
	decs, perrs := parser.Parse(source)
	if len(perrs) > 0 {
		ce := &CompileError{Unit: name}
		for _, e := range perrs {
			ce.Msgs = append(ce.Msgs, e.Error())
		}
		return nil, ce
	}
	return CompileDecs(name, decs, context)
}

// CompileDecs compiles an already parsed unit against a context static
// environment: elaborate, hash the export interface into the intrinsic
// static pid, make the unit's provisional stamps permanent, and derive
// the dynamic export pids. The IRM calls it on the syntax its
// dependency scan parsed (depend.Info.Decs), so a changed source is
// parsed once per build. The result is identical to Compile's on the
// same source.
func CompileDecs(name string, decs []ast.Dec, context *env.Env) (*Unit, error) {
	res, eerrs := elab.ElabUnit(decs, context)
	if len(eerrs) > 0 {
		ce := &CompileError{Unit: name}
		for _, e := range eerrs {
			ce.Msgs = append(ce.Msgs, e.Error())
		}
		return nil, ce
	}

	// Hash and pickle in one traversal (§5, §6): the canonical stream
	// is both the hash input and — after stamp patching — the bin
	// file's environment segment, so the environment is dehydrated
	// exactly once per compilation.
	t0 := time.Now()
	ep, err := pickle.CanonicalEnv(res.Env)
	if err != nil {
		return nil, &CompileError{Unit: name, Msgs: []string{err.Error()}}
	}
	statPid := hashCanonical(name, ep)
	hashDur := time.Since(t0)

	// §5: replace provisional stamps with permanent ones derived from
	// the hash, in the same order the hash's alpha-conversion assigned.
	pickle.AssignPermanentStamps(ep.Provisional(), statPid)

	// Derive the dynamic export pids.
	for i, sb := range res.Slots {
		p := statPid.Plus(uint64(i + 1))
		switch {
		case sb.Val != nil:
			sb.Val.ExportPid = p
		case sb.Str != nil:
			sb.Str.ExportPid = p
		}
	}

	// Compile the closed code to the closure form (§3: the codeUnit is
	// compiled code). An elaborated term always resolves — a failure
	// here is an internal invariant break, reported like any other
	// compile error rather than panicking the build.
	t1 := time.Now()
	prog, codeBytes, cerr := interp.CompileFn(res.Code)
	if cerr != nil {
		return nil, &CompileError{Unit: name, Msgs: []string{"code generation: " + cerr.Error()}}
	}
	codeDur := time.Since(t1)

	var warnings []string
	for _, w := range res.Warnings {
		warnings = append(warnings, w.Error())
	}
	return &Unit{
		Name:      name,
		StatPid:   statPid,
		Env:       res.Env,
		Code:      res.Code,
		Imports:   res.ImportPids,
		NumSlots:  len(res.Slots),
		Warnings:  warnings,
		EnvPickle: ep,
		HashTime:  hashDur,
		Prog:      prog,
		CodeBytes: codeBytes,
		CodeTime:  codeDur,
	}, nil
}

// hashCanonical seeds a hasher with the unit name and absorbs the
// canonical stream — the intrinsic-pid computation of §5.
func hashCanonical(name string, ep *pickle.EnvPickle) pid.Pid {
	h := pid.NewHasher()
	h.WriteString(name)
	h.Write(ep.Bytes())
	return h.Sum()
}

// HashInterface computes the intrinsic pid of an export environment:
// the CRC-128 of its canonical pickle with the unit's own (provisional)
// stamps alpha-converted to ordinals. The unit name seeds the hash so
// that two units with textually identical interfaces still receive
// distinct stamps — preserving datatype generativity across units.
// It returns the provisionally stamped objects in traversal order.
//
// Compile no longer calls this: its fused traversal (CanonicalEnv +
// hashCanonical) produces the same pid from the same stream in one
// pass. It remains the interface-hash primitive for clients of the
// Visible Compiler that hold only an environment.
func HashInterface(name string, e *env.Env) (pid.Pid, []any, error) {
	ep, err := pickle.CanonicalEnv(e)
	if err != nil {
		return pid.Zero, nil, err
	}
	return hashCanonical(name, ep), ep.Provisional(), nil
}

// Execute runs a compiled unit against a dynamic environment (§3):
// gather the import values, apply the closed code, and bind the export
// pids to the resulting values.
func Execute(m *interp.Machine, u *Unit, dyn *dynenv.Env) error {
	return ExecuteObserved(m, u, dyn, nil, nil)
}

// ExecuteObserved is Execute under instrumentation: the unit's run is
// wrapped in an "execute" phase span (a child of parent, on the
// coordinator lane 0) with "imports", "apply", and "bind" sub-phases —
// import-vector lookup, closure application, export binding — and the
// exec.* counters are recorded on rec. A nil parent and nil rec make
// it exactly Execute; both are safe independently.
//
// The apply sub-phase is where the machine's Engine matters: the tree
// walker evaluates u.Code to a closure and applies it; the compiled
// engine applies u.Prog directly (compiling it on demand when a V1 bin
// left Prog nil — counter code.compiles).
func ExecuteObserved(m *interp.Machine, u *Unit, dyn *dynenv.Env,
	parent *obs.Span, rec obs.Recorder) error {

	espan := parent.Child(obs.CatPhase, "execute").Lane(0).Arg("unit", u.Name)
	defer espan.End()
	obs.Count(rec, "exec.units", 1)

	ispan := espan.Child(obs.CatPhase, "imports")
	imports := make(interp.RecordV, len(u.Imports))
	for i, p := range u.Imports {
		v, err := dyn.MustLookup(p)
		if err != nil {
			ispan.End()
			obs.Count(rec, "exec.import_misses", 1)
			return fmt.Errorf("execute %s: %v", u.Name, err)
		}
		imports[i] = v
	}
	ispan.End()
	obs.Count(rec, "exec.imports", int64(len(u.Imports)))
	obs.Count(rec, "exec.imports_ns", int64(ispan.Duration()))

	aspan := espan.Child(obs.CatPhase, "apply")
	steps0 := m.Steps
	profiled := m.ProfileEnabled()
	var result interp.Value
	var err error
	if m.Engine == interp.EngineTree {
		if profiled {
			// Register before the window opens so the unit's closures
			// carry identities from their very first application.
			m.ProfRegister(u.Name, u.Prog, u.Code)
			m.BeginUnitProfile(u.Name)
		}
		var closure interp.Value
		closure, err = m.Eval(u.Code, nil)
		if err == nil {
			result, err = m.Apply(closure, imports)
		}
	} else {
		prog := u.Prog
		if prog == nil {
			prog, _, err = interp.CompileFn(u.Code)
			obs.Count(rec, "code.compiles", 1)
			if err == nil {
				u.Prog = prog
			}
		}
		if err == nil {
			if profiled {
				m.ProfRegister(u.Name, prog, u.Code)
				m.BeginUnitProfile(u.Name)
			}
			result, err = m.Apply(&interp.CompiledClosure{Fn: prog}, imports)
		}
	}
	if profiled {
		// Close the window on every path, including a failed apply: a
		// failing unit's partial profile still merges into the build's.
		if up := m.EndUnitProfile(); up != nil {
			obs.Count(rec, "prof.units", 1)
			obs.Count(rec, "prof.samples", up.Samples())
			obs.Count(rec, "prof.funcs", int64(len(up.Funcs)))
		}
	}
	aspan.End()
	obs.Count(rec, "exec.steps", int64(m.Steps-steps0))
	obs.Count(rec, "exec.apply_ns", int64(aspan.Duration()))
	if err != nil {
		obs.Count(rec, "exec.errors", 1)
		return fmt.Errorf("execute %s: %v", u.Name, err)
	}

	bspan := espan.Child(obs.CatPhase, "bind")
	defer bspan.End()
	recv, ok := result.(interp.RecordV)
	if !ok && u.NumSlots > 0 {
		obs.Count(rec, "exec.errors", 1)
		return fmt.Errorf("execute %s: code returned non-record", u.Name)
	}
	if len(recv) != u.NumSlots {
		obs.Count(rec, "exec.errors", 1)
		return fmt.Errorf("execute %s: export record has %d slots, expected %d",
			u.Name, len(recv), u.NumSlots)
	}
	for i, v := range recv {
		dyn.Bind(u.ExportPid(i), v)
	}
	bspan.End()
	obs.Count(rec, "exec.exports", int64(u.NumSlots))
	obs.Count(rec, "exec.bind_ns", int64(bspan.Duration()))
	return nil
}
