package compiler

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/basis"
	"repro/internal/dynenv"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/pickle"
)

// Session is an interactive compile-and-execute context (§3, §7): the
// accumulated static environment, the dynamic environment, the machine,
// and the rehydration index grow as units are compiled or loaded.
//
// Every session is a fork of its engine's prelude template: the basis
// plus the compiled and executed prelude, bootstrapped once per process
// and never mutated afterwards. A fork shares the template's context
// layers and its frozen index, and owns everything it can extend, so
// sessions forked from one template may run on different goroutines.
type Session struct {
	Machine *interp.Machine
	// Context is the accumulated static environment: basis, prelude,
	// then one layer per unit.
	Context *env.Env
	// Dyn is the accumulated dynamic environment.
	Dyn *dynenv.Env
	// Index is the stamp index over everything loaded so far, used to
	// rehydrate bin files (§4): an overlay whose frozen parent indexes
	// the basis and prelude.
	Index *pickle.Index
	// Units records the session's compiled units in order.
	Units []*Unit

	// tmpl is the template this session was forked from.
	tmpl *Session
}

// template is one engine's prelude session, bootstrapped on first use.
type template struct {
	once sync.Once
	s    *Session
	err  error
}

// templates holds the closure engine's template at 0, the tree
// walker's at 1.
var templates [2]template

// prelude returns the engine's template, bootstrapping it on the
// process's first call; a failed bootstrap's error is returned on
// every call.
func prelude(engine interp.Engine) (*Session, error) {
	t := &templates[0]
	if engine == interp.EngineTree {
		t = &templates[1]
	}
	t.once.Do(func() { t.s, t.err = bootstrap(engine) })
	return t.s, t.err
}

// bootstrap compiles and runs the prelude over the primitive basis on
// the given engine. The prelude prints nothing, so its machine writes
// nowhere, and is dropped once the prelude has run: forks get their
// own.
func bootstrap(engine interp.Engine) (*Session, error) {
	s := &Session{
		Machine: interp.NewMachine(),
		Context: basis.PrimEnv(),
		Dyn:     dynenv.New(),
		Index:   pickle.NewIndex(),
	}
	s.Machine.Engine = engine
	s.Machine.Stdout = io.Discard
	s.Index.AddEnv(s.Context)
	u, err := s.Run("$prelude", PreludeSource)
	if err != nil {
		return nil, fmt.Errorf("bootstrapping prelude: %v", err)
	}
	// Name the shared term now, so profiled sessions registering it
	// later only read it.
	u.Prog.SetUnit(u.Name)
	s.Machine = nil
	return s, nil
}

// NewSession returns a session holding the primitive basis plus the
// compiled and executed SML prelude, on the default (compiled-closure)
// engine.
func NewSession(stdout io.Writer) (*Session, error) {
	return NewSessionWith(stdout, interp.EngineClosure)
}

// NewSessionWith is NewSession on an explicit exec engine; the prelude
// itself ran on it, so every value in the session — basis included —
// comes from the selected backend. The session is a fork of the
// engine's per-process template: it shares the template's static
// context layers (elaboration only layers over them), copies its
// dynamic environment, overlays its index, and runs on a fresh machine
// writing to stdout (os.Stdout when nil) with its own step count.
func NewSessionWith(stdout io.Writer, engine interp.Engine) (*Session, error) {
	t, err := prelude(engine)
	if err != nil {
		return nil, err
	}
	m := interp.NewMachine()
	m.Engine = engine
	if stdout != nil {
		m.Stdout = stdout
	}
	return &Session{
		Machine: m,
		Context: t.Context,
		Dyn:     t.Dyn.Copy(),
		Index:   pickle.NewOverlay(t.Index),
		// Clipped, so that Accept's append copies instead of writing
		// into the template's array.
		Units: slices.Clip(t.Units),
		tmpl:  t,
	}, nil
}

// Prelude returns the static context and stamp index of the basis and
// prelude the session was forked from. Both are frozen: any number of
// goroutines may read them while the session itself grows.
func (s *Session) Prelude() (*env.Env, *pickle.Index) {
	return s.tmpl.Context, s.tmpl.Index
}

// Compile compiles a unit against the current context without
// executing it or extending the session.
func (s *Session) Compile(name, source string) (*Unit, error) {
	return Compile(name, source, s.Context)
}

// Run compiles a unit, executes it, and extends the session's static
// and dynamic environments with its exports.
func (s *Session) Run(name, source string) (*Unit, error) {
	u, err := Compile(name, source, s.Context)
	if err != nil {
		return nil, err
	}
	if err := Execute(s.Machine, u, s.Dyn); err != nil {
		return nil, err
	}
	s.Accept(u)
	return u, nil
}

// Accept extends the session's static context and index with an
// already-executed unit (used by the IRM after loading bin files).
func (s *Session) Accept(u *Unit) {
	if u.Env.Parent() == nil || u.Env.Parent() != s.Context {
		// Layer the unit's exports over the current context even when
		// the unit was elaborated elsewhere (rehydrated from a bin
		// file): re-root it by copying into a fresh layer.
		layer := env.New(s.Context)
		u.Env.CopyInto(layer)
		s.Context = layer
	} else {
		s.Context = u.Env
	}
	if u.Frag != nil && u.Frag.Env() == u.Env {
		// Rehydrated units carry a pre-collected index fragment;
		// merging it is equivalent to (and cheaper than) re-walking
		// the environment.
		s.Index.AddFragment(u.Frag)
	} else {
		s.Index.AddEnv(u.Env)
	}
	s.Units = append(s.Units, u)
}
