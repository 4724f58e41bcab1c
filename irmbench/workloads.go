package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// spec is one workload instantiated for a seed.
type spec struct {
	cfg    workload.Config // the scale workloads draw cfg.Seed from seed
	seed   int64
	setups int // set-ups per run; setup_s is their median
	drive  func(*runner, spec, time.Duration) error
}

func (s spec) run(r *runner, d time.Duration) error { return s.drive(r, s, d) }

// workloadDef names a workload and makes its spec from the seed.
type workloadDef struct {
	name string
	spec func(seed int64) spec
}

// workloads are the benchmark's workloads; README.md says why each was
// chosen. The seed drives workload.Generate and the edit stream, and
// the program sees only the generated sources.
var workloads = []workloadDef{
	{"cold-scale", func(seed int64) spec {
		// Generation is cheap and its time noisy: many set-ups steady
		// setup_s, and rotating over many projects steadies the builds.
		return spec{cfg: workload.CompilerScale(), seed: seed, setups: 9, drive: coldScale}
	}},
	{"null-scale", func(seed int64) spec {
		return spec{cfg: workload.CompilerScale(), seed: seed, setups: 3, drive: nullScale}
	}},
	{"edit-loop", func(seed int64) spec {
		// The `irm bench` default project.
		return spec{cfg: workload.Config{
			Shape: workload.Layered, Units: 60, LinesPerUnit: 30,
			FunsPerUnit: 4, FanIn: 3, LayerWidth: 6, Seed: seed,
		}, seed: seed, setups: 9, drive: editLoop}
	}},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Stats invariants of the three kinds of build.

func coldCheck(n int) func(core.Stats) error {
	return func(st core.Stats) error {
		if st.Units != n || st.Compiled != n || st.Loaded != 0 {
			return fmt.Errorf("cold build: units %d, compiled %d, loaded %d; want %d, %d, 0",
				st.Units, st.Compiled, st.Loaded, n, n)
		}
		return nil
	}
}

func nullCheck(n int) func(core.Stats) error {
	return func(st core.Stats) error {
		if st.Units != n || st.Compiled != 0 || st.Loaded != n {
			return fmt.Errorf("null build: units %d, compiled %d, loaded %d; want %d, 0, %d",
				st.Units, st.Compiled, st.Loaded, n, n)
		}
		return nil
	}
}

func editCheck(n, compiles int) func(core.Stats) error {
	return func(st core.Stats) error {
		if st.Units != n || st.Compiled != compiles || st.Loaded != n-compiles {
			return fmt.Errorf("edit build: units %d, compiled %d, loaded %d; want %d, %d, %d",
				st.Units, st.Compiled, st.Loaded, n, compiles, n-compiles)
		}
		return nil
	}
}

// scaleProjects generates the scale workloads' projects, one per
// set-up, timing each set-up. Their seeds are drawn from the run's
// seed; measured builds rotate over them, so that one run averages over
// several dependency DAGs rather than riding on one.
func scaleProjects(r *runner, s spec, setup func(p *workload.Project, o *oracle) error) ([]*workload.Project, []*oracle, error) {
	rng := rand.New(rand.NewSource(s.seed))
	var ps []*workload.Project
	var oracles []*oracle
	for i := 0; i < s.setups; i++ {
		cfg := s.cfg
		cfg.Seed = rng.Int63()
		if err := r.measureSetup(func() error {
			p := workload.Generate(cfg)
			o := newOracle(p)
			ps, oracles = append(ps, p), append(oracles, o)
			return setup(p, o)
		}); err != nil {
			return nil, nil, err
		}
	}
	return ps, oracles, nil
}

// coldScale: every measured build is a cold build into a fresh on-disk
// store, with a fresh environment cache, after a full GC, as a new
// `irm build` process on an empty store would run it. Set-up is project
// generation.
func coldScale(r *runner, s spec, d time.Duration) error {
	ps, oracles, err := scaleProjects(r, s, func(*workload.Project, *oracle) error { return nil })
	if err != nil {
		return err
	}
	var dir string
	err = r.loop(d, func(i int, traced bool) error {
		p, o := ps[i%len(ps)], oracles[i%len(ps)]
		n := len(p.Files)
		if dir != "" {
			r.remove(dir)
		}
		dir = r.freshDir()
		store, err := r.open(dir, traced)
		if err != nil {
			return err
		}
		runtime.GC()
		return r.build(o, buildReq{
			files: p.Files, dir: dir, store: store, cache: pickle.NewEnvCache(0),
			traced: traced, parsed: filled(n, true), replayCache: pickle.NewEnvCache(0),
			check: coldCheck(n), measured: true,
		})
	})
	if err != nil {
		return err
	}
	return r.finish(dir)
}

// nullScale: every measured build is a null rebuild against a primed
// store, through a newly opened store and a fresh environment cache,
// after a full GC, as a new `irm build` process would run it. Set-up is
// project generation plus the priming cold build.
func nullScale(r *runner, s spec, d time.Duration) error {
	var dirs []string
	ps, oracles, err := scaleProjects(r, s, func(p *workload.Project, o *oracle) error {
		dir := r.freshDir()
		dirs = append(dirs, dir)
		return r.prime(o, p.Files, dir, pickle.NewEnvCache(0), false)
	})
	if err != nil {
		return err
	}
	err = r.loop(d, func(i int, traced bool) error {
		p, o, dir := ps[i%len(ps)], oracles[i%len(ps)], dirs[i%len(ps)]
		n := len(p.Files)
		store, err := r.open(dir, traced)
		if err != nil {
			return err
		}
		runtime.GC()
		return r.build(o, buildReq{
			files: p.Files, dir: dir, store: store, cache: pickle.NewEnvCache(0),
			traced: traced, parsed: filled(n, false), replayCache: pickle.NewEnvCache(0),
			check: nullCheck(n), measured: true,
		})
	})
	if err != nil {
		return err
	}
	return r.finish(dirs[0])
}

// prime cold-builds files into the store at dir and, when warm is set,
// follows with a null build that fills the environment cache. Both are
// checked like any other build.
func (r *runner) prime(o *oracle, files []core.File, dir string, cache *pickle.EnvCache, warm bool) error {
	store, err := r.open(dir, false)
	if err != nil {
		return err
	}
	n := len(files)
	if err := r.build(o, buildReq{files: files, dir: dir, store: store, cache: cache,
		check: coldCheck(n)}); err != nil || !warm {
		return err
	}
	return r.build(o, buildReq{files: files, dir: dir, store: store, cache: cache,
		check: nullCheck(n)})
}

// editLoop: a watch/daemon-style session. One on-disk store and one
// environment cache persist across the run; each measured build follows
// one edit of a seeded workload.EditDriver stream, applied in memory.
// An edit replaces the unit's previous one (it is applied to the
// pristine source), so the sources stay the same size however many
// builds a run fits and a faster program never meets a bigger project.
// Set-up is project generation, the cold build and a null build that
// warms the cache; store_mb is the store's size after it. At the end
// the session's store must be byte-equal to a cold build of the final
// sources.
func editLoop(r *runner, s spec, d time.Duration) error {
	var p *workload.Project
	var o *oracle
	var dir string
	var cache *pickle.EnvCache
	for i := 0; i < s.setups; i++ {
		if dir != "" {
			r.remove(dir)
		}
		dir = r.freshDir()
		if err := r.measureSetup(func() error {
			p = workload.Generate(s.cfg)
			o = newOracle(p)
			cache = pickle.NewEnvCache(0)
			return r.prime(o, p.Files, dir, cache, true)
		}); err != nil {
			return err
		}
	}
	// The store's size at the end of the run depends on which edits are
	// in effect, and so on how many builds fit in the run; it is taken
	// here, before the first edit.
	if err := r.finish(dir); err != nil {
		return err
	}
	n := len(p.Files)
	plain, err := r.open(dir, false)
	if err != nil {
		return err
	}
	wrapped := plain
	if r.meter != nil {
		if wrapped, err = r.open(dir, true); err != nil {
			return err
		}
	}
	importers := dependents(p)
	drv := workload.NewEditDriver("", n, s.seed)
	files := sourcesOf(p)
	ifaceEdited := make([]bool, n) // the unit's edit in effect changed its interface
	replayCache := pickle.NewEnvCache(0)
	err = r.loop(d, func(_ int, traced bool) error {
		e := drv.Plan()
		files[e.Unit].Source = workload.ApplyEdit(p.Files[e.Unit].Source, e.Unit, e.Kind, e.Seq)
		compiles := expectedCompiles(importers, e, ifaceEdited[e.Unit])
		ifaceEdited[e.Unit] = e.Kind == workload.InterfaceEdit
		parsed := filled(n, false)
		parsed[e.Unit] = true
		store := plain
		if traced {
			store = wrapped
		}
		return r.build(o, buildReq{
			files: files, dir: dir, store: store, cache: cache,
			traced: traced, parsed: parsed, replayCache: replayCache,
			check: editCheck(n, compiles), measured: true,
		})
	})
	if err != nil {
		return err
	}

	coldDir := r.freshDir()
	failed := r.failed
	if err := r.prime(o, files, coldDir, pickle.NewEnvCache(0), false); err != nil {
		return err
	}
	if r.failed == failed {
		if err := compareStores(dir, coldDir); err != nil {
			r.failed++
			fmt.Fprintf(r.log, "irmbench: %v\n", err)
		}
	}
	r.remove(coldDir)
	return nil
}
