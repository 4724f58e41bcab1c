// EnvCache integration coverage: warm rebuilds must hit the
// rehydration cache, concurrent Managers must be able to share one
// cache (run under -race), and sharing must never change build
// outputs.
package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pickle"
	"repro/internal/workload"
)

// TestWarmBuildHitsEnvCache: with one store and one private cache, the
// first null rebuild populates the cache and the second serves every
// loaded unit from it.
func TestWarmBuildHitsEnvCache(t *testing.T) {
	p := workload.Generate(workload.Small())
	store := core.NewMemStore()
	cache := pickle.NewEnvCache(0)

	build := func() map[string]int64 {
		m := core.NewManager()
		m.Store = store
		m.EnvCache = cache
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("build: %v", err)
		}
		return m.Counters
	}

	cold := build()
	if cold["build.compiled"] != int64(len(p.Files)) {
		t.Fatalf("cold build compiled %d of %d", cold["build.compiled"], len(p.Files))
	}

	warm1 := build()
	if warm1["build.loaded"] != int64(len(p.Files)) {
		t.Fatalf("first rebuild loaded %d of %d", warm1["build.loaded"], len(p.Files))
	}
	if warm1["cache.env_misses"] != int64(len(p.Files)) || warm1["cache.env_hits"] != 0 {
		t.Errorf("first rebuild: hits=%d misses=%d, want 0/%d",
			warm1["cache.env_hits"], warm1["cache.env_misses"], len(p.Files))
	}

	warm2 := build()
	if warm2["cache.env_hits"] != int64(len(p.Files)) || warm2["cache.env_misses"] != 0 {
		t.Errorf("second rebuild: hits=%d misses=%d, want %d/0",
			warm2["cache.env_hits"], warm2["cache.env_misses"], len(p.Files))
	}
}

// TestEnvCacheSharedAcrossConcurrentManagers: two Managers over
// separate stores share one EnvCache while building the same project
// concurrently. The cache's mutex and the immutability contract of
// cached environments are what -race exercises here; the final bins
// must be identical regardless of who rehydrated what.
func TestEnvCacheSharedAcrossConcurrentManagers(t *testing.T) {
	p := workload.Generate(workload.Small())
	cache := pickle.NewEnvCache(0)

	stores := [2]*core.MemStore{core.NewMemStore(), core.NewMemStore()}
	// Seed both stores so the concurrent phase is all cached loads —
	// the path that touches the shared cache.
	for _, store := range stores {
		m := core.NewManager()
		m.Store = store
		m.EnvCache = cache
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("seed build: %v", err)
		}
	}

	const rounds = 4
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		store := stores[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m := core.NewManager()
				m.Store = store
				m.EnvCache = cache
				if _, err := m.Build(p.Files); err != nil {
					t.Errorf("concurrent warm build: %v", err)
					return
				}
				if got := m.Counters["build.loaded"]; got != int64(len(p.Files)) {
					t.Errorf("warm build loaded %d of %d", got, len(p.Files))
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, f := range p.Files {
		e0, err0 := stores[0].Load(f.Name)
		e1, err1 := stores[1].Load(f.Name)
		if err0 != nil || err1 != nil || e0 == nil || e1 == nil {
			t.Fatalf("%s: missing entry (%v, %v)", f.Name, err0, err1)
		}
		if e0.StatPid != e1.StatPid || len(e0.Bin) != len(e1.Bin) {
			t.Errorf("%s: stores diverged under shared cache", f.Name)
		}
	}
}

// TestInterfaceEditsRetireEnvCacheEntries: a recompile that moves a
// unit's interface pid drops the superseded pid's cache entry, so after
// any number of interface edits a null rebuild leaves exactly one entry
// per unit instead of one per interface the session ever saw.
func TestInterfaceEditsRetireEnvCacheEntries(t *testing.T) {
	p := workload.Generate(workload.Small())
	store := core.NewMemStore()
	cache := pickle.NewEnvCache(0)
	files := append([]core.File(nil), p.Files...)
	build := func() *core.Manager {
		m := core.NewManager()
		m.Store = store
		m.EnvCache = cache
		if _, err := m.Build(files); err != nil {
			t.Fatalf("build: %v", err)
		}
		return m
	}
	build()
	build() // the null rebuild rehydrates, and caches, every unit
	n := len(files)
	if cache.Len() != n {
		t.Fatalf("after the null rebuild the cache holds %d entries, want %d", cache.Len(), n)
	}
	for gen := 1; gen <= 8; gen++ {
		files[0].Source = workload.ApplyEdit(p.Files[0].Source, 0, workload.InterfaceEdit, gen)
		if m := build(); m.Counters["build.compiled"] == 0 || m.Counters["build.cutoffs"] == m.Counters["build.compiled"] {
			t.Fatalf("edit %d: compiled %d, cutoffs %d; the interface edit moved no pid",
				gen, m.Counters["build.compiled"], m.Counters["build.cutoffs"])
		}
		build()
		if cache.Len() != n {
			t.Fatalf("after %d interface edits the cache holds %d entries, want %d", gen, cache.Len(), n)
		}
	}
}
