// Concurrent-access coverage: parallel Manager.Build runs sharing one
// on-disk store must serialize through the advisory lock and leave a
// consistent cache — run under -race.
package core_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workload"
)

// buildWorker runs n builds alternating between two source versions.
func buildWorker(t *testing.T, store core.Store, rounds int, wg *sync.WaitGroup) {
	defer wg.Done()
	for i := 0; i < rounds; i++ {
		src := aV1
		if i%2 == 1 {
			src = "(* gen *) " + aV1
		}
		m := core.NewManager()
		m.Store = store
		if _, err := m.Build(chainFiles(src)); err != nil {
			t.Errorf("concurrent build: %v", err)
			return
		}
	}
}

// TestConcurrentBuildsSharedStore: goroutines sharing one *DirStore
// serialize on its in-process mutex.
func TestConcurrentBuildsSharedStore(t *testing.T) {
	store, err := core.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.LockTimeout = 30 * time.Second
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go buildWorker(t, store, 3, &wg)
	}
	wg.Wait()
	assertConsistentCache(t, store.Dir)
}

// TestConcurrentBuildsSeparateStores: distinct *DirStore instances
// over one directory (two "processes") serialize via the lockfile.
func TestConcurrentBuildsSeparateStores(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		store, err := core.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.LockTimeout = 30 * time.Second
		wg.Add(1)
		go buildWorker(t, store, 3, &wg)
	}
	wg.Wait()
	assertConsistentCache(t, dir)
}

// assertConsistentCache rebuilds both source versions over the store:
// no entry may be torn (zero corruption), and the cache must converge
// to all-loaded for whichever version it ends on.
func assertConsistentCache(t *testing.T, dir string) {
	t.Helper()
	store, err := core.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager()
	m.Store = store
	if _, err := m.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Corrupt != 0 {
		t.Errorf("cache left %d torn entries after concurrent builds", m.Stats.Corrupt)
	}
	m2 := core.NewManager()
	m2.Store = store
	if _, err := m2.Build(chainFiles(aV1)); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.Loaded != 3 || m2.Stats.Corrupt != 0 {
		t.Errorf("cache did not converge: loaded=%d corrupt=%d, want 3/0",
			m2.Stats.Loaded, m2.Stats.Corrupt)
	}
}

// TestConcurrentWorkloadBuilds stresses the lock with a larger
// generated project and live edits from two sides.
func TestConcurrentWorkloadBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-build stress")
	}
	p := workload.Generate(workload.Small())
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		store, err := core.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.LockTimeout = 60 * time.Second
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				files := p.Files
				if i%2 == 1 {
					files = p.Edit(g, workload.ImplEdit, i)
				}
				m := core.NewManager()
				m.Store = store
				if _, err := m.Build(files); err != nil {
					t.Errorf("workload build (worker %d round %d): %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	store, err := core.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager()
	m.Store = store
	if _, err := m.Build(p.Files); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Corrupt != 0 {
		t.Errorf("workload cache left %d torn entries", m.Stats.Corrupt)
	}
}

// TestConcurrentForksAndBuilds: goroutines that each fork a session,
// run a unit in it and run a Manager.Build share the per-process
// prelude templates of both engines (run under -race). Each sees its
// own output and the basis exceptions of the shared prelude.
func TestConcurrentForksAndBuilds(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "fun f n = if n < 1 then 0 else n + f (n - 1)\nval _ = print (Int.toString (f 10))"},
		{Name: "b.sml", Source: "val _ = print (\"/\" ^ Int.toString (hd [] handle Empty => f 3))"},
	}
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		eng := interp.Engine(i % 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sout, bout bytes.Buffer
			s, err := compiler.NewSessionWith(&sout, eng)
			if err != nil {
				t.Errorf("%s fork: %v", eng, err)
				return
			}
			if _, err := s.Run("u", "val _ = print (Int.toString (length [1, 2, 3] div 1))"); err != nil {
				t.Errorf("%s run: %v", eng, err)
				return
			}
			m := core.NewManager()
			m.Engine = eng
			m.Stdout = &bout
			if _, err := m.Build(files); err != nil {
				t.Errorf("%s build: %v", eng, err)
				return
			}
			if sout.String() != "3" || bout.String() != "55/6" {
				t.Errorf("%s: session printed %q, build printed %q; want \"3\" and \"55/6\"",
					eng, sout.String(), bout.String())
			}
		}()
	}
	wg.Wait()
}
