package pickle

import (
	"testing"

	"repro/internal/env"
	"repro/internal/pid"
	"repro/internal/types"
)

// lazyFixture returns a frozen parent and two dependency environments
// that both define a tycon under one stamp, so registration order
// decides which object the stamp resolves to.
func lazyFixture() (*Index, []*env.Env, *types.Tycon, *types.Tycon) {
	parent := NewIndex()
	parent.AddTycon(mkTycon("base", unitA, 1))
	first, second := mkTycon("t", unitB, 2), mkTycon("t", unitB, 2)
	e1, e2 := env.New(nil), env.New(nil)
	e1.DefineTycon("t", first)
	e1.DefineStr("S", &env.StrBind{Str: &env.Structure{Stamp: permanent(unitB, 3), Env: env.New(nil)}})
	e2.DefineTycon("t", second)
	e2.DefineTycon("u", mkTycon("u", unitB, 4))
	return parent, []*env.Env{e1, e2}, first, second
}

// TestLazyOverlayMatchesEager: a lazy overlay answers every lookup and
// registration exactly as an overlay filled up front, first writer
// winning in the order the environments were given.
func TestLazyOverlayMatchesEager(t *testing.T) {
	parent, envs, first, _ := lazyFixture()
	eager := NewOverlay(parent)
	for _, e := range envs {
		eager.AddEnv(e)
	}
	lazy := NewLazyOverlay(parent, envs)
	for _, idx := range []int64{2, 3, 4} {
		s := permanent(unitB, idx)
		want, _ := eager.Lookup(s)
		got, ok := lazy.Lookup(s)
		if !ok || got != want {
			t.Errorf("stamp %s: lazy %v, eager %v", s, got, want)
		}
	}
	if got, _ := lazy.LookupTycon(permanent(unitB, 2)); got != first {
		t.Error("the first environment's tycon did not win")
	}
	if _, err := lazy.LookupTycon(permanent(unitA, 1)); err != nil {
		t.Errorf("parent lookup through a lazy overlay: %v", err)
	}
	if lazy.Len() != eager.Len() {
		t.Errorf("Len: lazy %d, eager %d", lazy.Len(), eager.Len())
	}

	// A registration before any lookup fills the pending environments
	// first, so they still win over it.
	parent, envs, first, _ = lazyFixture()
	late := env.New(nil)
	late.DefineTycon("t", mkTycon("t", unitB, 2))
	lazy = NewLazyOverlay(parent, envs)
	lazy.AddEnv(late)
	if got, _ := lazy.LookupTycon(permanent(unitB, 2)); got != first {
		t.Error("a registration before the first lookup overtook the pending environments")
	}
}

// TestLazyOverlayUnconsulted: an overlay nobody consults never walks
// its environments, and never touches its parent.
func TestLazyOverlayUnconsulted(t *testing.T) {
	parent, envs, _, _ := lazyFixture()
	n := parent.Len()
	lazy := NewLazyOverlay(parent, envs)
	if len(lazy.byStamp) != 0 || len(lazy.visited) != 0 || lazy.pending == nil {
		t.Fatalf("lazy overlay filled before use: %d stamps, %d visited", len(lazy.byStamp), len(lazy.visited))
	}
	lazy.Lookup(permanent(unitB, 4))
	if lazy.pending != nil || parent.Len() != n {
		t.Errorf("after a lookup: pending %v, parent %d entries (was %d)", lazy.pending, parent.Len(), n)
	}
}

// TestEnvCacheRemove: Remove drops one entry and its charge, and is a
// no-op for an absent pid.
func TestEnvCacheRemove(t *testing.T) {
	c := NewEnvCache(0)
	mk := func(s string) (pid.Pid, *CachedEnv) {
		e := env.New(nil)
		return pid.HashString(s), &CachedEnv{Env: e, Frag: NewFragment(e), EnvBytes: []byte(s)}
	}
	pa, a := mk("a")
	pb, b := mk("bb")
	c.Insert(pa, a)
	c.Insert(pb, b)
	c.Remove(pa)
	if c.Len() != 1 || c.Lookup(pa) != nil || c.Lookup(pb) != b {
		t.Fatalf("after Remove(a): len %d", c.Len())
	}
	if c.Size() != b.cost() {
		t.Errorf("size %d, want %d", c.Size(), b.cost())
	}
	c.Remove(pa)
	c.Remove(pb)
	if c.Len() != 0 || c.Size() != 0 {
		t.Errorf("empty cache: len %d, size %d", c.Len(), c.Size())
	}
}
