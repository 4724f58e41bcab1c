package dynenv

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/pid"
)

func TestBindLookup(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	if _, ok := d.Lookup(p); ok {
		t.Fatal("phantom binding")
	}
	d.Bind(p, interp.IntV(7))
	v, ok := d.Lookup(p)
	if !ok || v != interp.IntV(7) {
		t.Fatal("lookup failed")
	}
	if d.Len() != 1 {
		t.Errorf("len %d", d.Len())
	}
}

func TestMustLookup(t *testing.T) {
	d := New()
	if _, err := d.MustLookup(pid.HashString("missing")); err == nil {
		t.Error("missing pid not reported")
	}
}

func TestCopyIsolation(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	d.Bind(p, interp.IntV(1))
	c := d.Copy()
	c.Bind(p, interp.IntV(2))
	if v, _ := d.Lookup(p); v != interp.IntV(1) {
		t.Error("copy mutated original")
	}
}

func TestPidsSorted(t *testing.T) {
	d := New()
	for _, s := range []string{"c", "a", "b"} {
		d.Bind(pid.HashString(s), interp.Unit())
	}
	pids := d.Pids()
	for i := 1; i < len(pids); i++ {
		if pids[i-1].Compare(pids[i]) >= 0 {
			t.Error("pids not sorted")
		}
	}
}

func TestRebind(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	d.Bind(p, interp.IntV(1))
	d.Bind(p, interp.IntV(2))
	if v, _ := d.Lookup(p); v != interp.IntV(2) {
		t.Error("rebind did not replace")
	}
	if d.Len() != 1 {
		t.Error("rebind grew the env")
	}
}
