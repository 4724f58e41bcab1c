// Package dynenv implements dynamic environments (§3 of the paper):
// finite maps from persistent identifiers to runtime values. The
// dynamic environment is threaded through unit executions — each
// execution consumes the values of its import pids and binds its export
// pids — so no global mutable state links compiled units together.
//
// Concurrency: single-goroutine. An Env is not safe for concurrent
// use; the IRM binds and reads it only on the build's committer
// goroutine, which executes every unit in commit order even under a
// parallel build (workers compile and load; they never touch the
// dynamic environment).
package dynenv

import (
	"fmt"
	"sort"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pid"
)

// Env is a dynamic environment. The zero value is not usable; call New.
type Env struct {
	m map[pid.Pid]interp.Value
	// Obs, when non-nil, receives the dynenv.* counters (binds,
	// lookups, misses) — the execute phase's import/export traffic as
	// data. Copies inherit the recorder.
	Obs obs.Recorder
}

// New returns an empty dynamic environment.
func New() *Env {
	return &Env{m: map[pid.Pid]interp.Value{}}
}

// Bind associates a pid with a value, replacing any previous binding.
func (d *Env) Bind(p pid.Pid, v interp.Value) {
	obs.Count(d.Obs, "dynenv.binds", 1)
	d.m[p] = v
}

// Lookup finds the value bound to p.
func (d *Env) Lookup(p pid.Pid) (interp.Value, bool) {
	v, ok := d.m[p]
	obs.Count(d.Obs, "dynenv.lookups", 1)
	if !ok {
		obs.Count(d.Obs, "dynenv.misses", 1)
	}
	return v, ok
}

// MustLookup finds the value bound to p or returns a linkage error.
func (d *Env) MustLookup(p pid.Pid) (interp.Value, error) {
	v, ok := d.Lookup(p)
	if !ok {
		return nil, fmt.Errorf("dynenv: no value bound to pid %s (missing import)", p.Short())
	}
	return v, nil
}

// Len reports the number of bindings.
func (d *Env) Len() int { return len(d.m) }

// Copy returns an independent copy (dynamic environments compose by
// copying plus Bind, mirroring the paper's functional composition).
// The copy reports to the same recorder as the original.
func (d *Env) Copy() *Env {
	out := New()
	out.Obs = d.Obs
	for k, v := range d.m {
		out.m[k] = v
	}
	return out
}

// Pids returns the bound pids in sorted order (deterministic, for tests
// and diagnostics).
func (d *Env) Pids() []pid.Pid {
	out := make([]pid.Pid, 0, len(d.m))
	for k := range d.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
