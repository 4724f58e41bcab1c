// The span-closure audit (observability invariant): every span a
// build opens must be closed by the time Build returns, on every
// path — success, compile failure at any scheduler width, and the
// cancellation of in-flight workers a mid-build failure triggers. A
// leaked span renders as an event with no duration in the Perfetto
// trace and, worse, silently truncates the phase timings the ledger
// trends; diffing Collector.SpanCounts catches the leak at the source.
package core_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// checkSpansClosed asserts the open/close ledger balances.
func checkSpansClosed(t *testing.T, col *obs.Collector, ctx string) {
	t.Helper()
	opened, closed := col.SpanCounts()
	if opened == 0 {
		t.Fatalf("%s: no spans recorded; instrumentation detached?", ctx)
	}
	if open := col.OpenSpans(); open != 0 {
		t.Errorf("%s: %d spans leaked (%d opened, %d closed)", ctx, open, opened, closed)
	}
}

func TestSpansClosedOnSuccess(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		if _, err := m.Build(workload.Generate(workload.Small()).Files); err != nil {
			t.Fatal(err)
		}
		checkSpansClosed(t, col, "success")
	}
}

// TestSpansClosedOnFailure is the regression test for the in-flight
// worker leak: when a unit fails mid-build, results already computed
// by workers but never committed used to leave their unit spans open.
func TestSpansClosedOnFailure(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		// Run repeatedly at each width: whether a worker is in flight at
		// the instant of failure is a race the scheduler loses only
		// sometimes.
		for round := 0; round < 10; round++ {
			col := obs.New()
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: io.Discard, Obs: col, Jobs: jobs}
			if _, err := m.Build(failureFiles()); err == nil {
				t.Fatal("build of failing group succeeded")
			}
			checkSpansClosed(t, col, "failure")
		}
	}
}

// TestFailedBuildTraceValid: the trace of a failing parallel build
// still serializes as well-formed trace_event JSON with every event
// carrying a non-negative duration — the artifact you debug the
// failure with must itself be sound.
func TestFailedBuildTraceValid(t *testing.T) {
	col := obs.New()
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Obs: col, Jobs: 8}
	if _, err := m.Build(failureFiles()); err == nil {
		t.Fatal("build of failing group succeeded")
	}
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("failed build's trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("failed build produced an empty trace")
	}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("malformed event in failure trace: %+v", ev)
		}
	}
	var jbuf bytes.Buffer
	if err := col.WriteJSONL(&jbuf); err != nil {
		t.Fatalf("failed build's JSONL export: %v", err)
	}
}

// TestExecSpanAudit audits the execute sub-phase instrumentation at
// both scheduler widths (DESIGN.md §4j): every unit gets exactly one
// "execute" span carrying the full imports/apply/bind sub-phase set,
// every one of those spans is closed with a non-negative duration, and
// the spans sit on the committer's lane 0, nested in their unit's span
// — never on a compile worker's lane, so the Perfetto view keeps
// compilation and execution on separate tracks.
func TestExecSpanAudit(t *testing.T) {
	p := workload.Generate(workload.Small())
	for _, jobs := range []int{1, 8} {
		col := obs.New()
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Obs: col, Jobs: jobs}
		if _, err := m.Build(p.Files); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		type span struct {
			Type   string  `json:"type"`
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Name   string  `json:"name"`
			Cat    string  `json:"cat"`
			Lane   int     `json:"lane"`
			DurUs  float64 `json:"dur_us"`
			Args   struct {
				Unit string `json:"unit"`
			} `json:"args"`
		}
		spans := map[int]span{}
		children := map[int][]span{}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var s span
			if err := dec.Decode(&s); err != nil {
				t.Fatal(err)
			}
			if s.Type != "span" {
				continue
			}
			spans[s.ID] = s
			children[s.Parent] = append(children[s.Parent], s)
		}
		execs := 0
		for _, s := range spans {
			if s.Name != "execute" {
				continue
			}
			execs++
			if s.DurUs < 0 {
				t.Errorf("jobs=%d: execute span %d has negative duration", jobs, s.ID)
			}
			if s.Lane != 0 {
				t.Errorf("jobs=%d: execute span %d on lane %d, want committer lane 0",
					jobs, s.ID, s.Lane)
			}
			if u := spans[s.Parent]; u.Cat != obs.CatUnit || u.Name != s.Args.Unit {
				t.Errorf("jobs=%d: execute span %d of %q not nested in its unit span (parent %+v)",
					jobs, s.ID, s.Args.Unit, u)
			}
			sub := map[string]bool{}
			for _, ch := range children[s.ID] {
				sub[ch.Name] = true
				if ch.DurUs < 0 {
					t.Errorf("jobs=%d: %s sub-span of execute %d has negative duration",
						jobs, ch.Name, s.ID)
				}
				if ch.Lane != s.Lane {
					t.Errorf("jobs=%d: %s sub-span on lane %d, execute on %d",
						jobs, ch.Name, ch.Lane, s.Lane)
				}
			}
			for _, want := range []string{"imports", "apply", "bind"} {
				if !sub[want] {
					t.Errorf("jobs=%d: execute span %d missing %q sub-phase", jobs, s.ID, want)
				}
			}
		}
		if execs != len(p.Files) {
			t.Errorf("jobs=%d: %d execute spans, want one per unit (%d)",
				jobs, execs, len(p.Files))
		}
	}
}
