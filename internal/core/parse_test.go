// The scan's parallel parse (DESIGN.md §4e): changed sources are parsed
// once per build on Jobs lanes, and the outcome — error, Stats, spans —
// is the serial scan's whatever the width.
package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/obs"
	"repro/internal/workload"
)

// parseFiles is a 12-unit group with independent units, so every file
// is parsed by a cold build; bad lists the files given a syntax error.
func parseFiles(bad ...int) []core.File {
	files := make([]core.File, 12)
	for i := range files {
		files[i] = core.File{
			Name:   fmt.Sprintf("u%02d.sml", i),
			Source: fmt.Sprintf("structure U%d = struct val x = %d end", i, i),
		}
	}
	for _, i := range bad {
		files[i].Source = fmt.Sprintf("structure U%d = struct val = end", i)
	}
	return files
}

// TestParseErrorsDeterministic: with syntax errors in two files, the
// build reports the first in file order and counts only the files
// before it as parsed, at every width and on every run — both cold
// (every file parsed) and warm (only the edited files parsed).
func TestParseErrorsDeterministic(t *testing.T) {
	files := parseFiles(5, 9)
	_, werr := depend.Analyze(files[5].Name, files[5].Source)
	if werr == nil {
		t.Fatal("u05.sml parses; the fixture needs a syntax error")
	}
	edited := parseFiles(5, 9)
	for _, i := range []int{3, 7} {
		edited[i].Source += " (* edited *)"
	}
	for _, tc := range []struct {
		name   string
		prime  bool
		files  []core.File
		parsed int
	}{
		{"cold", false, files, 5}, // u00..u04 precede the failure
		{"warm", true, edited, 1}, // only u03 is changed and before it
	} {
		for _, jobs := range []int{1, 2, 4} {
			for round := 0; round < 10; round++ {
				store := core.NewMemStore()
				if tc.prime {
					pm := &core.Manager{Store: store, Stdout: io.Discard}
					if _, err := pm.Build(parseFiles()); err != nil {
						t.Fatal(err)
					}
				}
				m := &core.Manager{Store: store, Stdout: io.Discard, Jobs: jobs}
				_, err := m.Build(tc.files)
				if err == nil || err.Error() != werr.Error() {
					t.Fatalf("%s jobs=%d: error %v, want %v", tc.name, jobs, err, werr)
				}
				want := core.Stats{Units: len(tc.files), Parsed: tc.parsed}
				if got := countStats(m.Stats); got != want {
					t.Fatalf("%s jobs=%d: stats %+v, want %+v", tc.name, jobs, got, want)
				}
			}
		}
	}
}

// traceSpan is one span record of a collector's JSONL export.
type traceSpan struct {
	Type   string `json:"type"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Args   struct {
		Unit string `json:"unit"`
	} `json:"args"`
}

// spansOf decodes every span col has recorded, keyed by id.
func spansOf(t *testing.T, col *obs.Collector) map[int]traceSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans := map[int]traceSpan{}
	for dec := json.NewDecoder(&buf); dec.More(); {
		var s traceSpan
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.Type == "span" {
			spans[s.ID] = s
		}
	}
	return spans
}

// TestParseSpans pins where parsing happens: a cold build at -j4 puts
// one parse span per file under the scan span on worker lanes 1..4; a
// one-file edit parses that file inline on the coordinator's lane 0;
// a null build parses nothing.
func TestParseSpans(t *testing.T) {
	p := workload.Generate(workload.Small())
	store := core.NewMemStore()
	build := func(files []core.File) []traceSpan {
		t.Helper()
		col := obs.New()
		m := &core.Manager{Store: store, Stdout: io.Discard, Obs: col, Jobs: 4}
		if _, err := m.Build(files); err != nil {
			t.Fatal(err)
		}
		spans := spansOf(t, col)
		var parses []traceSpan
		for _, s := range spans {
			if s.Name != "parse" {
				continue
			}
			if spans[s.Parent].Name != "scan" {
				t.Errorf("parse span of %s nested under %q, want scan",
					s.Args.Unit, spans[s.Parent].Name)
			}
			parses = append(parses, s)
		}
		if len(parses) != m.Stats.Parsed {
			t.Errorf("%d parse spans, Stats.Parsed %d", len(parses), m.Stats.Parsed)
		}
		return parses
	}

	cold := build(p.Files)
	if len(cold) != len(p.Files) {
		t.Fatalf("cold build: %d parse spans, want %d", len(cold), len(p.Files))
	}
	for _, s := range cold {
		if s.Lane < 1 || s.Lane > 4 {
			t.Errorf("cold build: parse of %s on lane %d, want a worker lane 1..4",
				s.Args.Unit, s.Lane)
		}
	}

	if null := build(p.Files); len(null) != 0 {
		t.Fatalf("null build recorded %d parse spans, want none", len(null))
	}

	edit := build(p.Edit(3, workload.ImplEdit, 1))
	if len(edit) != 1 || edit[0].Args.Unit != p.Files[3].Name || edit[0].Lane != 0 {
		t.Fatalf("one-file edit: parse spans %+v, want one of %s on lane 0",
			edit, p.Files[3].Name)
	}
}
