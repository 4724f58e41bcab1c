package obsserve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/watch"
)

func buildOnce(t *testing.T) (*obs.Collector, *core.Manager) {
	t.Helper()
	col := obs.New()
	m := core.NewManager()
	m.Obs = col
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
		{Name: "b.sml", Source: "structure B = struct val two = A.one + A.one end"},
	}
	if _, err := m.Build(files); err != nil {
		t.Fatal(err)
	}
	return col, m
}

func get(t *testing.T, srv *Server, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	body, _ := io.ReadAll(rr.Result().Body)
	return rr.Code, string(body), rr.Result().Header.Get("Content-Type")
}

// promLine matches a sample line of the text exposition format: a
// metric name, optional labels (histogram buckets carry le), one value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ((?:[0-9.eE+-]+|NaN|\+Inf|-Inf))$`)

// parseProm validates the exposition text the way a scrape would —
// every line is a comment or a well-formed sample, every sample is
// preceded by its HELP and TYPE (histogram samples by their family's)
// — and returns the samples keyed by name plus labels.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	announced := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			announced[f[2]] = true
			if strings.HasPrefix(line, "# TYPE ") && f[3] == "histogram" {
				// A histogram family announces its sample names implicitly.
				for _, s := range []string{"_bucket", "_sum", "_count"} {
					announced[f[2]+s] = true
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample line: %q", i+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		if !announced[name] {
			t.Fatalf("line %d: sample %s has no HELP/TYPE", i+1, name)
		}
		key := name + labels
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample for %s", i+1, key)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, valStr, err)
		}
		samples[key] = v
	}
	return samples
}

// TestMetricsMatchReport is the acceptance check: on a process that
// has run exactly one build, every /metrics counter equals that
// build's -report json counter delta, and every histogram family on
// the wire equals the collector's snapshot bucket for bucket.
func TestMetricsMatchReport(t *testing.T) {
	col, m := buildOnce(t)
	// A watch-style latency histogram must round-trip too.
	h := col.Histogram("watch.latency_seconds")
	for _, v := range []float64{0.0004, 0.0042, 0.0041, 0.25, 100} {
		h.Observe(v)
	}
	srv := New(col, nil)
	code, body, ctype := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	samples := parseProm(t, body)

	rep := m.Report("g.cm")
	if len(rep.Counters) == 0 {
		t.Fatal("report has no counters; nothing to compare")
	}
	for name, want := range rep.Counters {
		got, ok := samples[obs.PromName(name)]
		if !ok {
			t.Errorf("counter %s missing from /metrics", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("counter %s: /metrics %v, report %d", name, got, want)
		}
	}
	if samples["irm_builds_total"] != 1 {
		t.Errorf("irm_builds_total = %v, want 1", samples["irm_builds_total"])
	}
	if _, ok := samples["irm_uptime_seconds"]; !ok {
		t.Error("irm_uptime_seconds missing")
	}
	// The execute phase must be visible on the wire, including the
	// compiled-engine counters (DESIGN.md §4d).
	for _, name := range []string{
		"irm_exec_units", "irm_exec_apply_ns",
		"irm_code_compiles", "irm_code_compile_ns", "irm_code_bytes",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		}
	}

	// Histogram parity: the exposition's cumulative buckets, sum, and
	// count must equal the snapshot's.
	snap := h.Snapshot()
	pn := obs.PromName(snap.Name)
	if got := samples[pn+"_count"]; uint64(got) != snap.Count {
		t.Errorf("%s_count = %v, snapshot %d", pn, got, snap.Count)
	}
	if got := samples[pn+"_sum"]; got != snap.Sum {
		t.Errorf("%s_sum = %v, snapshot %v", pn, got, snap.Sum)
	}
	var cum uint64
	for i, b := range snap.Bounds {
		cum += snap.Counts[i]
		key := pn + `_bucket{le="` + strconv.FormatFloat(b, 'g', -1, 64) + `"}`
		if got, ok := samples[key]; !ok || uint64(got) != cum {
			t.Errorf("%s = %v (present %v), snapshot cumulative %d", key, got, ok, cum)
		}
	}
	if got := samples[pn+`_bucket{le="+Inf"}`]; uint64(got) != snap.Count {
		t.Errorf("%s +Inf bucket = %v, snapshot count %d", pn, got, snap.Count)
	}
}

func TestHealthz(t *testing.T) {
	col, _ := buildOnce(t)
	code, body, _ := get(t, New(col, nil), "/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestBuilds(t *testing.T) {
	col, m := buildOnce(t)

	// No ledger: an empty array, not null, not an error.
	_, body, ctype := get(t, New(col, nil), "/builds")
	if strings.TrimSpace(body) != "[]" || ctype != "application/json" {
		t.Fatalf("/builds without ledger = %q (%s)", body, ctype)
	}

	dir := t.TempDir()
	l, err := history.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	recID := history.FromReport(m.Report("g.cm"), m.UnitTimings, 2,
		5*time.Millisecond, time.Unix(1700000000, 0), nil)
	if err := l.Append(recID); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, New(col, l), "/builds")
	if code != 200 {
		t.Fatalf("/builds status %d", code)
	}
	var recs []history.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/builds not JSON: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].Name != "g.cm" || recs[0].Schema != history.Schema {
		t.Fatalf("/builds = %+v", recs)
	}
}

// TestWatchSSE drives the /watch endpoint over a real connection: a
// published hub event must arrive as one `event: iteration` SSE frame
// whose data decodes back to the Event.
func TestWatchSSE(t *testing.T) {
	col, _ := buildOnce(t)

	// Without a hub the route must 404, not hang.
	code, _, _ := get(t, New(col, nil), "/watch")
	if code != 404 {
		t.Fatalf("/watch without hub = %d, want 404", code)
	}

	hub := watch.NewHub()
	srv := New(col, nil)
	srv.Watch = hub
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/watch content type %q", ct)
	}

	want := watch.Event{Schema: watch.EventSchema, Seq: 3, Outcome: watch.OutcomeOK,
		Changed: []string{"u001.sml"}, Compiled: 1, Loaded: 9, LatencyNs: 12345}
	// Publish until the subscription is live (Subscribe happens inside
	// the handler, racing this goroutine).
	pubCtx, pubCancel := context.WithCancel(ctx)
	defer pubCancel()
	go func() {
		for pubCtx.Err() == nil {
			hub.Publish(want)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	sawEventLine := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: iteration" {
			sawEventLine = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if !sawEventLine {
				t.Fatalf("data frame without event line: %q", line)
			}
			var got watch.Event
			if err := json.Unmarshal([]byte(data), &got); err != nil {
				t.Fatalf("SSE data not an Event: %v\n%s", err, data)
			}
			if got.Seq != want.Seq || got.Outcome != want.Outcome ||
				got.Compiled != want.Compiled || got.LatencyNs != want.LatencyNs {
				t.Fatalf("SSE event = %+v, want %+v", got, want)
			}
			return // one good frame is the proof
		}
	}
	t.Fatalf("no SSE frame received: %v", sc.Err())
}

func TestPprofMounted(t *testing.T) {
	col, _ := buildOnce(t)
	code, body, _ := get(t, New(col, nil), "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
