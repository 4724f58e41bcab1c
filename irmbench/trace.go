package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxTracedBuilds bounds how many builds' spans a traced run keeps for
// its Chrome trace; the per-layer sums cover every traced build.
const maxTracedBuilds = 8

// meter accumulates a traced run's per-layer sums and keeps its spans
// in memory until the run ends. The wrappers call it from the build's
// coordinator goroutine (the only one that touches the store), the
// replay from the benchmark's own; the mutex covers stray callers such
// as the lock heartbeat.
type meter struct {
	mu     sync.Mutex
	epoch  time.Time
	sums   map[string]float64
	events []traceEvent
	stack  []int // open benchmark spans, innermost last
	nextID int
	keep   bool // record spans of the current build
	builds int  // builds whose spans were kept
}

func newMeter() *meter {
	return &meter{epoch: time.Now(), sums: map[string]float64{}}
}

func (m *meter) add(name string, v float64) {
	m.mu.Lock()
	m.sums[name] += v
	m.mu.Unlock()
}

func (m *meter) get(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sums[name]
}

// span opens a benchmark span nested under the innermost open one and
// returns its end function.
func (m *meter) span(name string) func() {
	m.mu.Lock()
	if !m.keep {
		m.mu.Unlock()
		return func() {}
	}
	m.nextID++
	id := m.nextID
	parent := 0
	if n := len(m.stack); n > 0 {
		parent = m.stack[n-1]
	}
	m.stack = append(m.stack, id)
	t0 := time.Now()
	m.mu.Unlock()
	return func() {
		t1 := time.Now()
		m.mu.Lock()
		defer m.mu.Unlock()
		if n := len(m.stack); n > 0 && m.stack[n-1] == id {
			m.stack = m.stack[:n-1]
		}
		m.events = append(m.events, traceEvent{
			Name: name, Cat: "bench", Ph: "X",
			Ts: us(t0.Sub(m.epoch)), Dur: us(t1.Sub(t0)),
			Pid: benchPid, Tid: 1,
			Args: map[string]any{"id": id, "parent": parent},
		})
	}
}

// beginBuild starts span recording for one traced build and its
// replay, while the trace has room; finishBuild stops it.
func (m *meter) beginBuild() {
	m.mu.Lock()
	m.keep = m.builds < maxTracedBuilds
	if m.keep {
		m.builds++
	}
	m.mu.Unlock()
}

func (m *meter) finishBuild() {
	m.mu.Lock()
	m.keep = false
	m.mu.Unlock()
}

// Trace process ids: the program's own spans and the benchmark's.
const (
	buildPid = 1
	benchPid = 2
)

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// buildSpan is one span of a build as the program exports it
// (obs.Collector.WriteJSONL): read as data, so that span names the
// program adds, renames or drops never break the benchmark.
type buildSpan struct {
	Type   string         `json:"type"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Cat    string         `json:"cat"`
	Lane   int            `json:"lane"`
	TsUs   float64        `json:"ts_us"`
	DurUs  float64        `json:"dur_us"`
	Args   map[string]any `json:"args"`
}

// absorbBuild reads the spans of one build from its collector, whose
// epoch was colEpoch, and returns the self time of its root "build"
// span: the part of the build that none of its child spans covers.
// When the build's spans are being kept, they join the trace with
// their ids offset past the benchmark's own.
func (m *meter) absorbBuild(col *obs.Collector, colEpoch time.Time) (self time.Duration, found bool, err error) {
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		return 0, false, err
	}
	var spans []buildSpan
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var s buildSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return 0, false, err
		}
		if s.Type == "span" {
			spans = append(spans, s)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, false, err
	}

	var root *buildSpan
	for i := range spans {
		if spans[i].Parent == 0 && spans[i].Name == "build" {
			root = &spans[i]
			break
		}
	}
	if root != nil {
		var kids [][2]float64
		for _, s := range spans {
			if s.Parent == root.ID {
				kids = append(kids, [2]float64{s.TsUs, s.TsUs + s.DurUs})
			}
		}
		covered := coveredUs(kids, root.TsUs, root.TsUs+root.DurUs)
		self = time.Duration((root.DurUs - covered) * float64(time.Microsecond))
		found = true
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.keep {
		off := us(colEpoch.Sub(m.epoch))
		base := m.nextID
		for _, s := range spans {
			args := map[string]any{"id": base + s.ID}
			if s.Parent != 0 {
				args["parent"] = base + s.Parent
			}
			for k, v := range s.Args {
				args[k] = v
			}
			m.events = append(m.events, traceEvent{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: off + s.TsUs, Dur: s.DurUs,
				Pid: buildPid, Tid: s.Lane + 1, Args: args,
			})
			if base+s.ID > m.nextID {
				m.nextID = base + s.ID
			}
		}
	}
	return self, found, nil
}

// coveredUs is the length of the union of the intervals, clipped to
// [lo, hi].
func coveredUs(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// writeTrace writes the kept spans as a Chrome trace_event file, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (m *meter) writeTrace(path string) error {
	m.mu.Lock()
	evs := append([]traceEvent(nil), m.events...)
	m.mu.Unlock()
	meta := func(pid int, name string) traceEvent {
		return traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
	}
	evs = append([]traceEvent{meta(buildPid, "irm build (program spans)"), meta(benchPid, "irmbench (wrapper and replay spans)")}, evs...)
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
