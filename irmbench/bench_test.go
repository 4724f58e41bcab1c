package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// tiny is a workload shrunk to a few small units, with its kind of
// build, oracle and checks unchanged.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	s := w.spec(3)
	s.cfg.Units, s.cfg.LinesPerUnit, s.cfg.LayerWidth = 8, 20, 3
	s.setups = 2
	return s
}

// runTiny runs a tiny workload for a moment and returns its runner.
func runTiny(t *testing.T, name string, traced bool, jobs int) *runner {
	t.Helper()
	var log bytes.Buffer
	r := newRunner(t.TempDir(), jobs, traced, &log)
	if err := tiny(t, name).run(r, 50*time.Millisecond); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d builds failed:\n%s", name, r.failed, r.attempted, log.String())
	}
	return r
}

// benchmarkFile is the part of BENCHMARK.json the tests hold the
// program to.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Fatalf("program workloads %s, BENCHMARK.json workloads %s", got, want)
	}
}

// TestEveryMetricPrints runs each workload at tiny size, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names come
// out, each with its unit, in the table and in the result line.
func TestEveryMetricPrints(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res := runTiny(t, w.name, traced, 2).result()
			if !res.Correct {
				t.Fatalf("%s traced=%v: result not correct", w.name, traced)
			}
			var table bytes.Buffer
			res.print(&table)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(table.String(), "metric "+m.Name+" ") {
					t.Errorf("%s traced=%v: table does not print %s", w.name, traced, m.Name)
				}
			}
		}
	}
}

func TestTraceFile(t *testing.T) {
	r := runTiny(t, "edit-loop", true, 2)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.meter.writeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		if _, ok := ev.Args["id"]; !ok {
			t.Fatalf("span %s has no id", ev.Name)
		}
		if ev.Pid == benchPid && ev.Name != "build" && ev.Name != "replay" {
			if p, _ := ev.Args["parent"].(float64); p == 0 {
				t.Fatalf("benchmark span %s has no parent", ev.Name)
			}
		}
	}
	for _, name := range []string{"build", "store.save", "fs.fsync", "lock.wait", "replay", "compiler.compile", "binfile.read", "scan"} {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
}

// TestOracleFlagsWrongValue builds a project and checks that the probe
// passes against the oracle and fails against a deliberately wrong
// expected value, both directly and through the runner's accounting.
func TestOracleFlagsWrongValue(t *testing.T) {
	s := tiny(t, "cold-scale")
	p := workload.Generate(s.cfg)
	o := newOracle(p)
	var out bytes.Buffer
	m := &core.Manager{Store: core.NewMemStore(), Stdout: &out}
	sess, err := m.Build(p.Files)
	if err != nil {
		t.Fatal(err)
	}
	src, want := o.probe()
	if err := checkProbe(sess, &out, src, want); err != nil {
		t.Fatalf("probe against the oracle: %v", err)
	}

	last := len(p.Files) - 1
	wrong := newOracle(p)
	wrong.memo[[3]int64{int64(last), probeFun, probeArg}] = o.eval(last, probeFun, probeArg) + 1
	if _, w := wrong.probe(); checkProbe(sess, &out, src, w) == nil {
		t.Fatalf("probe accepted wrong expected value %q", w)
	}

	r := newRunner(t.TempDir(), 2, false, &bytes.Buffer{})
	dir := r.freshDir()
	store, err := r.open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.build(wrong, buildReq{files: p.Files, dir: dir, store: store,
		check: coldCheck(len(p.Files)), measured: true}); err != nil {
		t.Fatal(err)
	}
	if res := r.result(); res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Fatalf("wrong oracle: result correct=%v failed=%d attempted=%d, want false 1 1",
			res.Correct, res.Failed, res.Attempted)
	}
}

func TestCompareStoresFlagsDifference(t *testing.T) {
	p := workload.Generate(tiny(t, "edit-loop").cfg)
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		st, err := core.NewDirStore(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&core.Manager{Store: st, Stdout: &bytes.Buffer{}}).Build(p.Files); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareStores(dirs[0], dirs[1]); err != nil {
		t.Fatalf("two cold builds differ: %v", err)
	}
	bin := filepath.Join(dirs[1], workload.UnitName(0)+".bin")
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(bin, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if compareStores(dirs[0], dirs[1]) == nil {
		t.Fatal("a flipped byte went unnoticed")
	}
}

// TestStoreTimeWithinWall checks the wrappers against the clock: at
// -j1, the store and lock time they measure inside one build can never
// exceed that build's wall time.
func TestStoreTimeWithinWall(t *testing.T) {
	for _, w := range workloads {
		r := runTiny(t, w.name, true, 1)
		if len(r.traced) == 0 {
			t.Fatalf("%s: no traced builds", w.name)
		}
		for i, s := range r.traced {
			if s.storeTime <= 0 || s.storeTime > s.wall {
				t.Errorf("%s build %d: store time %v, wall %v", w.name, i, s.storeTime, s.wall)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBaselineRefusal(t *testing.T) {
	ok := provenance{GOMAXPROCS: 2, Dirty: "false"}
	if err := ok.baselineOK(); err != nil {
		t.Fatalf("clean tree at GOMAXPROCS=2 refused: %v", err)
	}
	for _, p := range []provenance{
		{GOMAXPROCS: 1, Dirty: "false"},
		{GOMAXPROCS: 2, Dirty: "true"},
		{GOMAXPROCS: 2, Dirty: "unknown"},
	} {
		if p.baselineOK() == nil {
			t.Errorf("baseline accepted with %+v", p)
		}
	}
}
