package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// info holds figures printed for people only, none of which can
	// carry a bound: the error rate, build counts, the tail latency, the
	// cutoff figure, counters no build reported.
	info []string
}

func (r *runner) result() *result {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	res.info = append(res.info,
		fmt.Sprintf("error_rate %.4f (%d of %d builds failed or were wrong)",
			ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if r.meter == nil {
		r.endToEnd(res, set)
	} else {
		r.perLayer(res, set)
	}
	return res
}

// endToEnd derives the metrics a user of `irm build` sees from the
// untraced builds.
func (r *runner) endToEnd(res *result, set func(string, string, float64)) {
	walls := make([]float64, len(r.samples))
	var cpu, alloc, compiled float64
	for i, s := range r.samples {
		walls[i] = s.wall.Seconds()
		cpu += s.cpu.Seconds()
		alloc += float64(s.alloc)
		compiled += float64(s.compiled)
	}
	n := float64(len(r.samples))
	set("setup_s", "s", quantile(durations(r.setups), 0.5))
	set("build_p50_s", "s", quantile(walls, 0.5))
	set("cpu_s_per_build", "s", ratio(cpu, n))
	set("alloc_mb_per_build", "MB", ratio(alloc, n)/1e6)
	set("peak_rss_mb", "MB", peakRSSMB())
	set("store_mb", "MB", float64(r.storeBytes)/1e6)
	res.info = append(res.info,
		fmt.Sprintf("builds %d measured", len(r.samples)),
		fmt.Sprintf("build_p90_s %.6g (%d builds beyond it)", quantile(walls, 0.9), len(walls)/10),
		fmt.Sprintf("recompiled_per_build %.4f", ratio(compiled, n)))
}

// layerCounters are the program counters the per-layer metrics read.
// They are read as data: one a build does not report is absent, and
// its metric reads 0.
var layerCounters = []string{
	"build.sched.wait_ns", "build.parallelism.max",
	"cache.env_hits", "cache.env_misses", "build.loaded", "build.units",
}

// perLayer derives the per-layer metrics of the traced builds: every
// figure is per traced build (a replay is one per build) unless it is
// a ratio.
func (r *runner) perLayer(res *result, set func(string, string, float64)) {
	m := r.meter
	nb := float64(len(r.traced))
	per := func(name, unit string) { set(name, unit, ratio(m.get(name), nb)) }
	for _, name := range []string{"core.fs.read_s", "core.fs.write_s", "core.fs.fsync_s",
		"core.fs.rename_s", "core.store.load_s", "core.store.save_s", "core.lock.wait_s"} {
		per(name, "s")
	}
	per("core.fs.read_mb", "MB")
	per("core.fs.write_mb", "MB")
	per("core.fs.fsyncs", "count")
	per("core.store.loads", "count")
	per("core.store.saves", "count")

	nr := m.get("replays")
	rep := func(name, unit string) { set(name, unit, ratio(m.get(name), nr)) }
	for _, name := range []string{"depend.analyze_s", "depend.toposort_s", "compiler.session_s",
		"compiler.compile_s", "compiler.hash_s", "compiler.execute_s", "binfile.encode_s",
		"binfile.read_s"} {
		rep(name, "s")
	}
	rep("compiler.compiles", "count")
	rep("compiler.compile_alloc_mb", "MB")
	rep("binfile.bin_mb", "MB")
	rep("binfile.read_alloc_mb", "MB")
	set("depend.klines_per_s", "klines/s", ratio(m.get("depend.lines")/1e3, m.get("depend.analyze_s")))

	c := r.counters
	set("core.sched.worker_idle_s", "s", ratio(float64(c["build.sched.wait_ns"])/1e9, nb))
	set("core.sched.parallelism_max", "count", ratio(float64(c["build.parallelism.max"]), nb))
	set("pickle.envcache.hit_ratio", "ratio", ratio(float64(c["cache.env_hits"]),
		float64(c["cache.env_hits"]+c["cache.env_misses"])))
	set("core.reuse_ratio", "ratio", ratio(float64(c["build.loaded"]), float64(c["build.units"])))
	set("core.build.self_s", "s", ratio(r.selfTime.Seconds(), float64(r.selfFound)))

	var compiled float64
	traced := make([]float64, len(r.traced))
	for i, s := range r.traced {
		compiled += float64(s.compiled)
		traced[i] = s.wall.Seconds()
	}
	set("core.recompiled_per_build", "count", ratio(compiled, nb))
	untraced := make([]float64, len(r.samples))
	for i, s := range r.samples {
		untraced[i] = s.wall.Seconds()
	}
	set("trace.overhead_ratio", "ratio", ratio(quantile(traced, 0.5), quantile(untraced, 0.5)))

	res.info = append(res.info, fmt.Sprintf("builds %d traced, %d untraced", len(r.traced), len(r.samples)))
	if r.selfFound == 0 {
		res.info = append(res.info, "absent: no build reported a root \"build\" span")
	}
	for _, k := range layerCounters {
		if !r.counterSeen[k] {
			res.info = append(res.info, fmt.Sprintf("absent: counter %s (no build reported it, or it stayed 0)", k))
		}
	}
}

// print writes every metric by name with its unit, for people.
func (res *result) print(w io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, line := range res.info {
		fmt.Fprintf(w, "info   %s\n", line)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
