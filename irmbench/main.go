// Command irmbench is the repository's end-to-end benchmark of the IRM
// (the compilation manager in internal/core). It runs one closed-loop
// workload — one client, one build in flight, like a developer waiting
// on `irm build` — for a fixed time and prints every metric by name with
// its unit. Every build's output is checked against an independent
// oracle; the last line of standard output is one JSON result object.
//
//	irmbench --workload cold-scale --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// beyond the program's own. --trace 1 wraps the store, filesystem and
// lock, replays each build layer by layer, prints the per-layer metrics
// and writes a Chrome trace. See README.md for the workloads, the
// metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-scale, null-scale or edit-loop")
	seed := fs.Int64("seed", 1, "seed for the generated project and the edit stream")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a Chrome trace")
	baseline := fs.String("baseline", "", "also write the result with its provenance to this file (refused at GOMAXPROCS=1 or from a dirty tree)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "irmbench: need --workload %v, --trace 0|1 and --seconds > 0\n", workloadNames())
		return 2
	}
	// Every build runs at -j = nproc, as `irm build` does by default.
	jobs := runtime.NumCPU()
	prov := collectProvenance(*name, *seed, jobs)
	if *baseline != "" {
		if err := prov.baselineOK(); err != nil {
			fmt.Fprintf(stderr, "irmbench: refusing to write baseline: %v\n", err)
			return 2
		}
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "irmbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(stderr, "irmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := newRunner(work, jobs, *trace == 1, stderr)
	spec := w.spec(*seed)
	if err := spec.run(r, time.Duration(*seconds*float64(time.Second))); err != nil {
		fmt.Fprintf(stderr, "irmbench: %s: %v\n", w.name, err)
		return 1
	}
	res := r.result()

	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	if *trace == 1 {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := r.meter.writeTrace(path); err != nil {
			fmt.Fprintf(stderr, "irmbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s\n", path)
	}
	res.print(stdout)
	if *baseline != "" {
		data, _ := json.MarshalIndent(struct {
			Provenance provenance `json:"provenance"`
			Result     *result    `json:"result"`
		}{prov, res}, "", "  ")
		if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "irmbench: writing baseline: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
