// Command benchgate compares two `go test -bench` output files (base
// and head) and exits non-zero when any gated benchmark's ns/op
// regresses by more than a threshold. It is the stdlib-only gating
// half of the CI bench job: benchstat renders the human-readable
// comparison, benchgate decides pass/fail, so the gate works even
// where installing x/perf is impossible.
//
// Per benchmark name the minimum ns/op across repetitions is compared
// — the best observed run is the least noisy estimate of the code's
// floor, which is what a perf gate should police.
//
// Concurrency: a single-goroutine command-line tool.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// parseBench reads `go test -bench` output and returns, per benchmark
// name (with the -N GOMAXPROCS suffix stripped), the minimum ns/op
// observed across repetitions.
func parseBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	best := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		// The ns/op value is the field preceding the "ns/op" token.
		var ns float64
		found := false
		for i := 2; i < len(fields); i++ {
			if fields[i] == "ns/op" {
				ns, err = strconv.ParseFloat(fields[i-1], 64)
				found = err == nil
				break
			}
		}
		if !found {
			continue
		}
		if old, ok := best[name]; !ok || ns < old {
			best[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

func main() {
	threshold := flag.Float64("threshold", 10, "max allowed ns/op regression, percent")
	match := flag.String("match", `Pipeline(Parse|Compile|Hash|Pickle|Rehydrate)|Exec(Cold|Warm)|ApplyHot|Build(Cold|Null|Edit)`,
		"regexp selecting which benchmarks gate the build")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] base.txt head.txt")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	base, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	head, err := parseBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	gated, failed := 0, 0
	for _, n := range names {
		if !re.MatchString(n) {
			continue
		}
		hd, ok := head[n]
		if !ok {
			fmt.Printf("benchgate: %-28s missing from head (skipped)\n", n)
			continue
		}
		gated++
		bs := base[n]
		delta := (hd - bs) / bs * 100
		verdict := "ok"
		if delta > *threshold {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("benchgate: %-28s base %10.0f ns/op  head %10.0f ns/op  %+6.1f%%  %s\n",
			n, bs, hd, delta, verdict)
	}
	if gated == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark matched %q in %s\n", *match, flag.Arg(0))
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d/%d gated benchmarks regressed more than %.0f%%\n",
			failed, gated, *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gated benchmarks within %.0f%%\n", gated, *threshold)
}
