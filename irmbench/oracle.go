package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/compiler"
	"repro/internal/workload"
)

// probeFun and probeArg select the probe every build's session must
// answer: U<last>.f2 7. Every generated unit exports f0..f(k-1), and
// f2 of the last unit reaches through the dependency DAG.
const (
	probeFun = 2
	probeArg = 7
)

// oracle predicts, independently of the compiler, what a build of a
// generated project must compute: it evaluates the generator's
// arithmetic over Project.Deps in Go. workload.unitSource defines, for
// unit i with dependencies D and k exported functions,
//
//	f0 x = x + 1                                  (+ U_d.f0 (x-1) - x)
//	fj x = f(j-1) (x + j)                          (+ U_d.fj (x-1) - x)
//
// where d = D[j mod |D|] and the bracketed term is present when D is
// non-empty. Edits (comment, helper, new export) never touch the fj.
type oracle struct {
	deps [][]int
	k    int
	memo map[[3]int64]int64
}

func newOracle(p *workload.Project) *oracle {
	return &oracle{deps: p.Deps, k: p.Config.FunsPerUnit, memo: map[[3]int64]int64{}}
}

func (o *oracle) eval(unit, fun int, x int64) int64 {
	key := [3]int64{int64(unit), int64(fun), x}
	if v, ok := o.memo[key]; ok {
		return v
	}
	var v int64
	if fun == 0 {
		v = x + 1
	} else {
		v = o.eval(unit, fun-1, x+int64(fun))
	}
	if ds := o.deps[unit]; len(ds) > 0 {
		v += o.eval(ds[fun%len(ds)], fun%o.k, x-1) - x
	}
	o.memo[key] = v
	return v
}

// probe returns the SML source of the probe and the line it must print.
func (o *oracle) probe() (src, want string) {
	last := len(o.deps) - 1
	src = fmt.Sprintf("val _ = print (Int.toString (U%03d.f%d %d) ^ \"\\n\")\n",
		last, probeFun, probeArg)
	return src, smlInt(o.eval(last, probeFun, probeArg)) + "\n"
}

// smlInt renders n the way Int.toString does (~ for minus).
func smlInt(n int64) string {
	if n < 0 {
		return "~" + strconv.FormatInt(-n, 10)
	}
	return strconv.FormatInt(n, 10)
}

// checkProbe runs the probe in a built session, whose machine writes to
// out, and compares what it prints with want.
func checkProbe(sess *compiler.Session, out *bytes.Buffer, src, want string) error {
	out.Reset()
	if _, err := sess.Run("probe.sml", src); err != nil {
		return fmt.Errorf("probe: %v", err)
	}
	if got := out.String(); got != want {
		return fmt.Errorf("probe printed %q, oracle expects %q", got, want)
	}
	return nil
}

// dependents returns, for every unit, the units that import it. A unit
// imports only the dependencies its functions call: D[j mod |D|] for
// j < k, so the first min(k, |D|) entries of D.
func dependents(p *workload.Project) [][]int {
	out := make([][]int, len(p.Deps))
	for u, ds := range p.Deps {
		if len(ds) > p.Config.FunsPerUnit {
			ds = ds[:p.Config.FunsPerUnit]
		}
		for _, d := range ds {
			out[d] = append(out[d], u)
		}
	}
	return out
}

// expectedCompiles is the cutoff rule's prediction for a build after
// one edit that replaced the unit's previous edit: the edited unit
// recompiles. If its interface changed — the new edit adds an export,
// or the replaced one had added one — its direct importers recompile
// too; their own interfaces do not change, so the recompilation stops
// there (§5).
func expectedCompiles(importers [][]int, e workload.ScriptedEdit, replacedInterfaceEdit bool) int {
	if e.Kind == workload.InterfaceEdit || replacedInterfaceEdit {
		return 1 + len(importers[e.Unit])
	}
	return 1
}

// storeFiles reads every bin file of a store directory.
func storeFiles(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// compareStores reports the bin files on which two stores differ.
func compareStores(got, want string) error {
	g, err := storeFiles(got)
	if err != nil {
		return err
	}
	w, err := storeFiles(want)
	if err != nil {
		return err
	}
	var diff []string
	for name, wb := range w {
		if gb, ok := g[name]; !ok || !bytes.Equal(gb, wb) {
			diff = append(diff, name)
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			diff = append(diff, name)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("store differs from a cold build of the same sources in %d bin files: %v",
			len(diff), diff)
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
