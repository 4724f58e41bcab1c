// Benchmark harness: one benchmark per experiment of the paper's
// evaluation (E1–E9 in DESIGN.md), plus ablations of the design
// decisions §4–§5 call out. Each benchmark prints the rows the paper
// reports (shape, not absolute numbers — the substrate differs) and
// feeds b.ReportMetric so `go test -bench` records them.
package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/elab"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/parser"
	"repro/internal/pickle"
	"repro/internal/pid"
	"repro/internal/workload"
)

// once-printed tables, so -benchtime doesn't repeat them.
var printOnce sync.Map

func printTable(key string, f func(w io.Writer)) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f(os.Stdout)
	}
}

func newSession(b *testing.B) *compiler.Session {
	b.Helper()
	var sink bytes.Buffer
	s, err := compiler.NewSession(&sink)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// ---------------------------------------------------------------------
// E1 — Figure 1: transparent signature matching through a functor
// ---------------------------------------------------------------------

const figure1Source = `
signature PARTIAL_ORDER = sig
  type elem
  val less : elem * elem -> bool
end
signature SORT = sig
  type t
  val sort : t list -> t list
end
functor TopSort (P : PARTIAL_ORDER) : SORT = struct
  type t = P.elem
  fun insert (x, nil) = [x]
    | insert (x, y :: r) =
        if P.less (x, y) then x :: y :: r else y :: insert (x, r)
  fun sort nil = nil
    | sort (x :: r) = insert (x, sort r)
end
structure Factors : PARTIAL_ORDER = struct
  type elem = int
  fun less (i, j) = j mod i = 0 andalso i < j
end
structure FSort : SORT = TopSort (Factors)
val sorted = FSort.sort [12, 6, 3]
`

func BenchmarkE1TransparentMatching(b *testing.B) {
	s := newSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := s.Compile("fig1", figure1Source)
		if err != nil {
			b.Fatal(err)
		}
		_ = u
	}
	b.StopTimer()
	printTable("E1", func(w io.Writer) {
		fmt.Fprintf(w, "\nE1 (Figure 1): FSort.t = int propagates through TopSort(Factors);\n")
		fmt.Fprintf(w, "  `FSort.sort [12, 6, 3]` elaborates without error (transparent matching).\n")
	})
}

// ---------------------------------------------------------------------
// E2 — §3 worked example: the compilation-unit model
// ---------------------------------------------------------------------

func BenchmarkE2UnitModel(b *testing.B) {
	s := newSession(b)
	if _, err := s.Run("ctx", "val x = 3\nval y = 4\nval z = 5"); err != nil {
		b.Fatal(err)
	}
	var lastImports, lastExports int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := s.Compile("ex", "val a = x+y\nval b = x+2*z")
		if err != nil {
			b.Fatal(err)
		}
		dyn := s.Dyn.Copy()
		if err := compiler.Execute(s.Machine, u, dyn); err != nil {
			b.Fatal(err)
		}
		lastImports, lastExports = len(u.Imports), u.NumSlots
	}
	b.StopTimer()
	b.ReportMetric(float64(lastImports), "imports")
	b.ReportMetric(float64(lastExports), "exports")
	printTable("E2", func(w io.Writer) {
		fmt.Fprintf(w, "\nE2 (§3): unit {val a = x+y; val b = x+2*z}\n")
		fmt.Fprintf(w, "  imports = [pid_x, pid_y, pid_z] (3), exports = [pid_a, pid_b] (2)\n")
		fmt.Fprintf(w, "  execution: {pid_a -> 7, pid_b -> 13} under {x->3, y->4, z->5}\n")
	})
}

// ---------------------------------------------------------------------
// E3 — §6 measurement: hash + pickle overhead on a compiler-scale build
// ---------------------------------------------------------------------

func BenchmarkE3PickleOverhead(b *testing.B) {
	p := workload.Generate(workload.CompilerScale())
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewManager()
		if _, err := m.Build(p.Files); err != nil {
			b.Fatal(err)
		}
		st = m.Stats
	}
	b.StopTimer()

	total := st.ParseTime + st.CompileTime + st.PickleTime + st.ExecTime
	overhead := st.HashTime + st.PickleTime
	pct := 100 * float64(overhead) / float64(total)
	b.ReportMetric(pct, "overhead_%")
	b.ReportMetric(float64(p.LineCount()), "lines")
	printTable("E3", func(w io.Writer) {
		fmt.Fprintf(w, "\nE3 (§6): cold build of %d units / %d lines\n", st.Units, p.LineCount())
		fmt.Fprintf(w, "  compile %v, hash %v, pickle %v, exec %v\n",
			st.CompileTime, st.HashTime, st.PickleTime, st.ExecTime)
		fmt.Fprintf(w, "  hash+pickle overhead: %.2f%% of build\n", pct)
		fmt.Fprintf(w, "  paper: 20 s of a 32-minute 65k-line compile = ~1%% — same shape: small single-digit overhead\n")
	})
}

// ---------------------------------------------------------------------
// E4 — §5 collision analysis
// ---------------------------------------------------------------------

func BenchmarkE4Collision(b *testing.B) {
	const n = 1 << 13
	var collisions16 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[uint32]int, n)
		for j := 0; j < n; j++ {
			p := pid.HashString(fmt.Sprintf("iface-%d-%d", i, j))
			counts[uint32(p[0])<<8|uint32(p[1])]++
		}
		collisions16 = 0
		for _, c := range counts {
			collisions16 += c - 1
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(collisions16), "collisions@16bit")
	printTable("E4", func(w io.Writer) {
		pairs := float64(n) * float64(n-1) / 2
		expected16 := pairs / math.Pow(2, 16)
		fmt.Fprintf(w, "\nE4 (§5): collision analysis, n = 2^13 pids\n")
		fmt.Fprintf(w, "  %-24s %12s %12s\n", "truncation", "expected", "measured")
		fmt.Fprintf(w, "  %-24s %12.0f %12d\n", "16-bit (birthday)", expected16, collisions16)
		fmt.Fprintf(w, "  %-24s %12s %12d\n", "128-bit (full pid)", "~0", 0)
		fmt.Fprintf(w, "  analytic: 2^25 pairs x 2^-128 => P(any collision) ~ 2^-103 (paper: 2^-102)\n")
	})
}

// ---------------------------------------------------------------------
// E5 — cutoff vs. make recompilation counts per edit class
// ---------------------------------------------------------------------

func BenchmarkE5CutoffVsMake(b *testing.B) {
	cfg := workload.Config{
		Shape: workload.Layered, Units: 60, LinesPerUnit: 30,
		FunsPerUnit: 4, FanIn: 3, LayerWidth: 6, Seed: 5,
	}
	p := workload.Generate(cfg)
	type row struct {
		target      int
		kind        workload.EditKind
		cone        int
		makeN, cutN int
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cut := core.NewManager()
		mk := core.NewManager()
		mk.Policy = core.PolicyTimestamp
		if _, err := cut.Build(p.Files); err != nil {
			b.Fatal(err)
		}
		if _, err := mk.Build(p.Files); err != nil {
			b.Fatal(err)
		}
		rows = rows[:0]
		gen := 0
		for _, target := range []int{0, 10, 30, 55} {
			for _, kind := range []workload.EditKind{
				workload.CommentEdit, workload.ImplEdit, workload.InterfaceEdit,
			} {
				gen++
				files := p.Edit(target, kind, gen)
				if _, err := cut.Build(files); err != nil {
					b.Fatal(err)
				}
				cutN := cut.Stats.Compiled
				if _, err := mk.Build(files); err != nil {
					b.Fatal(err)
				}
				makeN := mk.Stats.Compiled
				rows = append(rows, row{target, kind, len(p.DownstreamCone(target)), makeN, cutN})
				// Restore pristine state.
				if _, err := cut.Build(p.Files); err != nil {
					b.Fatal(err)
				}
				if _, err := mk.Build(p.Files); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	var saved float64
	var totalMake float64
	for _, r := range rows {
		saved += float64(r.makeN - r.cutN)
		totalMake += float64(r.makeN)
	}
	b.ReportMetric(100*saved/totalMake, "recompiles_saved_%")
	printTable("E5", func(w io.Writer) {
		fmt.Fprintf(w, "\nE5: recompiles per edit, %d-unit layered DAG (cutoff vs make)\n", cfg.Units)
		fmt.Fprintf(w, "  %-8s %-16s %6s %6s %8s\n", "unit", "edit", "cone", "make", "cutoff")
		for _, r := range rows {
			fmt.Fprintf(w, "  u%03d    %-16s %6d %6d %8d\n",
				r.target, r.kind.String(), r.cone, r.makeN, r.cutN)
		}
		fmt.Fprintf(w, "  paper's claim: implementation edits stop at the edited unit under cutoff;\n")
		fmt.Fprintf(w, "  make always rebuilds the downstream cone.\n")
	})
}

// ---------------------------------------------------------------------
// E6 — §4: stamp-keyed sharing in pickles vs naive tree copying
// ---------------------------------------------------------------------

// buildSharedChain compiles a unit chain where each structure contains
// the previous one twice — a DAG whose tree unfolding is exponential.
func buildSharedChain(b *testing.B, s *compiler.Session, depth int) *compiler.Unit {
	b.Helper()
	src := "structure S0 = struct val v = 0 end\n"
	for i := 1; i <= depth; i++ {
		src += fmt.Sprintf("structure S%d = struct structure L = S%d structure R = S%d end\n",
			i, i-1, i-1)
	}
	u, err := s.Compile(fmt.Sprintf("chain%d", depth), src)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// naiveTreeNodes counts the nodes a sharing-blind tree copy would
// write, capped to avoid actually exploding.
func naiveTreeNodes(e *env.Env, depth int, cap_ int) int {
	if e == nil || depth > 64 {
		return 1
	}
	n := 1
	for _, ent := range e.Order() {
		if n > cap_ {
			return n
		}
		if ent.NS == env.NSStr {
			sb, _ := e.LocalStr(ent.Name)
			n += 1 + naiveTreeNodes(sb.Str.Env, depth+1, cap_-n)
		} else {
			n++
		}
	}
	return n
}

func BenchmarkE6PickleSharing(b *testing.B) {
	type row struct {
		depth     int
		dagBytes  int
		treeNodes int
	}
	var rows []row
	var lastBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, depth := range []int{2, 4, 8, 12, 16} {
			s := newSession(b)
			u := buildSharedChain(b, s, depth)
			data, err := binfile.Encode(u)
			if err != nil {
				b.Fatal(err)
			}
			lastBytes = len(data)
			rows = append(rows, row{depth, len(data), naiveTreeNodes(u.Env, 0, 1<<22)})
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lastBytes), "bytes@depth16")
	printTable("E6", func(w io.Writer) {
		fmt.Fprintf(w, "\nE6 (§4): pickle size with stamp-keyed sharing vs naive tree copy\n")
		fmt.Fprintf(w, "  %-7s %14s %18s\n", "depth", "DAG pickle (B)", "tree copy (nodes)")
		for _, r := range rows {
			tree := fmt.Sprintf("%d", r.treeNodes)
			if r.treeNodes > 1<<22 {
				tree = ">= 2^22 (capped)"
			}
			fmt.Fprintf(w, "  %-7d %14d %18s\n", r.depth, r.dagBytes, tree)
		}
		fmt.Fprintf(w, "  DAG pickling is linear in depth; the tree unfolding doubles per level.\n")
	})
}

// ---------------------------------------------------------------------
// E7 — §4: representation census (paper: 36 datatypes / 115 variants /
// 193 record types in the pickled statenv representation)
// ---------------------------------------------------------------------

func BenchmarkE7TypeCensus(b *testing.B) {
	var structs, ifaces, fields int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structs, ifaces, fields = 0, 0, 0
		fset := token.NewFileSet()
		for _, dir := range []string{
			"internal/ast", "internal/types", "internal/env", "internal/lambda",
			"internal/stamps",
		} {
			pkgs, err := goparser.ParseDir(fset, dir, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, file := range pkg.Files {
					ast.Inspect(file, func(n ast.Node) bool {
						ts, ok := n.(*ast.TypeSpec)
						if !ok {
							return true
						}
						switch t := ts.Type.(type) {
						case *ast.StructType:
							structs++
							fields += t.Fields.NumFields()
						case *ast.InterfaceType:
							ifaces++
						}
						return true
					})
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(structs), "variants")
	b.ReportMetric(float64(ifaces), "sum_types")
	printTable("E7", func(w io.Writer) {
		fmt.Fprintf(w, "\nE7 (§4): census of the pickled representation\n")
		fmt.Fprintf(w, "  %-34s %10s %10s\n", "", "paper", "ours")
		fmt.Fprintf(w, "  %-34s %10d %10d\n", "sum types (SML datatypes / Go ifaces)", 36, ifaces)
		fmt.Fprintf(w, "  %-34s %10d %10d\n", "variants (constructors / structs)", 115, structs)
		fmt.Fprintf(w, "  %-34s %10d %10d\n", "record shapes (fields as proxy)", 193, fields)
		fmt.Fprintf(w, "  same order of magnitude: dozens of node kinds, hence a generic pickler.\n")
	})
}

// ---------------------------------------------------------------------
// E8 — §5/footnote 6: type-safe linkage rejects stale bins
// ---------------------------------------------------------------------

func BenchmarkE8TypeSafeLinkage(b *testing.B) {
	// Build the stale-bin scenario once.
	s1 := newSession(b)
	if _, err := s1.Run("provider", "val shared = 10"); err != nil {
		b.Fatal(err)
	}
	client, err := s1.Run("client", "val out = shared + 1")
	if err != nil {
		b.Fatal(err)
	}
	clientBin, err := binfile.Encode(client)
	if err != nil {
		b.Fatal(err)
	}

	s2 := newSession(b)
	prov2, err := s2.Run("provider", "val shared = \"ten\"") // interface changed
	if err != nil {
		b.Fatal(err)
	}
	stale, err := binfile.Read(clientBin, s2.Index)
	if err != nil {
		b.Fatal(err)
	}

	var rejected int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := linker.Verify([]*compiler.Unit{prov2, stale}, s2.Dyn)
		if len(errs) > 0 {
			rejected++
		}
	}
	b.StopTimer()
	if rejected != b.N {
		b.Fatalf("stale bin linked %d/%d times", b.N-rejected, b.N)
	}
	b.ReportMetric(1, "rejected")
	printTable("E8", func(w io.Writer) {
		fmt.Fprintf(w, "\nE8 (§5): client bin compiled against {shared : int} cannot link after\n")
		fmt.Fprintf(w, "  the provider recompiles to {shared : string} — the makefile bug is impossible.\n")
	})
}

// ---------------------------------------------------------------------
// E9 — IRM at compiler scale: cold / null / leaf edit / root edit
// ---------------------------------------------------------------------

func BenchmarkE9IRMScale(b *testing.B) {
	p := workload.Generate(workload.CompilerScale())
	scenarios := []struct {
		name  string
		files func(gen int) []core.File
	}{
		{"cold", func(int) []core.File { return p.Files }},
		{"null", func(int) []core.File { return p.Files }},
		{"leaf-impl-edit", func(gen int) []core.File {
			return p.Edit(len(p.Files)-1, workload.ImplEdit, gen)
		}},
		{"base-impl-edit", func(gen int) []core.File {
			return p.Edit(0, workload.ImplEdit, gen)
		}},
		{"base-interface-edit", func(gen int) []core.File {
			return p.Edit(0, workload.InterfaceEdit, gen)
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := core.NewManager()
				if sc.name != "cold" {
					if _, err := m.Build(p.Files); err != nil {
						b.Fatal(err)
					}
				}
				files := sc.files(i + 1)
				b.StartTimer()
				if _, err := m.Build(files); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(m.Stats.Compiled), "recompiled")
				b.ReportMetric(float64(m.Stats.Loaded), "loaded")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Corruption recovery: cost of detecting, quarantining, and
// recompiling k damaged bin files out of a ~40-unit cached project.
// ---------------------------------------------------------------------

func BenchmarkCorruptionRecovery(b *testing.B) {
	cfg := workload.Config{
		Shape: workload.Layered, Units: 40, LinesPerUnit: 30,
		FunsPerUnit: 3, FanIn: 2, LayerWidth: 5, Seed: 11,
	}
	p := workload.Generate(cfg)
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := core.NewDirStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				cold := core.NewManager()
				cold.Store = store
				if _, err := cold.Build(p.Files); err != nil {
					b.Fatal(err)
				}
				if _, err := workload.CorruptStore(store.Dir, k, workload.FlipBin, int64(i)); err != nil {
					b.Fatal(err)
				}
				m := core.NewManager()
				m.Store = store
				b.StartTimer()
				if _, err := m.Build(p.Files); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if m.Stats.Recovered != k {
					b.Fatalf("recovered %d entries, want %d", m.Stats.Recovered, k)
				}
				b.ReportMetric(float64(m.Stats.Recovered), "recovered")
				b.ReportMetric(float64(m.Stats.Loaded), "loaded")
			}
		})
	}
}

// ---------------------------------------------------------------------
// Ablation: alpha conversion of provisional stamps before hashing
// ---------------------------------------------------------------------

func BenchmarkAblationAlphaConv(b *testing.B) {
	// Two sources with IDENTICAL interfaces but different internal
	// stamp allocation (the second declares a hidden local datatype
	// first, shifting every later provisional stamp). Alpha conversion
	// makes the interface hashes agree; raw stamp indices leak the
	// shift and break cutoff.
	src1 := `
		datatype t = A | B of int
		structure S = struct val x = 1 fun f (y : int) = y end
	`
	src2 := "local datatype junk = J of int in end\n" + src1
	s := newSession(b)
	hash := func(src string, raw bool) pid.Pid {
		decs, perrs := parser.Parse(src)
		if len(perrs) > 0 {
			b.Fatal(perrs[0])
		}
		res, errs := elab.ElabUnit(decs, s.Context)
		if len(errs) > 0 {
			b.Fatal(errs[0])
		}
		pk := pickle.NewPickler(pid.Zero)
		pk.SetRawStamps(raw)
		pk.Env(res.Env)
		if pk.Err() != nil {
			b.Fatal(pk.Err())
		}
		h := pid.NewHasher()
		h.Write(pk.Bytes())
		return h.Sum()
	}
	var alphaEq, rawEq bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alphaEq = hash(src1, false) == hash(src2, false)
		rawEq = hash(src1, true) == hash(src2, true)
	}
	b.StopTimer()
	if !alphaEq {
		b.Fatal("alpha-converted hashes differ for identical interfaces")
	}
	if rawEq {
		b.Fatal("raw-stamp hashes agree — ablation inconclusive")
	}
	b.ReportMetric(1, "alpha_stable")
	b.ReportMetric(0, "raw_stable")
	printTable("ablation-alpha", func(w io.Writer) {
		fmt.Fprintf(w, "\nAblation (§5): without alpha-converting provisional stamps, recompiling an\n")
		fmt.Fprintf(w, "  unchanged interface yields a different hash — cutoff would never fire.\n")
	})
}

// ---------------------------------------------------------------------
// Ablation: indexed vs linear context lookup during rehydration
// ---------------------------------------------------------------------

func BenchmarkAblationContextLookup(b *testing.B) {
	// §6: the paper attributes most of its 20-second overhead to
	// "linear searches through lists of previously seen nodes" and
	// expects substantial reduction from better structures. This
	// ablation compares the real stamp index (hash map, what our
	// rehydrater uses) against that linear scan, at the same workload:
	// a context of N stamped objects and N stub resolutions — the load
	// of reloading a large project.
	sizes := []int{100, 1000, 10000}
	for _, n := range sizes {
		n := n
		keys := make([]pid.Pid, n)
		for i := range keys {
			keys[i] = pid.HashString(fmt.Sprintf("unit-%d", i))
		}
		b.Run(fmt.Sprintf("indexed-%d", n), func(b *testing.B) {
			idx := make(map[pid.Pid]int, n)
			for i, k := range keys {
				idx[k] = i
			}
			b.ResetTimer()
			for bi := 0; bi < b.N; bi++ {
				for l := 0; l < n; l++ {
					if _, ok := idx[keys[(l*37)%n]]; !ok {
						b.Fatal("missing")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("linear-%d", n), func(b *testing.B) {
			b.ResetTimer()
			for bi := 0; bi < b.N; bi++ {
				for l := 0; l < n; l++ {
					want := keys[(l*37)%n]
					found := false
					for _, k := range keys {
						if k == want {
							found = true
							break
						}
					}
					if !found {
						b.Fatal("missing")
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Supplemental: interface-hash cost scales linearly with interface size
// ---------------------------------------------------------------------

func BenchmarkHashScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		n := n
		b.Run(fmt.Sprintf("exports-%d", n), func(b *testing.B) {
			s := newSession(b)
			src := ""
			for i := 0; i < n; i++ {
				src += fmt.Sprintf("val v%d = %d\n", i, i)
			}
			u, err := s.Compile("wide", src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := compiler.HashInterface("wide", u.Env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks: the pipeline stages
// ---------------------------------------------------------------------

func BenchmarkPipelineParse(b *testing.B) {
	src := workload.Generate(workload.Small()).Files[5].Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := parser.Parse(src); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
}

func BenchmarkPipelineCompile(b *testing.B) {
	s := newSession(b)
	src := workload.Generate(workload.Small()).Files[0].Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Compile("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineHash(b *testing.B) {
	s := newSession(b)
	u, err := s.Compile("bench", figure1Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compiler.HashInterface("bench", u.Env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinePickle(b *testing.B) {
	s := newSession(b)
	u, err := s.Compile("bench", figure1Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binfile.Encode(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRehydrate(b *testing.B) {
	s := newSession(b)
	u, err := s.Run("bench", figure1Source)
	if err != nil {
		b.Fatal(err)
	}
	data, err := binfile.Encode(u)
	if err != nil {
		b.Fatal(err)
	}
	s2 := newSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binfile.Read(data, s2.Index); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCold is the end-to-end figure the per-stage benchmarks
// above roll up to: a cold Manager.Build of a mid-size layered project
// into a fresh memory store at the default Jobs — scan (hash, parse on
// Jobs lanes), order, and the scheduler's elaborate/hash/pickle and
// commit. It is in benchgate's gated set with PipelineParse and
// PipelineCompile, so a >10% slower cold build fails CI even when no
// single stage benchmark moves that much.
func BenchmarkBuildCold(b *testing.B) {
	p := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 60, LinesPerUnit: 120, FunsPerUnit: 6,
		FanIn: 3, LayerWidth: 8, Seed: 13,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewManager()
		if _, err := m.Build(p.Files); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildNull is the warm counterpart of BuildCold: a null
// Manager.Build of the same project against a memory store primed by
// one cold build, with a fresh EnvCache every iteration, as a new
// `irm build` process over an up-to-date store runs it. Nothing
// compiles; the scan's store loads, bin rehydration (binfile.ReadCached:
// env, term and code section) and the committer's execution are the
// work. It is in benchgate's gated set.
func BenchmarkBuildNull(b *testing.B) {
	p := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 60, LinesPerUnit: 120, FunsPerUnit: 6,
		FanIn: 3, LayerWidth: 8, Seed: 13,
	})
	store := core.NewMemStore()
	if _, err := (&core.Manager{Store: store}).Build(p.Files); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &core.Manager{Store: store, EnvCache: pickle.NewEnvCache(0)}
		if _, err := m.Build(p.Files); err != nil {
			b.Fatal(err)
		}
		if m.Stats.Compiled != 0 {
			b.Fatalf("null build compiled %d units", m.Stats.Compiled)
		}
	}
}

// BenchmarkBuildEdit is the watch/daemon path: one Manager.Build per
// iteration after one edit of a seeded workload.EditDriver stream, on
// the `irm bench` default project (60 units × 30 lines) with a memory
// store primed by a cold build and one EnvCache shared by every build,
// as a long-lived `irm watch` or `irm daemon` process runs it. Each
// edit replaces the unit's previous one, so the project keeps its size.
// The per-build fixed costs — session fork, scan, rehydration of the
// unchanged units — and the edited units' recompiles are the work. It
// is in benchgate's gated set.
func BenchmarkBuildEdit(b *testing.B) {
	p := workload.Generate(workload.Config{
		Shape: workload.Layered, Units: 60, LinesPerUnit: 30, FunsPerUnit: 4,
		FanIn: 3, LayerWidth: 6, Seed: 1,
	})
	store := core.NewMemStore()
	cache := pickle.NewEnvCache(0)
	build := func(files []core.File) {
		m := core.NewManager()
		m.Store = store
		m.EnvCache = cache
		if _, err := m.Build(files); err != nil {
			b.Fatal(err)
		}
	}
	build(p.Files)
	files := append([]core.File(nil), p.Files...)
	drv := workload.NewEditDriver("", len(files), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := drv.Plan()
		files[e.Unit].Source = workload.ApplyEdit(p.Files[e.Unit].Source, e.Unit, e.Kind, e.Seq)
		build(files)
	}
}

// ---------------------------------------------------------------------
// Compiled-execution engine (DESIGN.md §4j): hot apply and unit
// execution on both engines. These three are in benchgate's gated set
// (scripts/benchgate), so a PR that regresses the compiled engine's
// apply or exec time fails CI.
// ---------------------------------------------------------------------

func newSessionOn(b *testing.B, engine interp.Engine) *compiler.Session {
	b.Helper()
	var sink bytes.Buffer
	s, err := compiler.NewSessionWith(&sink, engine)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// applyHotSource is apply-dominated: fib 20 is ~10k two-argument-free
// applications per execution, so the frame/slot machinery is the whole
// cost and the tree-vs-closure delta is the engine's headline number.
const applyHotSource = `
fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)
val r = fib 20
`

func BenchmarkApplyHot(b *testing.B) {
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineClosure} {
		eng := eng
		b.Run(eng.String(), func(b *testing.B) {
			s := newSessionOn(b, eng)
			u, err := s.Compile("bench", applyHotSource)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dyn := s.Dyn.Copy()
				if err := compiler.Execute(s.Machine, u, dyn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecCold measures the compile-on-demand path: the unit
// arrives without a compiled form (a V1 bin, or a hand-built unit), so
// every execution pays slot resolution before running.
func BenchmarkExecCold(b *testing.B) {
	s := newSession(b)
	u, err := s.Compile("bench", applyHotSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Prog = nil
		dyn := s.Dyn.Copy()
		if err := compiler.Execute(s.Machine, u, dyn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecWarm measures the steady state: the compiled form is
// already on the unit (fresh compile or V2 bin load), so execution is
// pure closure running.
func BenchmarkExecWarm(b *testing.B) {
	s := newSession(b)
	u, err := s.Compile("bench", applyHotSource)
	if err != nil {
		b.Fatal(err)
	}
	if u.Prog == nil {
		b.Fatal("compile left no program")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dyn := s.Dyn.Copy()
		if err := compiler.Execute(s.Machine, u, dyn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineExecute(b *testing.B) {
	s := newSession(b)
	u, err := s.Compile("bench", "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval r = fib 15")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dyn := s.Dyn.Copy()
		if err := compiler.Execute(s.Machine, u, dyn); err != nil {
			b.Fatal(err)
		}
	}
}
