package interp_test

import (
	"io"
	"sort"
	"testing"

	"repro/internal/basis"
	"repro/internal/compiler"
	"repro/internal/depend"
	"repro/internal/interp"
	"repro/internal/lambda"
	"repro/internal/workload"
)

// checkDeferred forces every deferred body of one unit's code, from
// CompileFn and from LoadFn over its code section, and fails unless
// each function matches the eager IndexFns walk on frame width, escape
// flag, ID and parent.
func checkDeferred(t *testing.T, label string, code *lambda.Fn, section []byte) {
	t.Helper()
	refRoot, ref, err := interp.IndexFns(code)
	if err != nil {
		t.Fatalf("%s: IndexFns: %v", label, err)
	}
	compiled, _, err := interp.CompileFn(code)
	if err != nil {
		t.Fatalf("%s: CompileFn: %v", label, err)
	}
	loaded, err := interp.LoadFn(code, section)
	if err != nil {
		t.Fatalf("%s: LoadFn: %v", label, err)
	}
	for _, side := range []struct {
		name string
		root *interp.CompiledFn
	}{{"CompileFn", compiled}, {"LoadFn", loaded}} {
		fns := interp.Funcs(side.root)
		if len(fns) != len(ref) || len(fns) != refRoot.NumFuncs() {
			t.Fatalf("%s/%s: %d functions, IndexFns %d", label, side.name, len(fns), len(ref))
		}
		for i, f := range fns {
			if f.ID != int32(i) {
				t.Fatalf("%s/%s: function %d has ID %d", label, side.name, i, f.ID)
			}
			if f.Built() {
				t.Errorf("%s/%s: fn %d built before its first call", label, side.name, i)
			}
			if err := f.Force(); err != nil {
				t.Errorf("%s/%s: fn %d: %v", label, side.name, i, err)
			}
			if !f.Built() {
				t.Errorf("%s/%s: fn %d not built by Force", label, side.name, i)
			}
			r := ref[f.Term()]
			if r == nil {
				t.Fatalf("%s/%s: fn %d has no IndexFns counterpart", label, side.name, i)
			}
			if f.NSlots != r.NSlots || f.Escapes() != r.Escapes() || f.ID != r.ID ||
				side.root.ParentOf(f.ID) != refRoot.ParentOf(r.ID) {
				t.Errorf("%s/%s: fn %d = {slots %d escapes %v id %d parent %d}, IndexFns {%d %v %d %d}",
					label, side.name, i, f.NSlots, f.Escapes(), f.ID, side.root.ParentOf(f.ID),
					r.NSlots, r.Escapes(), r.ID, refRoot.ParentOf(r.ID))
			}
		}
	}
}

// TestDeferredBodiesMatchEagerWalk runs checkDeferred over the prelude
// and every unit of the golden corpus, compiled in dependency order in
// one session per project.
func TestDeferredBodiesMatchEagerWalk(t *testing.T) {
	prelude, err := compiler.Compile("$prelude", compiler.PreludeSource, basis.PrimEnv())
	if err != nil {
		t.Fatal(err)
	}
	checkDeferred(t, "$prelude", prelude.Code, prelude.CodeBytes)

	corpus := workload.GoldenCorpus()
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, pname := range names {
		p := corpus[pname]
		infos := make([]*depend.Info, len(p.Files))
		sources := map[string]string{}
		for i, f := range p.Files {
			info, err := depend.Analyze(f.Name, f.Source)
			if err != nil {
				t.Fatal(err)
			}
			infos[i] = info
			sources[f.Name] = f.Source
		}
		order, err := depend.TopoSort(infos)
		if err != nil {
			t.Fatal(err)
		}
		s, err := compiler.NewSession(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range order {
			u, err := compiler.Compile(info.Name, sources[info.Name], s.Context)
			if err != nil {
				t.Fatal(err)
			}
			checkDeferred(t, pname+"/"+info.Name, u.Code, u.CodeBytes)
			if err := compiler.Execute(s.Machine, u, s.Dyn); err != nil {
				t.Fatal(err)
			}
			s.Accept(u)
		}
	}
}
