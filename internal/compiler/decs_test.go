package compiler_test

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/basis"
	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/depend"
	"repro/internal/env"
	"repro/internal/parser"
	"repro/internal/workload"
)

// sameUnit compiles one unit both ways against ctx — from source, and
// from the syntax the dependency scan produced (depend.Analyze, whose
// FromDecs has already walked it) — and fails unless the two units
// have an identical intrinsic pid, bin bytes and code section, and the
// scanned syntax is still exactly what the parser built. It returns
// the unit compiled from source.
func sameUnit(t *testing.T, label, name, src string, ctx *env.Env) *compiler.Unit {
	t.Helper()
	info, err := depend.Analyze(name, src)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := compiler.Compile(name, src, ctx)
	if err != nil {
		t.Fatalf("%s: Compile: %v", label, err)
	}
	got, err := compiler.CompileDecs(name, info.Decs, ctx)
	if err != nil {
		t.Fatalf("%s: CompileDecs: %v", label, err)
	}
	if got.StatPid != want.StatPid {
		t.Errorf("%s: CompileDecs pid %s, Compile %s", label, got.StatPid, want.StatPid)
	}
	if !bytes.Equal(got.CodeBytes, want.CodeBytes) {
		t.Errorf("%s: code sections differ", label)
	}
	gotBin, err := binfile.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	wantBin, err := binfile.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBin, wantBin) {
		t.Errorf("%s: bin files differ", label)
	}
	if fresh, _ := parser.Parse(src); !reflect.DeepEqual(info.Decs, fresh) {
		t.Errorf("%s: elaboration mutated the scanned syntax", label)
	}
	return want
}

// TestCompileDecsMatchesCompile runs sameUnit over every unit of the
// golden corpus, in dependency order in one session per project, and
// over the prelude, whose syntax is the widest the repo has. The IRM
// hands one tree to the scan and then to the compiler, so both the
// byte-identity and the untouched syntax matter.
func TestCompileDecsMatchesCompile(t *testing.T) {
	sameUnit(t, "$prelude", "$prelude", compiler.PreludeSource, basis.PrimEnv())

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
			u := sameUnit(t, pname+"/"+info.Name, info.Name, sources[info.Name], s.Context)
			if err := compiler.Execute(s.Machine, u, s.Dyn); err != nil {
				t.Fatal(err)
			}
			s.Accept(u)
		}
	}
}
