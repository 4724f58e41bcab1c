package interp

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/lambda"
)

// lazyTerm is a unit-shaped term whose top level creates two closures
// and calls neither:
//
//	fn imports => let k = 7 in
//	  fix f x = x + k
//	  and g y = f (y * 2)
//	  in {f, g}
//
// g's body calls f, and f's reads k from the root frame (depth delta 1).
func lazyTerm() *lambda.Fn {
	var gen lambda.Gen
	imports, k, f, g, x, y := gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh(), gen.Fresh()
	v := func(lv lambda.LVar) lambda.Exp { return &lambda.Var{LV: lv} }
	return &lambda.Fn{Param: imports, Body: &lambda.Let{
		LV: k, Bind: lint(7),
		Body: &lambda.Fix{
			Names: []lambda.LVar{f, g},
			Fns: []*lambda.Fn{
				{Param: x, Body: &lambda.Prim{Op: "add", Args: []lambda.Exp{v(x), v(k)}}},
				{Param: y, Body: &lambda.App{Fn: v(f), Arg: &lambda.Prim{Op: "mul", Args: []lambda.Exp{v(y), lint(2)}}}},
			},
			Body: &lambda.Record{Fields: []lambda.Exp{v(f), v(g)}},
		},
	}}
}

// loadLazy compiles lazyTerm and loads it back from its code section.
func loadLazy(t *testing.T) (*lambda.Fn, []byte, *CompiledFn) {
	t.Helper()
	term := lazyTerm()
	_, section, err := CompileFn(term)
	if err != nil {
		t.Fatal(err)
	}
	root, err := LoadFn(term, section)
	if err != nil {
		t.Fatal(err)
	}
	return term, section, root
}

// applyRoot runs the unit's top level on m, returning its {f, g}.
func applyRoot(t testing.TB, m *Machine, root *CompiledFn) RecordV {
	v, err := m.Apply(&CompiledClosure{Fn: root}, Unit())
	if err != nil {
		t.Error(err)
		return nil
	}
	return v.(RecordV)
}

// TestBodiesBuiltOnFirstCall: loading builds no closure tree, running
// the top level builds only the root's, and applying g builds g's body
// and then f's.
func TestBodiesBuiltOnFirstCall(t *testing.T) {
	_, _, root := loadLazy(t)
	fns := root.tab.fns
	if len(fns) != 3 {
		t.Fatalf("%d functions, want 3", len(fns))
	}
	built := func() [3]bool {
		var b [3]bool
		for i, f := range fns {
			b[i] = f.body.Load() != nil
		}
		return b
	}
	if got := built(); got != [3]bool{} {
		t.Fatalf("after load: built %v, want none", got)
	}
	m := NewMachine()
	rec := applyRoot(t, m, root)
	if got := built(); got != [3]bool{true, false, false} {
		t.Fatalf("after the top level: built %v, want only the root", got)
	}
	v, err := m.Apply(rec[1], IntV(5))
	if err != nil || v != IntV(17) {
		t.Fatalf("g 5 = %v, %v; want 17", v, err)
	}
	if got := built(); got != [3]bool{true, true, true} {
		t.Fatalf("after g 5: built %v, want all", got)
	}
}

// coordOffsets lists the byte offset of every (delta, slot) pair in
// section[start:end].
func coordOffsets(t *testing.T, section []byte, start, end int) []int {
	t.Helper()
	var offs []int
	for p := start; p < end; {
		offs = append(offs, p)
		for i := 0; i < 2; i++ {
			_, n := binary.Uvarint(section[p:])
			if n != 1 {
				t.Fatalf("coordinate at %d is not one byte wide", p)
			}
			p += n
		}
	}
	return offs
}

// TestForgedCoordinateInUncalledBodyRejectedAtLoad: every coordinate
// inside f's and g's bodies — which the top level never calls — is
// validated by LoadFn itself. A slot past its frame's width or a depth
// delta past the open frames fails the load; nothing waits for a call.
func TestForgedCoordinateInUncalledBodyRejectedAtLoad(t *testing.T) {
	term, section, root := loadLazy(t)
	nested := 0
	for _, f := range root.tab.fns[1:] {
		for _, off := range coordOffsets(t, section, int(f.start), int(f.end)) {
			nested++
			for _, forge := range []struct {
				name string
				at   int
			}{{"slot past frame width", off + 1}, {"delta past open frames", off}} {
				bad := append([]byte(nil), section...)
				bad[forge.at] = 0x7f
				if _, err := LoadFn(term, bad); err == nil {
					t.Errorf("fn %d: %s at byte %d accepted at load", f.ID, forge.name, forge.at)
				}
			}
		}
	}
	if nested == 0 {
		t.Fatal("no coordinates inside nested bodies")
	}
}

// TestConcurrentFirstCalls: two machines run the top level of one
// loaded unit and apply its functions at the same time, so both race
// to build the same bodies. Run under -race.
func TestConcurrentFirstCalls(t *testing.T) {
	for round := 0; round < 20; round++ {
		_, _, root := loadLazy(t)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := NewMachine()
				<-start
				rec := applyRoot(t, m, root)
				if rec == nil {
					return
				}
				for y := int64(0); y < 50; y++ {
					v, err := m.Apply(rec[1], IntV(y))
					if err != nil || v != IntV(2*y+7) {
						t.Errorf("g %d = %v, %v; want %d", y, v, err, 2*y+7)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
