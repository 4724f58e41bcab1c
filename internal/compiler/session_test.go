package compiler

// Fork isolation: every session is a fork of its engine's per-process
// prelude template, so nothing one fork does may reach another fork or
// the template, and the basis exceptions must behave in a fork exactly
// as in the session that ran the prelude.

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/interp"
)

var engines = []interp.Engine{interp.EngineClosure, interp.EngineTree}

func fork(t *testing.T, engine interp.Engine) (*Session, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	s, err := NewSessionWith(&out, engine)
	if err != nil {
		t.Fatalf("NewSessionWith(%s): %v", engine, err)
	}
	return s, &out
}

// TestForkShadowingStaysLocal: rebinding prelude names in one fork
// leaves the other fork's prelude untouched.
func TestForkShadowingStaysLocal(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			a, _ := fork(t, eng)
			b, out := fork(t, eng)
			run(t, a, "shadow", "val hd = 5\nexception Empty\nval x = hd + 1")
			if got := valueOf(t, a, "x"); got != interp.IntV(6) {
				t.Errorf("fork a: x = %s, want 6", interp.String(got))
			}
			run(t, b, "use", `val y = hd [1, 2]
val z = (hd [] handle Empty => 7)
val _ = print (Int.toString (y + z))`)
			if got := out.String(); got != "8" {
				t.Errorf("fork b printed %q, want \"8\"", got)
			}
		})
	}
}

// TestForkStateDoesNotCross: Units appends, Dyn binds and Index
// additions stay in the fork that made them.
func TestForkStateDoesNotCross(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			a, _ := fork(t, eng)
			b, _ := fork(t, eng)
			units, dyn, ix := len(b.Units), b.Dyn.Len(), b.Index.Len()
			run(t, a, "a1", "datatype t = A | B\nstructure S = struct val v = A end")
			run(t, b, "b1", "val w = 1")
			if len(a.Units) != units+1 || len(b.Units) != units+1 {
				t.Fatalf("units: a %d, b %d, want %d each", len(a.Units), len(b.Units), units+1)
			}
			if a.Units[units].Name != "a1" || b.Units[units].Name != "b1" {
				t.Errorf("appends crossed: a has %s, b has %s", a.Units[units].Name, b.Units[units].Name)
			}
			if b.Dyn.Len() != dyn+1 {
				t.Errorf("fork b's Dyn has %d bindings, want %d", b.Dyn.Len(), dyn+1)
			}
			if got := b.Index.Len(); got != ix {
				t.Errorf("fork b's Index grew from %d to %d by a val-only unit and a's datatype", ix, got)
			}
			if a.Index.Len() <= ix {
				t.Errorf("fork a's Index did not grow (%d) after a datatype and a structure", a.Index.Len())
			}
			c, _ := fork(t, eng)
			if len(c.Units) != units || c.Dyn.Len() != dyn || c.Index.Len() != ix {
				t.Errorf("template changed: a new fork has %d units, %d bindings, %d indexed; want %d, %d, %d",
					len(c.Units), c.Dyn.Len(), c.Index.Len(), units, dyn, ix)
			}
			if _, ok := c.Context.LookupVal("w"); ok {
				t.Error("a new fork sees another fork's binding")
			}
		})
	}
}

// TestForkBasisExceptions: a fork raises exactly the exception tags the
// shared prelude code binds, so basis handlers catch them.
func TestForkBasisExceptions(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			s, out := fork(t, eng)
			run(t, s, "exn", `val a = (1 div 0) handle Div => 7
val b = hd [] handle Empty => 7
val c = (raise Fail "x") handle Fail s => s
val _ = print (Int.toString a ^ " " ^ Int.toString b ^ " " ^ c)`)
			if got := out.String(); got != "7 7 x" {
				t.Errorf("printed %q, want \"7 7 x\"", got)
			}
			if _, err := s.Run("boom", "val _ = 1 div 0"); err == nil {
				t.Error("uncaught Div did not fail the unit")
			} else if want := "uncaught exception Div"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Errorf("error %q lacks %q", err, want)
			}
		})
	}
}

// TestForkMachineIsFresh: each fork gets its own machine, writing to
// its own stdout (os.Stdout when nil) and counting only its own steps.
func TestForkMachineIsFresh(t *testing.T) {
	a, outA := fork(t, interp.EngineClosure)
	b, outB := fork(t, interp.EngineClosure)
	if a.Machine == b.Machine {
		t.Fatal("forks share a machine")
	}
	if a.Machine.Steps != 0 {
		t.Errorf("a fresh fork has %d steps, want 0 (the prelude ran on the template)", a.Machine.Steps)
	}
	run(t, a, "p", `val _ = print "a"`)
	if outA.String() != "a" || outB.Len() != 0 {
		t.Errorf("outputs: a %q, b %q", outA, outB)
	}
	if b.Machine.Steps != 0 {
		t.Errorf("fork b counted %d steps of fork a's run", b.Machine.Steps)
	}
	c, err := NewSessionWith(nil, interp.EngineTree)
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine.Stdout != os.Stdout || c.Machine.Engine != interp.EngineTree {
		t.Errorf("nil stdout fork: writer %v, engine %s", c.Machine.Stdout, c.Machine.Engine)
	}
}

// TestConcurrentForks: forks of one template compile and run on
// several goroutines at once (run under -race).
func TestConcurrentForks(t *testing.T) {
	const n = 6
	var wg sync.WaitGroup
	outs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			s, err := NewSessionWith(&out, engines[i%2])
			if err == nil {
				_, err = s.Run("u", fmt.Sprintf(`val hd = %d
val _ = print (Int.toString (hd + length (rev [1, 2, 3])) ^ (String.concat ["/", "ok"]))`, i))
			}
			outs[i], errs[i] = out.String(), err
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("%d/ok", i+3); errs[i] != nil || outs[i] != want {
			t.Errorf("fork %d: printed %q, err %v; want %q", i, outs[i], errs[i], want)
		}
	}
}
