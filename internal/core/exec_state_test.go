// Execution shared-state coverage (DESIGN.md §4j): units that share a
// mutable cell (ref/array) must see the sequential interleaving at any
// -j, under -race, because every unit executes on the committer in
// commit order; a failing execution must leave identical traces at
// every width; and the session step budget must abort cumulatively at
// any width.
package core_test

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
)

// sharedRefFiles: a base unit exports a ref; four sibling writers
// mutate it with non-commuting operations; a reader prints it. None of
// the mutators depend on each other, so only commit-order execution —
// not the import DAG — forces the sequential order:
// ((((1*2)+3)*5)+7) = 32.
func sharedRefFiles() []core.File {
	return []core.File{
		{Name: "base.sml", Source: "structure Base = struct val r = ref 1 end"},
		{Name: "m1.sml", Source: "structure M1 = struct val _ = Base.r := !Base.r * 2 end"},
		{Name: "m2.sml", Source: "structure M2 = struct val _ = Base.r := !Base.r + 3 end"},
		{Name: "m3.sml", Source: "structure M3 = struct val _ = Base.r := !Base.r * 5 end"},
		{Name: "m4.sml", Source: "structure M4 = struct val _ = Base.r := !Base.r + 7 end"},
		{Name: "last.sml", Source: "structure Last = struct val _ = print (Int.toString (!Base.r)) end"},
	}
}

// sharedArrayFiles is sharedRefFiles with the cell an array slot: the
// same non-commuting updates through Array.update reach the same 32.
func sharedArrayFiles() []core.File {
	upd := func(op string) string {
		return "Array.update (Base.a, 0, Array.sub (Base.a, 0) " + op + ")"
	}
	return []core.File{
		{Name: "base.sml", Source: "structure Base = struct val a = Array.array (1, 1) end"},
		{Name: "m1.sml", Source: "structure M1 = struct val _ = " + upd("* 2") + " end"},
		{Name: "m2.sml", Source: "structure M2 = struct val _ = " + upd("+ 3") + " end"},
		{Name: "m3.sml", Source: "structure M3 = struct val _ = " + upd("* 5") + " end"},
		{Name: "m4.sml", Source: "structure M4 = struct val _ = " + upd("+ 7") + " end"},
		{Name: "last.sml", Source: "structure Last = struct val _ = print (Int.toString (Array.sub (Base.a, 0))) end"},
	}
}

// TestExecSharedRefSequentialOrder: sibling units sharing a ref or an
// array read and write it in commit order at every width — repeatedly,
// so a regression shows up as both nondeterministic output and (under
// -race) a data race on the cell.
func TestExecSharedRefSequentialOrder(t *testing.T) {
	inputs := []struct {
		name  string
		files []core.File
	}{
		{"ref", sharedRefFiles()},
		{"array", sharedArrayFiles()},
	}
	for _, in := range inputs {
		for _, jobs := range []int{1, 8} {
			for round := 0; round < 10; round++ {
				var out bytes.Buffer
				m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
					Stdout: &out, Jobs: jobs}
				if _, err := m.Build(in.files); err != nil {
					t.Fatalf("%s jobs=%d round %d: %v", in.name, jobs, round, err)
				}
				if got := out.String(); got != "32" {
					t.Fatalf("%s jobs=%d round %d: printed %q, want \"32\" (sequential order)",
						in.name, jobs, round, got)
				}
			}
		}
	}
}

// TestExecSharedRefThroughClosure: the mutable cell is never imported
// directly — the siblings reach it only through another unit's
// exported closures — so the order must hold for state reached through
// values, not just for imported cells.
func TestExecSharedRefThroughClosure(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val r = ref 0 end"},
		{Name: "b.sml", Source: "structure B = struct fun put x = A.r := x fun get () = !A.r end"},
		{Name: "w.sml", Source: "structure W = struct val _ = B.put 5 end"},
		{Name: "z.sml", Source: "structure Z = struct val _ = print (Int.toString (B.get ())) end"},
	}
	for _, jobs := range []int{1, 8} {
		for round := 0; round < 10; round++ {
			var out bytes.Buffer
			m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
				Stdout: &out, Jobs: jobs}
			if _, err := m.Build(files); err != nil {
				t.Fatalf("jobs=%d round %d: %v", jobs, round, err)
			}
			if got := out.String(); got != "5" {
				t.Fatalf("jobs=%d round %d: printed %q, want \"5\" (w before z)",
					jobs, round, got)
			}
		}
	}
}

// TestExecFailureSpeculationCounters: a unit failing at *execution*
// (uncaught Div) aborts the build at its commit; units compiled
// speculatively after it in commit order must leave no trace —
// identical explains, error, and deterministic counters at -j1/-j8.
func TestExecFailureSpeculationCounters(t *testing.T) {
	files := []core.File{
		{Name: "a.sml", Source: "structure A = struct val one = 1 end"},
		{Name: "boom.sml", Source: "structure Boom = struct val x = A.one div 0 end"},
		{Name: "i1.sml", Source: "structure I1 = struct val a = 10 end"},
		{Name: "i2.sml", Source: "structure I2 = struct val b = 20 end"},
	}
	type outcome struct {
		errText  string
		explains []string
		counters map[string]int64
	}
	run := func(jobs int) outcome {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Jobs: jobs}
		_, err := m.Build(files)
		if err == nil {
			t.Fatalf("jobs=%d: build with failing execution succeeded", jobs)
		}
		var units []string
		for _, e := range m.Explains {
			units = append(units, e.Unit)
		}
		// Keep only scheduling-invariant counters: drop wall-clock
		// timings and pool high-water marks.
		counters := map[string]int64{}
		for k, v := range m.Counters {
			if strings.Contains(k, "_ns") || strings.Contains(k, "parallelism") {
				continue
			}
			counters[k] = v
		}
		return outcome{errText: err.Error(), explains: units, counters: counters}
	}
	o1 := run(1)
	o8 := run(8)
	if !strings.Contains(o1.errText, "boom.sml") {
		t.Errorf("error does not name the failing unit: %q", o1.errText)
	}
	if o1.errText != o8.errText {
		t.Errorf("error differs: -j1 %q, -j8 %q", o1.errText, o8.errText)
	}
	if want := []string{"a.sml", "boom.sml"}; !reflect.DeepEqual(o1.explains, want) ||
		!reflect.DeepEqual(o8.explains, want) {
		t.Errorf("explains: -j1 %v, -j8 %v, want %v", o1.explains, o8.explains, want)
	}
	if !reflect.DeepEqual(o1.counters, o8.counters) {
		t.Errorf("counters differ after exec failure:\n-j1: %v\n-j8: %v", o1.counters, o8.counters)
	}
}

// TestExecStepBudgetCumulative pins the §4j budget contract: MaxSteps
// bounds the session cumulatively — the build fails at the unit whose
// execution pushes the total over — identically at every width, while
// a budget equal to the total passes.
func TestExecStepBudgetCumulative(t *testing.T) {
	files := []core.File{
		{Name: "s1.sml", Source: "fun f1 n = if n < 1 then 0 else f1 (n - 1)\nval a = f1 50"},
		{Name: "s2.sml", Source: "fun f2 n = if n < 1 then 0 else f2 (n - 1)\nval b = f2 50"},
		{Name: "s3.sml", Source: "fun f3 n = if n < 1 then 0 else f3 (n - 1)\nval c = f3 50"},
	}
	m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Jobs: 4}
	session, err := m.Build(files)
	if err != nil {
		t.Fatal(err)
	}
	total := session.Machine.Steps
	if total == 0 {
		t.Fatal("session executed zero steps")
	}

	var errs []string
	for _, jobs := range []int{1, 8} {
		m := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
			Stdout: io.Discard, Jobs: jobs, MaxSteps: total - 1}
		if _, err := m.Build(files); err == nil {
			t.Fatalf("jobs=%d: build under budget %d succeeded (total %d)", jobs, total-1, total)
		} else {
			if !strings.Contains(err.Error(), "step budget exceeded") {
				t.Fatalf("jobs=%d: unexpected error: %v", jobs, err)
			}
			errs = append(errs, err.Error())
		}
	}
	if errs[0] != errs[1] {
		t.Errorf("budget abort differs: -j1 %q, -j8 %q", errs[0], errs[1])
	}

	ok := &core.Manager{Policy: core.PolicyCutoff, Store: core.NewMemStore(),
		Stdout: io.Discard, Jobs: 8, MaxSteps: total}
	if _, err := ok.Build(files); err != nil {
		t.Errorf("build at exactly the required budget failed: %v", err)
	}
}

// TestSessionStepsAreBuildSteps pins what the budget counts: the build's
// session runs on a fresh machine forked from the prelude template, so
// after a build its step count is exactly the build's exec.steps, with
// none of the prelude's own steps — cold and warm, on both engines.
func TestSessionStepsAreBuildSteps(t *testing.T) {
	files := []core.File{
		{Name: "s1.sml", Source: "fun f1 n = if n < 1 then 0 else f1 (n - 1)\nval a = f1 50"},
		{Name: "s2.sml", Source: "val b = length (List.map (fn x => x + a) [1, 2, 3])"},
	}
	for _, eng := range []interp.Engine{interp.EngineClosure, interp.EngineTree} {
		store := core.NewMemStore()
		for _, phase := range []string{"cold", "warm"} {
			m := core.NewManager()
			m.Store = store
			m.Engine = eng
			session, err := m.Build(files)
			if err != nil {
				t.Fatalf("%s %s build: %v", eng, phase, err)
			}
			steps := m.Counters["exec.steps"]
			if steps == 0 || session.Machine.Steps != uint64(steps) {
				t.Errorf("%s %s: session machine counted %d steps, exec.steps %d",
					eng, phase, session.Machine.Steps, steps)
			}
		}
	}
}
