package interp

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lambda"
)

// evalOK evaluates e in an empty environment, failing on error.
func evalOK(t *testing.T, m *Machine, e lambda.Exp) Value {
	t.Helper()
	v, err := m.Eval(e, nil)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return v
}

func lint(n int64) lambda.Exp { return &lambda.Int{Val: n} }

func TestLiteralsAndRecords(t *testing.T) {
	m := NewMachine()
	v := evalOK(t, m, &lambda.Record{Fields: []lambda.Exp{
		lint(1), &lambda.Str{Val: "two"}, &lambda.Real{Val: 2.5},
	}})
	rec := v.(RecordV)
	if rec[0] != IntV(1) || rec[1] != StrV("two") || rec[2] != RealV(2.5) {
		t.Errorf("record = %s", String(v))
	}
	sel := evalOK(t, m, &lambda.Select{Idx: 1, Rec: &lambda.Record{
		Fields: []lambda.Exp{lint(1), lint(2)},
	}})
	if sel != IntV(2) {
		t.Errorf("select = %s", String(sel))
	}
}

func TestClosuresAndLet(t *testing.T) {
	m := NewMachine()
	var g lambda.Gen
	x := g.Fresh()
	y := g.Fresh()
	// let y = 10 in (fn x => x + y) 32
	e := &lambda.Let{
		LV: y, Bind: lint(10),
		Body: &lambda.App{
			Fn: &lambda.Fn{Param: x, Body: &lambda.Prim{
				Op: "add", Args: []lambda.Exp{&lambda.Var{LV: x}, &lambda.Var{LV: y}},
			}},
			Arg: lint(32),
		},
	}
	if v := evalOK(t, m, e); v != IntV(42) {
		t.Errorf("closure = %s", String(v))
	}
}

func TestFixRecursion(t *testing.T) {
	m := NewMachine()
	var g lambda.Gen
	fact := g.Fresh()
	n := g.Fresh()
	// fix fact n = if n = 0 then 1 else n * fact (n - 1)
	body := &lambda.If{
		Cond: &lambda.Prim{Op: "eq", Args: []lambda.Exp{&lambda.Var{LV: n}, lint(0)}},
		Then: lint(1),
		Else: &lambda.Prim{Op: "mul", Args: []lambda.Exp{
			&lambda.Var{LV: n},
			&lambda.App{Fn: &lambda.Var{LV: fact}, Arg: &lambda.Prim{
				Op: "sub", Args: []lambda.Exp{&lambda.Var{LV: n}, lint(1)},
			}},
		}},
	}
	e := &lambda.Fix{
		Names: []lambda.LVar{fact},
		Fns:   []*lambda.Fn{{Param: n, Body: body}},
		Body:  &lambda.App{Fn: &lambda.Var{LV: fact}, Arg: lint(10)},
	}
	if v := evalOK(t, m, e); v != IntV(3628800) {
		t.Errorf("fact 10 = %s", String(v))
	}
}

func TestArithPrims(t *testing.T) {
	m := NewMachine()
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"add", IntV(2), IntV(3), IntV(5)},
		{"add", RealV(1.5), RealV(2.5), RealV(4)},
		{"add", WordV(7), WordV(8), WordV(15)},
		{"sub", IntV(2), IntV(5), IntV(-3)},
		{"mul", IntV(6), IntV(7), IntV(42)},
		{"div", IntV(7), IntV(2), IntV(3)},
		{"div", IntV(-7), IntV(2), IntV(-4)}, // flooring division
		{"mod", IntV(-7), IntV(2), IntV(1)},  // sign follows divisor
		{"mod", IntV(7), IntV(-2), IntV(-1)},
		{"lt", IntV(1), IntV(2), Bool(true)},
		{"ge", StrV("b"), StrV("a"), Bool(true)},
		{"lt", CharV('a'), CharV('b'), Bool(true)},
		{"eq", IntV(3), IntV(3), Bool(true)},
		{"ne", StrV("x"), StrV("y"), Bool(true)},
	}
	for _, c := range cases {
		got := m.prim(c.op, []Value{c.a, c.b})
		if !Eq(got, c.want) {
			t.Errorf("%s(%s, %s) = %s, want %s", c.op, String(c.a), String(c.b),
				String(got), String(c.want))
		}
	}
}

func TestDivByZeroRaisesDiv(t *testing.T) {
	m := NewMachine()
	e := &lambda.Prim{Op: "div", Args: []lambda.Exp{lint(1), lint(0)}}
	_, err := m.Eval(e, nil)
	ue, ok := err.(*UncaughtError)
	if !ok || ue.Packet.Tag != TagDiv {
		t.Errorf("div by zero: %v", err)
	}
}

func TestOverflowRaises(t *testing.T) {
	m := NewMachine()
	e := &lambda.Prim{Op: "add", Args: []lambda.Exp{
		lint(1<<62 + (1<<62 - 1)), lint(1),
	}}
	_, err := m.Eval(e, nil)
	ue, ok := err.(*UncaughtError)
	if !ok || ue.Packet.Tag != TagOverflow {
		t.Errorf("overflow: %v", err)
	}
}

func TestStringPrims(t *testing.T) {
	m := NewMachine()
	if m.prim("concat", []Value{StrV("ab"), StrV("cd")}) != StrV("abcd") {
		t.Error("concat")
	}
	if m.prim("size", []Value{StrV("hello")}) != IntV(5) {
		t.Error("size")
	}
	if m.prim("ord", []Value{CharV('A')}) != IntV(65) {
		t.Error("ord")
	}
	if m.prim("chr", []Value{IntV(66)}) != CharV('B') {
		t.Error("chr")
	}
	sub := m.prim("substring", []Value{RecordV{StrV("hello"), IntV(1), IntV(3)}})
	if sub != StrV("ell") {
		t.Error("substring")
	}
	lst, _ := GoList(m.prim("explode", []Value{StrV("hi")}))
	if len(lst) != 2 || lst[0] != CharV('h') {
		t.Error("explode")
	}
	if m.prim("implode", []Value{List([]Value{CharV('o'), CharV('k')})}) != StrV("ok") {
		t.Error("implode")
	}
}

func TestIntToString(t *testing.T) {
	m := NewMachine()
	if m.prim("intToString", []Value{IntV(-42)}) != StrV("~42") {
		t.Error("negative rendering")
	}
}

func TestHandleCatchesAndRethrows(t *testing.T) {
	m := NewMachine()
	var g lambda.Gen
	p := g.Fresh()
	// (raise Div) handle p => 7
	e := &lambda.Handle{
		Body:    &lambda.Prim{Op: "raiseDiv"},
		Param:   p,
		Handler: lint(7),
	}
	if v := evalOK(t, m, e); v != IntV(7) {
		t.Errorf("handle = %s", String(v))
	}
	// Handler that re-raises propagates out.
	e2 := &lambda.Handle{
		Body:    &lambda.Prim{Op: "raiseDiv"},
		Param:   p,
		Handler: &lambda.Raise{Exp: &lambda.Var{LV: p}},
	}
	if _, err := m.Eval(e2, nil); err == nil {
		t.Error("re-raise swallowed")
	}
}

func TestExceptionTagsAreGenerative(t *testing.T) {
	m := NewMachine()
	v1 := evalOK(t, m, &lambda.NewExnTag{Name: "E"})
	v2 := evalOK(t, m, &lambda.NewExnTag{Name: "E"})
	if Eq(v1, v2) {
		t.Error("distinct tag allocations compare equal")
	}
	packet := &ExnV{Tag: v1.(*ExnTag)}
	if !Truth(m.prim("exnMatches", []Value{packet, v1})) {
		t.Error("tag does not match its own packet")
	}
	if Truth(m.prim("exnMatches", []Value{packet, v2})) {
		t.Error("foreign tag matched")
	}
}

func TestSwitches(t *testing.T) {
	m := NewMachine()
	sw := &lambda.Switch{
		Kind:  lambda.SwitchInt,
		Scrut: lint(5),
		Cases: []lambda.Case{
			{IntKey: 1, Body: lint(10)},
			{IntKey: 5, Body: lint(50)},
		},
		Default: lint(0),
	}
	if v := evalOK(t, m, sw); v != IntV(50) {
		t.Errorf("int switch = %s", String(v))
	}
	conSw := &lambda.Switch{
		Kind:  lambda.SwitchConTag,
		Scrut: &lambda.Con{Tag: 1, Name: "true"},
		Span:  2,
		Cases: []lambda.Case{
			{Tag: 0, Body: lint(0)},
			{Tag: 1, Body: lint(1)},
		},
	}
	if v := evalOK(t, m, conSw); v != IntV(1) {
		t.Errorf("con switch = %s", String(v))
	}
	strSw := &lambda.Switch{
		Kind:    lambda.SwitchStr,
		Scrut:   &lambda.Str{Val: "b"},
		Cases:   []lambda.Case{{StrKey: "a", Body: lint(1)}, {StrKey: "b", Body: lint(2)}},
		Default: lint(0),
	}
	if v := evalOK(t, m, strSw); v != IntV(2) {
		t.Errorf("str switch = %s", String(v))
	}
}

func TestRefs(t *testing.T) {
	m := NewMachine()
	r := m.prim("ref", []Value{IntV(1)})
	if m.prim("deref", []Value{r}) != IntV(1) {
		t.Error("deref")
	}
	m.prim("assign", []Value{r, IntV(2)})
	if m.prim("deref", []Value{r}) != IntV(2) {
		t.Error("assign")
	}
	// Refs compare by identity.
	r2 := m.prim("ref", []Value{IntV(2)})
	if Eq(r, r2) {
		t.Error("distinct refs equal")
	}
	if !Eq(r, r) {
		t.Error("ref not equal to itself")
	}
}

func TestPrint(t *testing.T) {
	m := NewMachine()
	var out bytes.Buffer
	m.Stdout = &out
	m.prim("print", []Value{StrV("hello\n")})
	if out.String() != "hello\n" {
		t.Errorf("print wrote %q", out.String())
	}
}

func TestStructuralEquality(t *testing.T) {
	a := RecordV{IntV(1), List([]Value{StrV("x")}), &ConV{Tag: 1, Name: "SOME", Arg: IntV(2)}}
	b := RecordV{IntV(1), List([]Value{StrV("x")}), &ConV{Tag: 1, Name: "SOME", Arg: IntV(2)}}
	if !Eq(a, b) {
		t.Error("structurally equal values differ")
	}
	c := RecordV{IntV(1), List([]Value{StrV("y")}), &ConV{Tag: 1, Name: "SOME", Arg: IntV(2)}}
	if Eq(a, c) {
		t.Error("different values equal")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntV(-3), "~3"},
		{RealV(1.5), "1.5"},
		{StrV("a\"b"), `"a\"b"`},
		{CharV('x'), `#"x"`},
		{Unit(), "()"},
		{RecordV{IntV(1), IntV(2)}, "(1, 2)"},
		{List([]Value{IntV(1), IntV(2)}), "[1, 2]"},
		{Bool(true), "true"},
		{&ConV{Tag: 1, Name: "SOME", Arg: IntV(5)}, "SOME 5"},
	}
	for _, c := range cases {
		if got := String(c.v); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	m := NewMachine()
	m.MaxSteps = 1000
	var g lambda.Gen
	loop := g.Fresh()
	u := g.Fresh()
	e := &lambda.Fix{
		Names: []lambda.LVar{loop},
		Fns: []*lambda.Fn{{Param: u, Body: &lambda.App{
			Fn: &lambda.Var{LV: loop}, Arg: lambda.Unit(),
		}}},
		Body: &lambda.App{Fn: &lambda.Var{LV: loop}, Arg: lambda.Unit()},
	}
	_, err := m.Eval(e, nil)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("divergence not bounded: %v", err)
	}
}

func TestUnboundVariableCrash(t *testing.T) {
	m := NewMachine()
	_, err := m.Eval(&lambda.Var{LV: 999}, nil)
	if _, ok := err.(*CrashError); !ok {
		t.Errorf("want crash, got %v", err)
	}
}

// Property: Eq is reflexive and symmetric on generated first-order
// values.
func TestQuickEq(t *testing.T) {
	gen := func(seed uint64) Value {
		switch seed % 5 {
		case 0:
			return IntV(int64(seed >> 3))
		case 1:
			return StrV(string(rune('a' + seed%26)))
		case 2:
			return Bool(seed%2 == 0)
		case 3:
			return RecordV{IntV(int64(seed % 7)), Bool(seed%3 == 0)}
		default:
			return List([]Value{IntV(int64(seed % 11))})
		}
	}
	f := func(a, b uint64) bool {
		va, vb := gen(a), gen(b)
		if !Eq(va, va) || !Eq(vb, vb) {
			return false
		}
		return Eq(va, vb) == Eq(vb, va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: GoList inverts List.
func TestQuickListRoundTrip(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = IntV(x)
		}
		back, ok := GoList(List(vals))
		if !ok || len(back) != len(vals) {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
