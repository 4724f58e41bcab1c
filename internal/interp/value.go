// Package interp gives dynamic semantics to the lambda IR: runtime
// values, the evaluator, and the primitive operations of the basis.
//
// The evaluator implements the paper's execute phase: a compilation
// unit's code is a closed function from the vector of imported values to
// the record of exported values, so the whole dynamic state of a linked
// program is carried in explicit value vectors — never in global
// variables of the host.
//
// Concurrency: a Machine is confined to a single goroutine. The IRM
// executes units only from the build's coordinator, in commit order,
// so parallel builds never evaluate two units at once. A CompiledFn may
// be applied from several machines at once: its body, built on first
// call, is published atomically. The basis exception tags and the
// builtin table are process-wide and read-only, so machines on any
// goroutine share them.
package interp

import (
	"fmt"
	"strings"

	"repro/internal/lambda"
)

// Value is an ML runtime value.
type Value interface{ isValue() }

// IntV is an int value.
type IntV int64

// WordV is a word value.
type WordV uint64

// RealV is a real value.
type RealV float64

// StrV is a string value.
type StrV string

// CharV is a char value.
type CharV byte

// RecordV is a record or tuple value; the empty record is unit.
type RecordV []Value

// ConV is a datatype value: constructor tag plus optional argument.
type ConV struct {
	Tag  int
	Name string
	Arg  Value // nil for nullary constructors
}

// Closure is a function value.
type Closure struct {
	Param lambda.LVar
	Body  lambda.Exp
	Env   *Env
}

// RefV is a mutable reference cell.
type RefV struct{ Cell Value }

// ArrV is a mutable array; like refs, arrays compare by identity.
type ArrV struct{ Elems []Value }

// VecV is an immutable vector; vectors compare structurally.
type VecV []Value

// ExnTag is a generative exception tag; identity is pointer identity.
type ExnTag struct{ Name string }

// ExnV is an exception value (packet contents).
type ExnV struct {
	Tag *ExnTag
	Arg Value // nil for nullary exceptions
}

func (IntV) isValue()     {}
func (WordV) isValue()    {}
func (RealV) isValue()    {}
func (StrV) isValue()     {}
func (CharV) isValue()    {}
func (RecordV) isValue()  {}
func (*ConV) isValue()    {}
func (*Closure) isValue() {}
func (*RefV) isValue()    {}
func (*ArrV) isValue()    {}
func (VecV) isValue()     {}
func (*ExnTag) isValue()  {}
func (*ExnV) isValue()    {}

// Unit is the unit value.
func Unit() Value { return RecordV(nil) }

// Shared booleans: nullary ConVs are immutable and compared
// structurally, so one value per truth value is observationally
// identical to a fresh one — and comparison-heavy loops allocate
// nothing.
var (
	trueV  Value = &ConV{Tag: 1, Name: "true"}
	falseV Value = &ConV{Tag: 0, Name: "false"}
)

// Bool converts a Go bool to the ML bool representation (datatype
// bool = false | true, tags 0 and 1).
func Bool(b bool) Value {
	if b {
		return trueV
	}
	return falseV
}

// Truth reports whether v is the ML true value.
func Truth(v Value) bool {
	c, ok := v.(*ConV)
	return ok && c.Tag == 1
}

// List converts a Go slice to an ML list value.
func List(elems []Value) Value {
	v := Value(&ConV{Tag: 0, Name: "nil"})
	for i := len(elems) - 1; i >= 0; i-- {
		v = &ConV{Tag: 1, Name: "::", Arg: RecordV{elems[i], v}}
	}
	return v
}

// GoList converts an ML list value to a Go slice; ok is false if v is
// not a proper list.
func GoList(v Value) ([]Value, bool) {
	var out []Value
	for {
		c, isCon := v.(*ConV)
		if !isCon {
			return nil, false
		}
		if c.Tag == 0 {
			return out, true
		}
		pair, isRec := c.Arg.(RecordV)
		if !isRec || len(pair) != 2 {
			return nil, false
		}
		out = append(out, pair[0])
		v = pair[1]
	}
}

// Eq implements ML polymorphic structural equality. Refs and exception
// tags compare by identity; closures are never compared (the type
// system rules it out, so reaching one here is an internal error).
func Eq(a, b Value) bool {
	switch a := a.(type) {
	case IntV:
		bb, ok := b.(IntV)
		return ok && a == bb
	case WordV:
		bb, ok := b.(WordV)
		return ok && a == bb
	case RealV:
		bb, ok := b.(RealV)
		return ok && a == bb
	case StrV:
		bb, ok := b.(StrV)
		return ok && a == bb
	case CharV:
		bb, ok := b.(CharV)
		return ok && a == bb
	case RecordV:
		bb, ok := b.(RecordV)
		if !ok || len(a) != len(bb) {
			return false
		}
		for i := range a {
			if !Eq(a[i], bb[i]) {
				return false
			}
		}
		return true
	case *ConV:
		bb, ok := b.(*ConV)
		if !ok || a.Tag != bb.Tag {
			return false
		}
		if a.Arg == nil || bb.Arg == nil {
			return a.Arg == nil && bb.Arg == nil
		}
		return Eq(a.Arg, bb.Arg)
	case *RefV:
		bb, ok := b.(*RefV)
		return ok && a == bb
	case *ArrV:
		bb, ok := b.(*ArrV)
		return ok && a == bb
	case VecV:
		bb, ok := b.(VecV)
		if !ok || len(a) != len(bb) {
			return false
		}
		for i := range a {
			if !Eq(a[i], bb[i]) {
				return false
			}
		}
		return true
	case *ExnTag:
		return a == b
	case *ExnV:
		bb, ok := b.(*ExnV)
		return ok && a.Tag == bb.Tag
	}
	return false
}

// String renders a value in ML notation.
func String(v Value) string {
	var sb strings.Builder
	writeValue(&sb, v, 0)
	return sb.String()
}

func writeValue(sb *strings.Builder, v Value, depth int) {
	if depth > 20 {
		sb.WriteString("...")
		return
	}
	switch v := v.(type) {
	case IntV:
		if v < 0 {
			fmt.Fprintf(sb, "~%d", -v)
		} else {
			fmt.Fprintf(sb, "%d", v)
		}
	case WordV:
		fmt.Fprintf(sb, "0wx%x", uint64(v))
	case RealV:
		s := fmt.Sprintf("%g", float64(v))
		s = strings.ReplaceAll(s, "-", "~")
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		sb.WriteString(s)
	case StrV:
		fmt.Fprintf(sb, "%q", string(v))
	case CharV:
		fmt.Fprintf(sb, "#%q", string(v))
	case RecordV:
		if len(v) == 0 {
			sb.WriteString("()")
			return
		}
		sb.WriteByte('(')
		for i, f := range v {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeValue(sb, f, depth+1)
		}
		sb.WriteByte(')')
	case *ConV:
		if elems, ok := GoList(Value(v)); ok && (v.Name == "nil" || v.Name == "::") {
			sb.WriteByte('[')
			for i, e := range elems {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeValue(sb, e, depth+1)
			}
			sb.WriteByte(']')
			return
		}
		sb.WriteString(v.Name)
		if v.Arg != nil {
			sb.WriteByte(' ')
			writeValue(sb, v.Arg, depth+1)
		}
	case *Closure:
		sb.WriteString("fn")
	case *CompiledClosure:
		sb.WriteString("fn")
	case *RefV:
		sb.WriteString("ref ")
		writeValue(sb, v.Cell, depth+1)
	case *ArrV:
		fmt.Fprintf(sb, "array(%d)", len(v.Elems))
	case VecV:
		sb.WriteString("#[")
		for i, e := range v {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeValue(sb, e, depth+1)
		}
		sb.WriteByte(']')
	case *ExnTag:
		fmt.Fprintf(sb, "exn(%s)", v.Name)
	case *ExnV:
		sb.WriteString(v.Tag.Name)
		if v.Arg != nil {
			sb.WriteByte(' ')
			writeValue(sb, v.Arg, depth+1)
		}
	default:
		sb.WriteString("<?>")
	}
}
