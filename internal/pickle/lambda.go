package pickle

import (
	"repro/internal/lambda"
)

// Lambda-IR serialization, used by bin files to store a unit's compiled
// code. The IR is a pure tree; no sharing or stubs are needed.

const (
	lVar = iota
	lInt
	lWord
	lReal
	lStr
	lChar
	lRecord
	lSelect
	lFn
	lFix
	lApp
	lLet
	lCon
	lDecon
	lNewExnTag
	lExnCon
	lExnDecon
	lIf
	lSwitch
	lPrim
	lBuiltin
	lRaise
	lHandle
)

// Lambda writes a lambda expression.
func (p *Pickler) Lambda(e lambda.Exp) {
	switch e := e.(type) {
	case *lambda.Var:
		p.w.byteVal(lVar)
		p.w.int(int(e.LV))
	case *lambda.Int:
		p.w.byteVal(lInt)
		p.w.varint(e.Val)
	case *lambda.Word:
		p.w.byteVal(lWord)
		p.w.uvarint(e.Val)
	case *lambda.Real:
		p.w.byteVal(lReal)
		p.w.float64(e.Val)
	case *lambda.Str:
		p.w.byteVal(lStr)
		p.w.string(e.Val)
	case *lambda.Char:
		p.w.byteVal(lChar)
		p.w.byteVal(e.Val)
	case *lambda.Record:
		p.w.byteVal(lRecord)
		p.w.int(len(e.Fields))
		for _, f := range e.Fields {
			p.Lambda(f)
		}
	case *lambda.Select:
		p.w.byteVal(lSelect)
		p.w.int(e.Idx)
		p.Lambda(e.Rec)
	case *lambda.Fn:
		p.w.byteVal(lFn)
		p.w.int(int(e.Param))
		p.Lambda(e.Body)
	case *lambda.Fix:
		p.w.byteVal(lFix)
		p.w.int(len(e.Names))
		for i, n := range e.Names {
			p.w.int(int(n))
			p.Lambda(e.Fns[i])
		}
		p.Lambda(e.Body)
	case *lambda.App:
		p.w.byteVal(lApp)
		p.Lambda(e.Fn)
		p.Lambda(e.Arg)
	case *lambda.Let:
		p.w.byteVal(lLet)
		p.w.int(int(e.LV))
		p.Lambda(e.Bind)
		p.Lambda(e.Body)
	case *lambda.Con:
		p.w.byteVal(lCon)
		p.w.int(e.Tag)
		p.w.string(e.Name)
		if e.Arg != nil {
			p.w.bool(true)
			p.Lambda(e.Arg)
		} else {
			p.w.bool(false)
		}
	case *lambda.Decon:
		p.w.byteVal(lDecon)
		p.Lambda(e.Exp)
	case *lambda.NewExnTag:
		p.w.byteVal(lNewExnTag)
		p.w.string(e.Name)
	case *lambda.ExnCon:
		p.w.byteVal(lExnCon)
		p.Lambda(e.Tag)
		if e.Arg != nil {
			p.w.bool(true)
			p.Lambda(e.Arg)
		} else {
			p.w.bool(false)
		}
	case *lambda.ExnDecon:
		p.w.byteVal(lExnDecon)
		p.Lambda(e.Exp)
	case *lambda.If:
		p.w.byteVal(lIf)
		p.Lambda(e.Cond)
		p.Lambda(e.Then)
		p.Lambda(e.Else)
	case *lambda.Switch:
		p.w.byteVal(lSwitch)
		p.w.byteVal(byte(e.Kind))
		p.Lambda(e.Scrut)
		p.w.int(e.Span)
		p.w.int(len(e.Cases))
		for _, c := range e.Cases {
			p.w.int(c.Tag)
			p.w.varint(c.IntKey)
			p.w.uvarint(c.WordKey)
			p.w.string(c.StrKey)
			p.Lambda(c.Body)
		}
		if e.Default != nil {
			p.w.bool(true)
			p.Lambda(e.Default)
		} else {
			p.w.bool(false)
		}
	case *lambda.Prim:
		p.w.byteVal(lPrim)
		p.w.string(e.Op)
		p.w.int(len(e.Args))
		for _, a := range e.Args {
			p.Lambda(a)
		}
	case *lambda.Builtin:
		p.w.byteVal(lBuiltin)
		p.w.string(e.Name)
	case *lambda.Raise:
		p.w.byteVal(lRaise)
		p.Lambda(e.Exp)
	case *lambda.Handle:
		p.w.byteVal(lHandle)
		p.Lambda(e.Body)
		p.w.int(int(e.Param))
		p.Lambda(e.Handler)
	default:
		p.w.error("pickle: unknown lambda node %T", e)
	}
}

// Lambda reads a lambda expression.
func (u *Unpickler) Lambda() lambda.Exp {
	switch tag := u.r.byteVal(); tag {
	case lVar:
		return &lambda.Var{LV: lambda.LVar(u.r.int())}
	case lInt:
		return &lambda.Int{Val: u.r.varint()}
	case lWord:
		return &lambda.Word{Val: u.r.uvarint()}
	case lReal:
		return &lambda.Real{Val: u.r.float64()}
	case lStr:
		return &lambda.Str{Val: u.r.string()}
	case lChar:
		return &lambda.Char{Val: u.r.byteVal()}
	case lRecord:
		n := u.r.int()
		fields := make([]lambda.Exp, 0, max0(n))
		for i := 0; i < n && u.r.err == nil; i++ {
			fields = append(fields, u.Lambda())
		}
		return &lambda.Record{Fields: fields}
	case lSelect:
		idx := u.r.int()
		return &lambda.Select{Idx: idx, Rec: u.Lambda()}
	case lFn:
		p := lambda.LVar(u.r.int())
		return &lambda.Fn{Param: p, Body: u.Lambda()}
	case lFix:
		n := u.r.int()
		fix := &lambda.Fix{}
		if n > 0 {
			fix.Names = make([]lambda.LVar, 0, u.r.capFor(n))
			fix.Fns = make([]*lambda.Fn, 0, u.r.capFor(n))
		}
		for i := 0; i < n && u.r.err == nil; i++ {
			fix.Names = append(fix.Names, lambda.LVar(u.r.int()))
			fn, ok := u.Lambda().(*lambda.Fn)
			if !ok {
				u.r.error("pickle: fix binding is not a function")
				return fix
			}
			fix.Fns = append(fix.Fns, fn)
		}
		fix.Body = u.Lambda()
		return fix
	case lApp:
		fn := u.Lambda()
		return &lambda.App{Fn: fn, Arg: u.Lambda()}
	case lLet:
		lv := lambda.LVar(u.r.int())
		bind := u.Lambda()
		return &lambda.Let{LV: lv, Bind: bind, Body: u.Lambda()}
	case lCon:
		c := &lambda.Con{Tag: u.r.int(), Name: u.r.string()}
		if u.r.bool() {
			c.Arg = u.Lambda()
		}
		return c
	case lDecon:
		return &lambda.Decon{Exp: u.Lambda()}
	case lNewExnTag:
		return &lambda.NewExnTag{Name: u.r.string()}
	case lExnCon:
		c := &lambda.ExnCon{Tag: u.Lambda()}
		if u.r.bool() {
			c.Arg = u.Lambda()
		}
		return c
	case lExnDecon:
		return &lambda.ExnDecon{Exp: u.Lambda()}
	case lIf:
		c := u.Lambda()
		t := u.Lambda()
		return &lambda.If{Cond: c, Then: t, Else: u.Lambda()}
	case lSwitch:
		sw := &lambda.Switch{Kind: lambda.SwitchKind(u.r.byteVal())}
		sw.Scrut = u.Lambda()
		sw.Span = u.r.int()
		n := u.r.int()
		for i := 0; i < n && u.r.err == nil; i++ {
			c := lambda.Case{
				Tag: u.r.int(), IntKey: u.r.varint(),
				WordKey: u.r.uvarint(), StrKey: u.r.string(),
			}
			c.Body = u.Lambda()
			sw.Cases = append(sw.Cases, c)
		}
		if u.r.bool() {
			sw.Default = u.Lambda()
		}
		return sw
	case lPrim:
		pr := &lambda.Prim{Op: lambda.InternPrimOp(u.r.stringBytes())}
		n := u.r.int()
		if n > 0 {
			pr.Args = make([]lambda.Exp, 0, u.r.capFor(n))
		}
		for i := 0; i < n && u.r.err == nil; i++ {
			pr.Args = append(pr.Args, u.Lambda())
		}
		return pr
	case lBuiltin:
		return &lambda.Builtin{Name: u.r.string()}
	case lRaise:
		return &lambda.Raise{Exp: u.Lambda()}
	case lHandle:
		h := &lambda.Handle{}
		h.Body = u.Lambda()
		h.Param = lambda.LVar(u.r.int())
		h.Handler = u.Lambda()
		return h
	default:
		u.r.error("pickle: bad lambda tag %d", tag)
		return &lambda.Record{}
	}
}
