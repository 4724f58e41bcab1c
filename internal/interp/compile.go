package interp

// The compiled-execution engine (ROADMAP "compile codeUnits to
// closures"): a one-pass compiler from lambda terms to trees of Go
// closures over array-indexed activation frames. Where the tree walker
// resolves every variable by an O(n) scan of the linked Env list at
// each occurrence, this backend resolves each occurrence once, at
// compile time, to a (depth delta, slot index) coordinate; at run time
// a variable reference is one or two pointer hops plus an array index.
//
// The coordinate assignment — the "slot layout" — is the only output
// of resolution, so it is what gets pickled into the bin file's code
// section (binfile V2): per Var in DFS order, the uvarint pair
// (depth delta, slot). Binder slots are recomputed from the term shape
// itself at load, so warm builds rebuild the compiled form without
// ever constructing an LVar scope map (see DESIGN.md §4j).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/lambda"
)

// Engine selects the execution backend a Machine runs unit code with.
// Both engines produce identical values, exceptions, and output (the
// FuzzExecTreeVsClosure differential target pins this); only speed
// differs.
type Engine int

const (
	// EngineClosure — the default (zero value) — executes units through
	// the compiled-closure backend.
	EngineClosure Engine = iota
	// EngineTree executes units with the original tree-walking
	// evaluator; the -exec=tree escape hatch.
	EngineTree
)

// String returns the -exec flag spelling of the engine.
func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "closure"
}

// ParseEngine maps a -exec flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "closure":
		return EngineClosure, nil
	case "tree":
		return EngineTree, nil
	}
	return 0, fmt.Errorf("unknown exec engine %q (want tree or closure)", s)
}

// frameInline is the widest frame served from the inline array (and
// from the machine's frame pool).
const frameInline = 4

// Frame is one activation record of the compiled engine: the values of
// a function's parameter (slot 0) and body binders, linked to the
// lexically enclosing activation. Frames up to frameInline slots wide
// use the inline array, so a typical application costs one allocation
// at most — and none at all when the frame is non-escaping and pooled.
type Frame struct {
	up     *Frame
	slots  []Value
	inline [frameInline]Value
}

func newFrame(up *Frame, n int) *Frame {
	fr := &Frame{up: up}
	if n <= len(fr.inline) {
		fr.slots = fr.inline[:n]
	} else {
		fr.slots = make([]Value, n)
	}
	return fr
}

// cnode is one compiled expression: evaluate under an activation frame.
type cnode func(m *Machine, fr *Frame) Value

// CompiledFn is a function's code in compiled form.
type CompiledFn struct {
	// NSlots is the activation-frame width: slot 0 holds the argument,
	// the rest the body's Let/Fix/Handle binders in allocation order.
	NSlots int
	body   cnode
	// escapes reports whether an activation frame of this function can
	// outlive the call: any Fn or Fix node under the body creates a
	// closure whose captured chain includes this frame. A non-escaping
	// frame is returned to the machine's pool after the call, making
	// hot first-order applications (arithmetic recursion) allocation-
	// free. Computed from the term shape alone, so CompileFn and LoadFn
	// agree by construction.
	escapes bool

	// ID is this function's index in the one shared DFS walk of its
	// unit's term — the profiler's function identity. Because resolve
	// and decode mode share the walk, CompileFn and LoadFn assign the
	// same IDs by construction, so a profile captured from a cold
	// compile and from a warm bin load attribute identically. Neither
	// ID nor tab is serialized: the bin code section stays byte-for-
	// byte what it was without the profiler.
	ID  int32
	tab *fnTable
}

// fnTable is the per-unit side table shared by every CompiledFn of one
// compiled term: the unit name (set once, before execution, by
// SetUnit) and each function's lexically enclosing function, indexed
// by ID (-1 for the root).
type fnTable struct {
	unit    string
	parents []int32
}

// SetUnit records the owning unit's name on the whole compiled term.
// Call it before the term executes; samples taken afterwards attribute
// every function of the term to that unit.
func (f *CompiledFn) SetUnit(name string) {
	if f != nil && f.tab != nil {
		f.tab.unit = name
	}
}

// Unit returns the unit name recorded by SetUnit ("" before).
func (f *CompiledFn) Unit() string {
	if f == nil || f.tab == nil {
		return ""
	}
	return f.tab.unit
}

// NumFuncs returns how many functions the compiled term contains.
func (f *CompiledFn) NumFuncs() int {
	if f == nil || f.tab == nil {
		return 0
	}
	return len(f.tab.parents)
}

// ParentOf returns the ID of the lexically enclosing function of id,
// or -1 for the root (and for out-of-range ids).
func (f *CompiledFn) ParentOf(id int32) int32 {
	if f == nil || f.tab == nil || id < 0 || int(id) >= len(f.tab.parents) {
		return -1
	}
	return f.tab.parents[id]
}

// Small-int cache: boxing an IntV into a Value allocates, and the int
// fast paths below produce results in a narrow band overwhelmingly
// often. One shared boxed value is observationally identical to a
// fresh one (IntV is immutable and compared by value).
const (
	smallIntLo   = -512
	smallIntHi   = 8192
	smallIntSpan = smallIntHi - smallIntLo + 1
)

var smallInts = func() [smallIntSpan]Value {
	var t [smallIntSpan]Value
	for i := range t {
		t[i] = IntV(int64(i) + smallIntLo)
	}
	return t
}()

func boxInt(n int64) Value {
	if n >= smallIntLo && n <= smallIntHi {
		return smallInts[n-smallIntLo]
	}
	return IntV(n)
}

// CompiledClosure pairs a compiled function with its captured frame
// chain — the compiled engine's counterpart of *Closure. The two
// closure forms interoperate: Machine.apply dispatches on either, so a
// tree-built value can be applied by compiled code and vice versa.
type CompiledClosure struct {
	Fn  *CompiledFn
	Env *Frame
}

func (*CompiledClosure) isValue() {}

// CompileFn compiles a unit's code (the λ(import-vector).(exports)
// function of §3) to the closure form, returning it with the
// serialized slot layout — the bin file's code section.
func CompileFn(fn *lambda.Fn) (*CompiledFn, []byte, error) {
	c := &comp{resolve: true, scope: make(map[lambda.LVar]loc), tab: &fnTable{}}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, nil, c.err
	}
	if c.out == nil {
		c.out = []byte{}
	}
	return cf, c.out, nil
}

// LoadFn rebuilds the compiled form from the term plus a code section
// produced by CompileFn, skipping scope resolution entirely. Every
// coordinate is validated against the frames the term itself declares,
// and the section must be consumed exactly, so a corrupt or forged
// section yields an error — never a mis-indexed frame.
func LoadFn(fn *lambda.Fn, section []byte) (*CompiledFn, error) {
	c := &comp{in: section, tab: &fnTable{}}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, c.err
	}
	if c.pos != len(section) {
		return nil, fmt.Errorf("code section: %d trailing bytes", len(section)-c.pos)
	}
	return cf, nil
}

// IndexFns replays CompileFn's resolve walk over root, additionally
// recording which *lambda.Fn node became which compiled function. The
// returned map is the bridge the profiler uses to give tree-walker
// closures (and symbol names, which live on the term) the same
// function IDs the compiled engine assigns — same walk, same IDs, by
// construction. Fn nodes consumed by the walk's beta-reduction (the
// eta-expanded primitive redexes) never become functions in either
// engine and so are absent from the map.
func IndexFns(root *lambda.Fn) (*CompiledFn, map[*lambda.Fn]*CompiledFn, error) {
	c := &comp{
		resolve: true,
		scope:   make(map[lambda.LVar]loc),
		tab:     &fnTable{},
		fnOf:    make(map[*lambda.Fn]*CompiledFn),
	}
	cf := c.fn(root)
	if c.err != nil {
		return nil, nil, c.err
	}
	return cf, c.fnOf, nil
}

// loc is a binder's coordinate: the frame that holds it (by absolute
// nesting depth, 1 = outermost function) and its slot in that frame.
type loc struct {
	depth int
	slot  int
}

// comp walks a term once, in one of two coordinate modes: resolve mode
// computes each Var's coordinate from a scope map and appends it to
// the section being built; decode mode reads coordinates back from a
// section, validating as it goes. Both modes share the one walk, so
// slot allocation order — and therefore the meaning of every
// coordinate — is identical by construction.
type comp struct {
	resolve bool
	scope   map[lambda.LVar]loc // resolve mode only
	nslots  []int               // per open frame: slots allocated so far
	escaped []bool              // per open frame: captured by some closure
	out     []byte              // resolve mode: section being built
	in      []byte              // decode mode: section being read
	pos     int
	err     error

	// Profiler identity, assigned by the same walk that assigns slots:
	// tab collects each function's parent in DFS preorder; fnids is
	// the stack of open function IDs; fnOf, when non-nil (IndexFns),
	// additionally maps term nodes to their compiled functions.
	tab   *fnTable
	fnids []int32
	fnOf  map[*lambda.Fn]*CompiledFn
}

func (c *comp) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *comp) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.in[c.pos:])
	if n <= 0 {
		c.fail("code section: truncated coordinate")
		return 0
	}
	c.pos += n
	return v
}

// coord produces a Var's (depth delta, slot) coordinate. In decode
// mode the delta must name an open frame and the slot must already be
// allocated in it — which, because binders dominate their uses in DFS
// order, guarantees the run-time read stays inside the frame.
func (c *comp) coord(lv lambda.LVar) (delta, slot int) {
	if c.resolve {
		l, ok := c.scope[lv]
		if !ok {
			c.fail("unbound lambda variable v%d", lv)
			return 0, 0
		}
		delta = len(c.nslots) - l.depth
		c.out = binary.AppendUvarint(c.out, uint64(delta))
		c.out = binary.AppendUvarint(c.out, uint64(l.slot))
		return delta, l.slot
	}
	d := c.uvarint()
	s := c.uvarint()
	if c.err != nil {
		return 0, 0
	}
	if d >= uint64(len(c.nslots)) {
		c.fail("code section: depth delta %d with %d frames open", d, len(c.nslots))
		return 0, 0
	}
	if s >= uint64(c.nslots[len(c.nslots)-1-int(d)]) {
		c.fail("code section: slot %d not yet allocated at delta %d", s, d)
		return 0, 0
	}
	return int(d), int(s)
}

// alloc claims the next slot of the innermost open frame.
func (c *comp) alloc() int {
	s := c.nslots[len(c.nslots)-1]
	c.nslots[len(c.nslots)-1] = s + 1
	return s
}

// bind enters lv at the given slot of the innermost frame, returning
// what unbind needs to restore the outer scope (shadowing-safe).
func (c *comp) bind(lv lambda.LVar, slot int) (loc, bool) {
	if !c.resolve {
		return loc{}, false
	}
	old, had := c.scope[lv]
	c.scope[lv] = loc{depth: len(c.nslots), slot: slot}
	return old, had
}

func (c *comp) unbind(lv lambda.LVar, old loc, had bool) {
	if !c.resolve {
		return
	}
	if had {
		c.scope[lv] = old
	} else {
		delete(c.scope, lv)
	}
}

// fn compiles one function: a fresh frame with the parameter at slot 0.
// It also assigns the function's profiler ID — its DFS preorder index
// — and records its enclosing function, in the same walk that assigns
// slots, so resolve and decode mode agree on identities exactly as
// they agree on coordinates.
func (c *comp) fn(e *lambda.Fn) *CompiledFn {
	id := int32(len(c.tab.parents))
	parent := int32(-1)
	if len(c.fnids) > 0 {
		parent = c.fnids[len(c.fnids)-1]
	}
	c.tab.parents = append(c.tab.parents, parent)
	c.fnids = append(c.fnids, id)
	c.nslots = append(c.nslots, 1)
	c.escaped = append(c.escaped, false)
	old, had := c.bind(e.Param, 0)
	body := c.walk(e.Body)
	c.unbind(e.Param, old, had)
	f := &CompiledFn{
		NSlots:  c.nslots[len(c.nslots)-1],
		body:    body,
		escapes: c.escaped[len(c.escaped)-1],
		ID:      id,
		tab:     c.tab,
	}
	c.nslots = c.nslots[:len(c.nslots)-1]
	c.escaped = c.escaped[:len(c.escaped)-1]
	c.fnids = c.fnids[:len(c.fnids)-1]
	if c.fnOf != nil {
		c.fnOf[e] = f
	}
	return f
}

// markEscapes records that a closure is created at the current point:
// its captured chain includes every open frame.
func (c *comp) markEscapes() {
	for i := range c.escaped {
		c.escaped[i] = true
	}
}

func (c *comp) walkAll(es []lambda.Exp) []cnode {
	out := make([]cnode, len(es))
	for i, e := range es {
		out[i] = c.walk(e)
	}
	return out
}

func (c *comp) walk(e lambda.Exp) cnode {
	switch e := e.(type) {
	case *lambda.Var:
		delta, slot := c.coord(e.LV)
		switch delta {
		case 0:
			return func(m *Machine, fr *Frame) Value { return fr.slots[slot] }
		case 1:
			return func(m *Machine, fr *Frame) Value { return fr.up.slots[slot] }
		default:
			return func(m *Machine, fr *Frame) Value {
				f := fr
				for i := 0; i < delta; i++ {
					f = f.up
				}
				return f.slots[slot]
			}
		}
	case *lambda.Int:
		v := boxInt(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Word:
		v := WordV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Real:
		v := RealV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Str:
		v := StrV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Char:
		v := CharV(e.Val)
		return func(*Machine, *Frame) Value { return v }
	case *lambda.Record:
		if len(e.Fields) == 0 {
			u := Unit()
			return func(*Machine, *Frame) Value { return u }
		}
		fields := c.walkAll(e.Fields)
		return func(m *Machine, fr *Frame) Value {
			vs := make(RecordV, len(fields))
			for i, f := range fields {
				vs[i] = f(m, fr)
			}
			return vs
		}
	case *lambda.Select:
		rec := c.walk(e.Rec)
		idx := e.Idx
		return func(m *Machine, fr *Frame) Value {
			v := rec(m, fr)
			r, ok := v.(RecordV)
			if !ok || idx >= len(r) {
				m.crash("select .%d from non-record %s", idx, String(v))
			}
			return r[idx]
		}
	case *lambda.Fn:
		c.markEscapes()
		fn := c.fn(e)
		return func(m *Machine, fr *Frame) Value {
			return &CompiledClosure{Fn: fn, Env: fr}
		}
	case *lambda.Fix:
		c.markEscapes()
		// Allocate all name slots first, then compile the functions and
		// body under the extended scope; at run time the closures are
		// written into the shared frame before the body runs, which ties
		// the mutual-recursion knot through the frame pointer.
		slots := make([]int, len(e.Names))
		olds := make([]loc, len(e.Names))
		hads := make([]bool, len(e.Names))
		for i, name := range e.Names {
			slots[i] = c.alloc()
			olds[i], hads[i] = c.bind(name, slots[i])
		}
		fns := make([]*CompiledFn, len(e.Fns))
		for i, fn := range e.Fns {
			fns[i] = c.fn(fn)
		}
		body := c.walk(e.Body)
		for i := len(e.Names) - 1; i >= 0; i-- {
			c.unbind(e.Names[i], olds[i], hads[i])
		}
		return func(m *Machine, fr *Frame) Value {
			for i, fn := range fns {
				fr.slots[slots[i]] = &CompiledClosure{Fn: fn, Env: fr}
			}
			return body(m, fr)
		}
	case *lambda.App:
		// Beta-reduce literal-lambda applications at compile time. The
		// elaborator eta-expands every primitive into
		// (fn p => prim(#0 p, ..., #k p)) and applies it to a tuple at
		// each use site; run naively that is a closure, a frame, and a
		// record allocation per arithmetic op. Reducing the redex here
		// turns the pattern back into a direct prim evaluation. The
		// general redex becomes a let-binding in the current frame.
		// Both reductions are pure term-shape rewrites, so CompileFn and
		// LoadFn agree and the section stream stays aligned.
		if fn, ok := e.Fn.(*lambda.Fn); ok {
			if prim, ok := fn.Body.(*lambda.Prim); ok {
				// The match compiler often wraps the argument tuple in
				// Let bindings (Let v7=... in Record[v7,...]); peel them
				// into slot binds of the current frame so the fusion
				// still sees the record literal underneath.
				var lets []*lambda.Let
				core := e.Arg
				for {
					l, isLet := core.(*lambda.Let)
					if !isLet {
						break
					}
					lets = append(lets, l)
					core = l.Body
				}
				if args, ok := etaPrimArgs(fn.Param, prim.Args, core); ok {
					binds := make([]cnode, len(lets))
					slots := make([]int, len(lets))
					olds := make([]loc, len(lets))
					hads := make([]bool, len(lets))
					for i, l := range lets {
						binds[i] = c.walk(l.Bind)
						slots[i] = c.alloc()
						olds[i], hads[i] = c.bind(l.LV, slots[i])
					}
					primc := c.prim(&lambda.Prim{Op: prim.Op, Args: args})
					for i := len(lets) - 1; i >= 0; i-- {
						c.unbind(lets[i].LV, olds[i], hads[i])
					}
					if len(lets) == 0 {
						return primc
					}
					return func(m *Machine, fr *Frame) Value {
						for i, b := range binds {
							fr.slots[slots[i]] = b(m, fr)
						}
						return primc(m, fr)
					}
				}
			}
			argc := c.walk(e.Arg)
			slot := c.alloc()
			old, had := c.bind(fn.Param, slot)
			bodyc := c.walk(fn.Body)
			c.unbind(fn.Param, old, had)
			return func(m *Machine, fr *Frame) Value {
				fr.slots[slot] = argc(m, fr)
				return bodyc(m, fr)
			}
		}
		fnc := c.walk(e.Fn)
		argc := c.walk(e.Arg)
		return func(m *Machine, fr *Frame) Value {
			return m.apply(fnc(m, fr), argc(m, fr))
		}
	case *lambda.Let:
		// A dead closure binding (the match compiler's unreached
		// raise-Match arm is the common case) would force every frame
		// under it to be marked escaping. Creating a closure is pure,
		// so dropping the binding is unobservable — and it keeps hot
		// first-order frames poolable.
		if _, isFn := e.Bind.(*lambda.Fn); isFn && !usesVar(e.Body, e.LV) {
			return c.walk(e.Body)
		}
		bindc := c.walk(e.Bind)
		slot := c.alloc()
		old, had := c.bind(e.LV, slot)
		bodyc := c.walk(e.Body)
		c.unbind(e.LV, old, had)
		return func(m *Machine, fr *Frame) Value {
			fr.slots[slot] = bindc(m, fr)
			return bodyc(m, fr)
		}
	case *lambda.Con:
		if e.Arg == nil {
			// Nullary constructors are immutable and compared
			// structurally, so one shared value is observationally
			// identical to a fresh one per evaluation.
			v := &ConV{Tag: e.Tag, Name: e.Name}
			return func(*Machine, *Frame) Value { return v }
		}
		tag, name := e.Tag, e.Name
		argc := c.walk(e.Arg)
		return func(m *Machine, fr *Frame) Value {
			return &ConV{Tag: tag, Name: name, Arg: argc(m, fr)}
		}
	case *lambda.Decon:
		ec := c.walk(e.Exp)
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			cv, ok := v.(*ConV)
			if !ok || cv.Arg == nil {
				m.crash("decon of non-constructed value %s", String(v))
			}
			return cv.Arg
		}
	case *lambda.NewExnTag:
		// Exception declarations are generative: a fresh tag identity
		// per evaluation, exactly like the tree walker.
		name := e.Name
		return func(*Machine, *Frame) Value { return &ExnTag{Name: name} }
	case *lambda.ExnCon:
		tagc := c.walk(e.Tag)
		var argc cnode
		if e.Arg != nil {
			argc = c.walk(e.Arg)
		}
		return func(m *Machine, fr *Frame) Value {
			tv := tagc(m, fr)
			t, ok := tv.(*ExnTag)
			if !ok {
				m.crash("exncon with non-tag %s", String(tv))
			}
			ev := &ExnV{Tag: t}
			if argc != nil {
				ev.Arg = argc(m, fr)
			}
			return ev
		}
	case *lambda.ExnDecon:
		ec := c.walk(e.Exp)
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			ev, ok := v.(*ExnV)
			if !ok || ev.Arg == nil {
				m.crash("exndecon of %s", String(v))
			}
			return ev.Arg
		}
	case *lambda.If:
		condc := c.walk(e.Cond)
		thenc := c.walk(e.Then)
		elsec := c.walk(e.Else)
		return func(m *Machine, fr *Frame) Value {
			if Truth(condc(m, fr)) {
				return thenc(m, fr)
			}
			return elsec(m, fr)
		}
	case *lambda.Switch:
		return c.switchNode(e)
	case *lambda.Prim:
		return c.prim(e)
	case *lambda.Builtin:
		name := e.Name
		return func(m *Machine, fr *Frame) Value {
			v, ok := m.builtins[name]
			if !ok {
				m.crash("unknown builtin %q", name)
			}
			return v
		}
	case *lambda.Raise:
		ec := c.walk(e.Exp)
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			ev, ok := v.(*ExnV)
			if !ok {
				m.crash("raise of non-exception %s", String(v))
			}
			panic(&MLRaise{Packet: ev})
		}
	case *lambda.Handle:
		bodyc := c.walk(e.Body)
		slot := c.alloc()
		old, had := c.bind(e.Param, slot)
		handlerc := c.walk(e.Handler)
		c.unbind(e.Param, old, had)
		return func(m *Machine, fr *Frame) (result Value) {
			caught := func() (packet *ExnV) {
				defer func() {
					if r := recover(); r != nil {
						if mr, ok := r.(*MLRaise); ok {
							packet = mr.Packet
							return
						}
						panic(r)
					}
				}()
				result = bodyc(m, fr)
				return nil
			}()
			if caught == nil {
				return result
			}
			fr.slots[slot] = caught
			return handlerc(m, fr)
		}
	}
	c.fail("unknown lambda node %T", e)
	return func(m *Machine, fr *Frame) Value {
		return m.crash("uncompilable node %T", e)
	}
}

// etaPrimArgs recognizes the elaborator's eta-expansion shape applied
// to a matching argument and returns the prim's direct argument terms:
// params [#0 p, ..., #k p] against a k+1-field record argument (the
// fields become the args), or [p] against any argument (unary prims).
func etaPrimArgs(p lambda.LVar, primArgs []lambda.Exp, arg lambda.Exp) ([]lambda.Exp, bool) {
	if len(primArgs) == 1 {
		if v, ok := primArgs[0].(*lambda.Var); ok && v.LV == p {
			return []lambda.Exp{arg}, true
		}
	}
	rec, ok := arg.(*lambda.Record)
	if !ok || len(rec.Fields) != len(primArgs) || len(primArgs) == 0 {
		return nil, false
	}
	for i, a := range primArgs {
		sel, ok := a.(*lambda.Select)
		if !ok || sel.Idx != i {
			return nil, false
		}
		v, ok := sel.Rec.(*lambda.Var)
		if !ok || v.LV != p {
			return nil, false
		}
	}
	return rec.Fields, true
}

// usesVar reports whether lv occurs free in e. Shadowing binders cut
// the search; an unknown node kind conservatively reports a use.
func usesVar(e lambda.Exp, lv lambda.LVar) bool {
	switch e := e.(type) {
	case *lambda.Var:
		return e.LV == lv
	case *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
		*lambda.Builtin, *lambda.NewExnTag:
		return false
	case *lambda.Record:
		for _, f := range e.Fields {
			if usesVar(f, lv) {
				return true
			}
		}
		return false
	case *lambda.Select:
		return usesVar(e.Rec, lv)
	case *lambda.Fn:
		return e.Param != lv && usesVar(e.Body, lv)
	case *lambda.Fix:
		for _, n := range e.Names {
			if n == lv {
				return false
			}
		}
		for _, f := range e.Fns {
			if f.Param != lv && usesVar(f.Body, lv) {
				return true
			}
		}
		return usesVar(e.Body, lv)
	case *lambda.App:
		return usesVar(e.Fn, lv) || usesVar(e.Arg, lv)
	case *lambda.Let:
		if usesVar(e.Bind, lv) {
			return true
		}
		return e.LV != lv && usesVar(e.Body, lv)
	case *lambda.Con:
		return e.Arg != nil && usesVar(e.Arg, lv)
	case *lambda.Decon:
		return usesVar(e.Exp, lv)
	case *lambda.ExnCon:
		return usesVar(e.Tag, lv) || (e.Arg != nil && usesVar(e.Arg, lv))
	case *lambda.ExnDecon:
		return usesVar(e.Exp, lv)
	case *lambda.If:
		return usesVar(e.Cond, lv) || usesVar(e.Then, lv) || usesVar(e.Else, lv)
	case *lambda.Switch:
		if usesVar(e.Scrut, lv) {
			return true
		}
		for _, cs := range e.Cases {
			if usesVar(cs.Body, lv) {
				return true
			}
		}
		return e.Default != nil && usesVar(e.Default, lv)
	case *lambda.Prim:
		for _, a := range e.Args {
			if usesVar(a, lv) {
				return true
			}
		}
		return false
	case *lambda.Raise:
		return usesVar(e.Exp, lv)
	case *lambda.Handle:
		if usesVar(e.Body, lv) {
			return true
		}
		return e.Param != lv && usesVar(e.Handler, lv)
	}
	return true
}

func (c *comp) switchNode(e *lambda.Switch) cnode {
	scrut := c.walk(e.Scrut)
	bodies := make([]cnode, len(e.Cases))
	for i, cs := range e.Cases {
		bodies[i] = c.walk(cs.Body)
	}
	var def cnode
	if e.Default != nil {
		def = c.walk(e.Default)
	}
	cases := e.Cases
	miss := func(m *Machine, fr *Frame) Value {
		if def == nil {
			m.crash("non-exhaustive switch with no default")
		}
		return def(m, fr)
	}
	switch e.Kind {
	case lambda.SwitchConTag:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			cv, ok := v.(*ConV)
			if !ok {
				m.crash("switch on non-constructed value %s", String(v))
			}
			for i := range cases {
				if cases[i].Tag == cv.Tag {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchInt:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(IntV)
			if !ok {
				m.crash("int switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].IntKey == int64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchWord:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			n, ok := v.(WordV)
			if !ok {
				m.crash("word switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].WordKey == uint64(n) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchStr:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			s, ok := v.(StrV)
			if !ok {
				m.crash("string switch on %s", String(v))
			}
			for i := range cases {
				if cases[i].StrKey == string(s) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	case lambda.SwitchChar:
		return func(m *Machine, fr *Frame) Value {
			v := scrut(m, fr)
			ch, ok := v.(CharV)
			if !ok {
				m.crash("char switch on %s", String(v))
			}
			for i := range cases {
				if len(cases[i].StrKey) == 1 && cases[i].StrKey[0] == byte(ch) {
					return bodies[i](m, fr)
				}
			}
			return miss(m, fr)
		}
	}
	return func(m *Machine, fr *Frame) Value {
		return m.crash("unknown switch kind %d", e.Kind)
	}
}

// prim compiles a primitive application. The int fast paths inline the
// overloaded arithmetic/comparison dispatch for the representation the
// elaborated basis produces overwhelmingly often; every fast path
// falls back to the shared Machine implementation on any other
// representation, so semantics (overflow, Div, crashes) are identical.
func (c *comp) prim(e *lambda.Prim) cnode {
	args := c.walkAll(e.Args)
	op := e.Op
	if len(args) == 2 {
		a, b := args[0], args[1]
		switch op {
		case "add":
			return func(m *Machine, fr *Frame) Value {
				va, vb := a(m, fr), b(m, fr)
				if x, ok := va.(IntV); ok {
					if y, ok := vb.(IntV); ok {
						r := int64(x) + int64(y)
						if (int64(x) > 0 && int64(y) > 0 && r < 0) ||
							(int64(x) < 0 && int64(y) < 0 && r >= 0) {
							m.raise(m.TagOverflow, nil)
						}
						return boxInt(r)
					}
				}
				return m.arith(op, va, vb)
			}
		case "sub":
			return func(m *Machine, fr *Frame) Value {
				va, vb := a(m, fr), b(m, fr)
				if x, ok := va.(IntV); ok {
					if y, ok := vb.(IntV); ok {
						r := int64(x) - int64(y)
						if (int64(x) >= 0 && int64(y) < 0 && r < 0) ||
							(int64(x) < 0 && int64(y) > 0 && r >= 0) {
							m.raise(m.TagOverflow, nil)
						}
						return boxInt(r)
					}
				}
				return m.arith(op, va, vb)
			}
		case "lt", "le", "gt", "ge":
			return func(m *Machine, fr *Frame) Value {
				va, vb := a(m, fr), b(m, fr)
				if x, ok := va.(IntV); ok {
					if y, ok := vb.(IntV); ok {
						switch op {
						case "lt":
							return Bool(x < y)
						case "le":
							return Bool(x <= y)
						case "gt":
							return Bool(x > y)
						default:
							return Bool(x >= y)
						}
					}
				}
				return m.compare(op, va, vb)
			}
		case "eq":
			return func(m *Machine, fr *Frame) Value {
				return Bool(Eq(a(m, fr), b(m, fr)))
			}
		case "ne":
			return func(m *Machine, fr *Frame) Value {
				return Bool(!Eq(a(m, fr), b(m, fr)))
			}
		}
	}
	return func(m *Machine, fr *Frame) Value {
		vs := make([]Value, len(args))
		for i, a := range args {
			vs[i] = a(m, fr)
		}
		return m.prim(op, vs)
	}
}
