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
// ever constructing an LVar scope map (see DESIGN.md §4j). The walk
// validates every coordinate up front but builds no closures; each
// function's closure tree is built on its first call.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

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
	// body is the function's closure tree, built on its first
	// application (force) from the record below and published
	// atomically: two machines forcing one body concurrently each
	// build the same tree, and the first to publish wins.
	body atomic.Pointer[cnode]
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
	ID     int32
	parent int32
	tab    *fnTable

	// What the eager walk recorded to build body later: the term, the
	// body's coordinates section[start:end], the first ID after this
	// function's subtree, and the enclosing frames' slot widths at the
	// Fn node, tab.widths[outer:outer+depth].
	term         *lambda.Fn
	start, end   int32
	next         int32
	outer, depth int32
}

// fnTable is the per-unit side table shared by every CompiledFn of one
// compiled term: the unit name (set once, before execution, by
// SetUnit), every function by ID, the validated code section bodies
// are built from, and the enclosing-frame widths each function's
// record points into.
type fnTable struct {
	unit    string
	fns     []*CompiledFn
	section []byte
	widths  []int
}

// force builds f's body and publishes it. The apply paths call it when
// f.body.Load() is nil — one atomic load and a nil test written out at
// each call site, as an accessor around them costs more than the
// inliner's budget. The section was validated by the eager walk, so a
// failure here is an internal inconsistency; the body then crashes the
// machine that applies it.
func (f *CompiledFn) force() *cnode {
	body, err := f.build()
	if err != nil {
		body = func(m *Machine, _ *Frame) Value { return m.crash("%v", err) }
	}
	f.body.CompareAndSwap(nil, &body)
	return f.body.Load()
}

// build walks f's body in decode mode from the record the eager walk
// left, constructing its closure tree. Nested functions are taken from
// the table and their coordinates skipped, so each body is walked once
// by the eager walk and once more on its first call. The frame width,
// escape flag, end offset and subtree it recomputes must match the
// record's.
func (f *CompiledFn) build() (cnode, error) {
	t := f.tab
	c := &comp{in: t.section, pos: int(f.start), tab: t, build: true, next: f.ID + 1}
	c.nslots = append(make([]int, 0, f.depth+1), t.widths[f.outer:f.outer+f.depth]...)
	c.escaped = make([]bool, f.depth, f.depth+1)
	body, n, esc := c.body(f.term)
	if c.err == nil && (n != f.NSlots || esc != f.escapes || c.pos != int(f.end) || c.next != f.next) {
		c.fail("code section: function %d rebuilt inconsistently", f.ID)
	}
	return body, c.err
}

// SetUnit records the owning unit's name on the whole compiled term.
// Call it before the term executes; samples taken afterwards attribute
// every function of the term to that unit. A term that already carries
// the name is not written, so machines on several goroutines may
// register one shared, already-named term (the per-process prelude).
func (f *CompiledFn) SetUnit(name string) {
	if f != nil && f.tab != nil && f.tab.unit != name {
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
	return len(f.tab.fns)
}

// ParentOf returns the ID of the lexically enclosing function of id,
// or -1 for the root (and for out-of-range ids).
func (f *CompiledFn) ParentOf(id int32) int32 {
	if f == nil || f.tab == nil || id < 0 || int(id) >= len(f.tab.fns) {
		return -1
	}
	return f.tab.fns[id].parent
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
// serialized slot layout — the bin file's code section. The walk
// resolves every coordinate and builds no closures; each function's
// closure tree is built on its first application.
func CompileFn(fn *lambda.Fn) (*CompiledFn, []byte, error) {
	c := &comp{resolve: true, scope: make(map[lambda.LVar]loc), tab: &fnTable{}}
	cf := c.fn(fn)
	if c.err != nil {
		return nil, nil, c.err
	}
	if c.out == nil {
		c.out = []byte{}
	}
	c.tab.section = c.out
	return cf, c.out, nil
}

// LoadFn rebuilds the compiled form from the term plus a code section
// produced by CompileFn, skipping scope resolution entirely. The walk
// covers the whole term: every coordinate, including those of function
// bodies that never run, is validated against the frames the term
// itself declares, and the section must be consumed exactly, so a
// corrupt or forged section yields an error here, at load — never a
// mis-indexed frame, and never a failure deferred to a first call. No
// closure tree is built now; each function's is built from the
// validated section on its first application.
func LoadFn(fn *lambda.Fn, section []byte) (*CompiledFn, error) {
	c := &comp{in: section, tab: &fnTable{section: section}}
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
	c.tab.section = c.out
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
//
// The eager walk (CompileFn, LoadFn, IndexFns) covers the whole term
// and constructs no closures, recording for each function where its
// body's coordinates lie (CompiledFn's record). Building a body on its
// first call is the same walk in decode mode over that body alone,
// with build on.
type comp struct {
	resolve bool
	scope   map[lambda.LVar]loc // resolve mode only
	undo    []binding           // resolve mode: shadowed bindings to restore
	nslots  []int               // per open frame: slots allocated so far
	escaped []bool              // per open frame: captured by some closure
	out     []byte              // resolve mode: section being built
	in      []byte              // decode mode: section being read
	pos     int
	err     error

	// Profiler identity, assigned by the same walk that assigns slots:
	// tab collects every function in DFS preorder; fnids is the stack
	// of open function IDs; fnOf, when non-nil (IndexFns),
	// additionally maps term nodes to their compiled functions.
	tab   *fnTable
	fnids []int32
	fnOf  map[*lambda.Fn]*CompiledFn

	// build marks the walk that builds one recorded body: it constructs
	// closures, the nested functions it meets are already in tab, and
	// next is the ID of the next one.
	build bool
	next  int32
}

// binding is a scope entry bind displaced, restored by unbind.
type binding struct {
	lv  lambda.LVar
	old loc
	had bool
}

func (c *comp) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// offset is the walk's position in the section: the next coordinate's
// byte offset.
func (c *comp) offset() int32 {
	if c.resolve {
		return int32(len(c.out))
	}
	return int32(c.pos)
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

// bind enters lv at the given slot of the innermost frame, saving the
// binding it shadows for unbind.
func (c *comp) bind(lv lambda.LVar, slot int) {
	if !c.resolve {
		return
	}
	old, had := c.scope[lv]
	c.undo = append(c.undo, binding{lv: lv, old: old, had: had})
	c.scope[lv] = loc{depth: len(c.nslots), slot: slot}
}

// unbind restores the scope the last n binds shadowed, innermost first.
func (c *comp) unbind(n int) {
	if !c.resolve {
		return
	}
	for ; n > 0; n-- {
		b := c.undo[len(c.undo)-1]
		c.undo = c.undo[:len(c.undo)-1]
		if b.had {
			c.scope[b.lv] = b.old
		} else {
			delete(c.scope, b.lv)
		}
	}
}

// fn records one function and walks its body for its coordinates,
// frame width and escapes. It assigns the function's profiler ID — its
// DFS preorder index — and its enclosing function, in the same walk
// that assigns slots, so resolve and decode mode agree on identities
// exactly as they agree on coordinates.
func (c *comp) fn(e *lambda.Fn) *CompiledFn {
	if c.build {
		// Recorded, subtree and all, by the eager walk: reuse it and
		// skip its body's coordinates.
		f := c.tab.fns[c.next]
		c.next = f.next
		c.pos = int(f.end)
		return f
	}
	id := int32(len(c.tab.fns))
	parent := int32(-1)
	if len(c.fnids) > 0 {
		parent = c.fnids[len(c.fnids)-1]
	}
	f := &CompiledFn{
		ID: id, parent: parent, tab: c.tab, term: e, start: c.offset(),
		outer: int32(len(c.tab.widths)), depth: int32(len(c.nslots)),
	}
	c.tab.fns = append(c.tab.fns, f)
	c.tab.widths = append(c.tab.widths, c.nslots...)
	c.fnids = append(c.fnids, id)
	_, n, esc := c.body(e)
	c.fnids = c.fnids[:len(c.fnids)-1]
	f.NSlots, f.escapes = n, esc
	f.end, f.next = c.offset(), int32(len(c.tab.fns))
	if c.fnOf != nil {
		c.fnOf[e] = f
	}
	return f
}

// body walks a function body in a fresh frame with the parameter at
// slot 0, returning its closure tree (nil unless building), frame
// width and escape flag.
func (c *comp) body(e *lambda.Fn) (cnode, int, bool) {
	c.nslots = append(c.nslots, 1)
	c.escaped = append(c.escaped, false)
	c.bind(e.Param, 0)
	body := c.walk(e.Body)
	c.unbind(1)
	n, esc := c.nslots[len(c.nslots)-1], c.escaped[len(c.escaped)-1]
	c.nslots = c.nslots[:len(c.nslots)-1]
	c.escaped = c.escaped[:len(c.escaped)-1]
	return body, n, esc
}

// markEscapes records that a closure is created at the current point:
// its captured chain includes every open frame.
func (c *comp) markEscapes() {
	for i := range c.escaped {
		c.escaped[i] = true
	}
}

// walkAll walks es in order; the nodes are nil unless building.
func (c *comp) walkAll(es []lambda.Exp) []cnode {
	if !c.build {
		for _, e := range es {
			c.walk(e)
		}
		return nil
	}
	out := make([]cnode, len(es))
	for i, e := range es {
		out[i] = c.walk(e)
	}
	return out
}

// walk visits e, returning its closure tree when building and nil
// otherwise. Scoping, slot allocation and coordinates are the same
// either way; only closure construction is skipped.
func (c *comp) walk(e lambda.Exp) cnode {
	switch e := e.(type) {
	case *lambda.Var:
		delta, slot := c.coord(e.LV)
		if !c.build {
			return nil
		}
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
	case *lambda.Int, *lambda.Word, *lambda.Real, *lambda.Str, *lambda.Char,
		*lambda.NewExnTag, *lambda.Builtin:
		if !c.build {
			return nil
		}
		return leaf(e)
	case *lambda.Record:
		if len(e.Fields) == 0 {
			if !c.build {
				return nil
			}
			u := Unit()
			return func(*Machine, *Frame) Value { return u }
		}
		fields := c.walkAll(e.Fields)
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			vs := make(RecordV, len(fields))
			for i, f := range fields {
				vs[i] = f(m, fr)
			}
			return vs
		}
	case *lambda.Select:
		rec := c.walk(e.Rec)
		if !c.build {
			return nil
		}
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
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			return &CompiledClosure{Fn: fn, Env: fr}
		}
	case *lambda.Fix:
		c.markEscapes()
		// Allocate all name slots first (consecutive, from base), then
		// compile the functions and body under the extended scope; at
		// run time the closures are written into the shared frame
		// before the body runs, which ties the mutual-recursion knot
		// through the frame pointer.
		base := c.nslots[len(c.nslots)-1]
		for _, name := range e.Names {
			c.bind(name, c.alloc())
		}
		var fns []*CompiledFn
		if c.build {
			fns = make([]*CompiledFn, len(e.Fns))
		}
		for i, fn := range e.Fns {
			f := c.fn(fn)
			if fns != nil {
				fns[i] = f
			}
		}
		body := c.walk(e.Body)
		c.unbind(len(e.Names))
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			for i, fn := range fns {
				fr.slots[base+i] = &CompiledClosure{Fn: fn, Env: fr}
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
					var binds []cnode
					var slots []int
					if c.build {
						binds = make([]cnode, len(lets))
						slots = make([]int, len(lets))
					}
					for i, l := range lets {
						b := c.walk(l.Bind)
						slot := c.alloc()
						c.bind(l.LV, slot)
						if c.build {
							binds[i], slots[i] = b, slot
						}
					}
					primc := c.prim(prim.Op, args)
					c.unbind(len(lets))
					if len(lets) == 0 || !c.build {
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
			c.bind(fn.Param, slot)
			bodyc := c.walk(fn.Body)
			c.unbind(1)
			if !c.build {
				return nil
			}
			return func(m *Machine, fr *Frame) Value {
				fr.slots[slot] = argc(m, fr)
				return bodyc(m, fr)
			}
		}
		fnc := c.walk(e.Fn)
		argc := c.walk(e.Arg)
		if !c.build {
			return nil
		}
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
		c.bind(e.LV, slot)
		bodyc := c.walk(e.Body)
		c.unbind(1)
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			fr.slots[slot] = bindc(m, fr)
			return bodyc(m, fr)
		}
	case *lambda.Con:
		if e.Arg == nil {
			if !c.build {
				return nil
			}
			// Nullary constructors are immutable and compared
			// structurally, so one shared value is observationally
			// identical to a fresh one per evaluation.
			v := &ConV{Tag: e.Tag, Name: e.Name}
			return func(*Machine, *Frame) Value { return v }
		}
		argc := c.walk(e.Arg)
		if !c.build {
			return nil
		}
		tag, name := e.Tag, e.Name
		return func(m *Machine, fr *Frame) Value {
			return &ConV{Tag: tag, Name: name, Arg: argc(m, fr)}
		}
	case *lambda.Decon:
		ec := c.walk(e.Exp)
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			v := ec(m, fr)
			cv, ok := v.(*ConV)
			if !ok || cv.Arg == nil {
				m.crash("decon of non-constructed value %s", String(v))
			}
			return cv.Arg
		}
	case *lambda.ExnCon:
		tagc := c.walk(e.Tag)
		var argc cnode
		if e.Arg != nil {
			argc = c.walk(e.Arg)
		}
		if !c.build {
			return nil
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
		if !c.build {
			return nil
		}
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
		if !c.build {
			return nil
		}
		return func(m *Machine, fr *Frame) Value {
			if Truth(condc(m, fr)) {
				return thenc(m, fr)
			}
			return elsec(m, fr)
		}
	case *lambda.Switch:
		return c.switchNode(e)
	case *lambda.Prim:
		return c.prim(e.Op, e.Args)
	case *lambda.Raise:
		ec := c.walk(e.Exp)
		if !c.build {
			return nil
		}
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
		c.bind(e.Param, slot)
		handlerc := c.walk(e.Handler)
		c.unbind(1)
		if !c.build {
			return nil
		}
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

// leaf compiles a node with no subterms and no coordinate.
func leaf(e lambda.Exp) cnode {
	switch e := e.(type) {
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
	case *lambda.NewExnTag:
		// Exception declarations are generative: a fresh tag identity
		// per evaluation, exactly like the tree walker.
		name := e.Name
		return func(*Machine, *Frame) Value { return &ExnTag{Name: name} }
	case *lambda.Builtin:
		name := e.Name
		v, ok := builtins[name]
		if !ok {
			return func(m *Machine, _ *Frame) Value { return m.crash("unknown builtin %q", name) }
		}
		return func(*Machine, *Frame) Value { return v }
	}
	panic(fmt.Sprintf("interp: leaf of %T", e))
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
	var bodies []cnode
	if c.build {
		bodies = make([]cnode, len(e.Cases))
	}
	for i, cs := range e.Cases {
		b := c.walk(cs.Body)
		if c.build {
			bodies[i] = b
		}
	}
	var def cnode
	if e.Default != nil {
		def = c.walk(e.Default)
	}
	if !c.build {
		return nil
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
func (c *comp) prim(op string, es []lambda.Exp) cnode {
	args := c.walkAll(es)
	if !c.build {
		return nil
	}
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
							m.raise(TagOverflow, nil)
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
							m.raise(TagOverflow, nil)
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
