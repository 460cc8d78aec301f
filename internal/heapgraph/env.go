package heapgraph

import (
	"maps"
	"sort"

	"repro/internal/sexpr"
)

// maxLayers bounds the chain of frozen layers under a frame. Clone
// flattens a chain that grows past it into a single layer, so a lookup
// probes at most maxLayers+1 layers: the frame's delta, then each frozen
// one.
const maxLayers = 8

// deleted is what Unbind writes into a frame's delta when the name is
// still bound in an older layer: it hides that binding. Labels are
// positive and Null is 0, so it is never a valid label.
const deleted Label = -1

// binding is one name bound in a layer.
type binding struct {
	name  string
	label Label
}

// layer is a set of bindings over an older layer. A frame's newest layer
// (its delta) is private and written in place; Clone freezes it, after
// which every environment forked from it shares it and it is never
// written again. A binding to deleted hides the name's binding in the
// layers below. A layer holds each name at most once, and is searched
// linearly: a delta holds the few names a path wrote since its last
// fork.
type layer struct {
	vars   []binding
	parent *layer
	// depth counts the layers from this one down to the bottom of the
	// chain, this one included.
	depth int
}

// deltaLayer is a frame's newest layer allocated together with room for
// its first two bindings, so the first write after a fork costs one
// allocation.
type deltaLayer struct {
	layer
	buf [2]binding
}

// height is the layer's depth, 0 for the empty chain.
func (ly *layer) height() int {
	if ly == nil {
		return 0
	}
	return ly.depth
}

// index returns the position of the layer's own binding of a name, or -1.
func (ly *layer) index(name string) int {
	for i := range ly.vars {
		if ly.vars[i].name == name {
			return i
		}
	}
	return -1
}

// lookup resolves a name through the chain, newest layer first.
func (ly *layer) lookup(name string) (Label, bool) {
	for ; ly != nil; ly = ly.parent {
		if i := ly.index(name); i >= 0 {
			return visible(ly.vars[i].label)
		}
	}
	return Null, false
}

// visible turns a stored binding into a lookup result: the deletion
// marker reads as absent.
func visible(l Label) (Label, bool) {
	if l == deleted {
		return Null, false
	}
	return l, true
}

// shows reports whether b, a binding of layer owner in ly's chain, is
// what ly resolves its name to: it is not the deletion marker, and no
// layer above owner binds the name.
func (ly *layer) shows(owner *layer, b binding) bool {
	if b.label == deleted {
		return false
	}
	for ; ly != owner; ly = ly.parent {
		if ly.index(b.name) >= 0 {
			return false
		}
	}
	return true
}

// flatten returns one bottom layer holding the chain's visible bindings,
// in a slice counted before it is filled.
func (ly *layer) flatten() *layer {
	n := 0
	for l := ly; l != nil; l = l.parent {
		for _, b := range l.vars {
			if ly.shows(l, b) {
				n++
			}
		}
	}
	vars := make([]binding, 0, n)
	for l := ly; l != nil; l = l.parent {
		for _, b := range l.vars {
			if ly.shows(l, b) {
				vars = append(vars, b)
			}
		}
	}
	return &layer{vars: vars, depth: 1}
}

// commonLayer returns the newest layer both chains share, or nil.
func commonLayer(a, b *layer) *layer {
	for a != b {
		switch da, db := a.height(), b.height(); {
		case da > db:
			a = a.parent
		case db > da:
			b = b.parent
		default:
			a, b = a.parent, b.parent
		}
	}
	return a
}

// frame is one variable scope. The bottom frame is the file-level (global)
// scope; each inlined function call pushes a frame.
//
// A frame is a private delta layer on top of a chain of frozen layers.
// Clone freezes each frame's delta onto its chain, which both sides then
// share, and every later write goes to the writer's own (fresh, small)
// delta. Forking a path therefore costs O(scope depth), and the state a
// path adds afterwards grows with what it writes, not with how many
// bindings it can see.
type frame struct {
	// delta holds the bindings written since the last fork; nil until the
	// first write. Its parent is base.
	delta *layer
	// base is the chain of frozen layers under delta.
	base *layer
	// globalImports records names aliased into this frame via PHP's
	// `global` statement; their final values are written back to the
	// global frame when the scope pops. The map is never mutated once
	// built (ImportGlobal replaces it), so forks share it.
	globalImports map[string]bool
	// shared reports that the frame has not been written since the last
	// fork: everything it binds lives in layers other paths also read.
	shared bool
}

// newest returns the frame's newest layer: its delta, or else its base.
func (f *frame) newest() *layer {
	if f.delta != nil {
		return f.delta
	}
	return f.base
}

// lookup resolves a name in the frame: the delta first, then the layers.
func (f *frame) lookup(name string) (Label, bool) {
	return f.newest().lookup(name)
}

// set writes a binding into the frame's delta, allocating the delta with
// room for two bindings on the first write since the last fork.
func (f *frame) set(name string, l Label) {
	f.shared = false
	if f.delta == nil {
		d := &deltaLayer{layer: layer{parent: f.base, depth: f.base.height() + 1}}
		d.vars = d.buf[:0]
		f.delta = &d.layer
	} else if i := f.delta.index(name); i >= 0 {
		f.delta.vars[i].label = l
		return
	}
	f.delta.vars = append(f.delta.vars, binding{name, l})
}

// unset removes the delta's own binding of a name, if it has one.
func (f *frame) unset(name string) {
	f.shared = false
	if f.delta == nil {
		return
	}
	vars := f.delta.vars
	if i := f.delta.index(name); i >= 0 {
		last := len(vars) - 1
		vars[i] = vars[last]
		vars[last] = binding{}
		f.delta.vars = vars[:last]
	}
}

// freeze links the frame's delta onto its chain, flattening the chain
// once it grows past maxLayers, and marks the frame shared.
func (f *frame) freeze() {
	f.shared = true
	d := f.delta
	f.delta = nil
	if d == nil || len(d.vars) == 0 {
		return
	}
	f.base = d
	if d.depth > maxLayers {
		f.base = d.flatten()
	}
}

// sameAbove reports whether every name f wrote above layer stop, apart
// from those in skip, resolves to the same binding (or the same absence)
// in o.
func (f *frame) sameAbove(o *frame, stop *layer, skip map[string]bool) bool {
	for ly := f.newest(); ly != stop; ly = ly.parent {
		for _, b := range ly.vars {
			if skip[b.name] {
				continue
			}
			l, ok := f.lookup(b.name)
			ol, ook := o.lookup(b.name)
			if ok != ook || l != ol {
				return false
			}
		}
	}
	return true
}

// equivalent reports whether two frames bind the same names (those in
// skip excluded) to the same labels and import the same globals. Below
// their newest common layer both frames read the same layers, so only the
// names either side wrote above it are compared.
func (f *frame) equivalent(o *frame, skip map[string]bool) bool {
	if len(f.globalImports) != len(o.globalImports) {
		return false
	}
	for name := range f.globalImports {
		if !o.globalImports[name] {
			return false
		}
	}
	common := commonLayer(f.base, o.base)
	return f.sameAbove(o, common, skip) && o.sameAbove(f, common, skip)
}

// Env is the environment of one execution path (the paper's
// Env = {Var, Map, cur}): a mapping from variable names to object labels
// plus the path's reachability constraint. On top of the paper's
// definition it carries the scope stack used for context-sensitive
// function-call inlining and the control-flow flags (return/break/
// continue) the interpreter needs.
type Env struct {
	frames []frame

	// Cur is the label of the path's reachability constraint object, or
	// Null when the path is unconditionally reachable.
	Cur Label
	// Returned holds the label of the value produced by an executed
	// `return`; Terminated marks paths that hit return/exit/throw and stop
	// executing subsequent statements in the current scope.
	Returned   Label
	Terminated bool
	// BreakN / ContinueN are pending loop-control levels (PHP's `break n`).
	// A non-zero value suspends statement execution until the enclosing
	// loop consumes it.
	BreakN    int
	ContinueN int
	// Tmp is the interpreter's per-path operand stack: partially evaluated
	// operand labels are parked here while a sibling operand evaluates, so
	// that label vectors stay aligned when the sibling's evaluation forks
	// the path (labels are cloned along with the environment).
	Tmp []Label
}

// NewEnv returns an environment with a single (global) scope, no bindings,
// and an empty reachability constraint.
func NewEnv() *Env {
	return &Env{frames: []frame{{}}}
}

func (e *Env) top() *frame { return &e.frames[len(e.frames)-1] }

// Suspended reports whether the path is currently not executing statements
// (terminated or unwinding a break/continue).
func (e *Env) Suspended() bool {
	return e.Terminated || e.BreakN > 0 || e.ContinueN > 0
}

// Get returns the label bound to the variable in the current scope, or
// Null (the paper's Get_Map).
func (e *Env) Get(name string) Label {
	l, _ := e.top().lookup(name)
	return l
}

// Has reports whether the variable is bound in the current scope.
func (e *Env) Has(name string) bool {
	_, ok := e.top().lookup(name)
	return ok
}

// Bind associates a variable with an object label in the current scope
// (the paper's Add_Var + Add_Map).
func (e *Env) Bind(name string, l Label) { e.top().set(name, l) }

// Unbind removes a variable binding (PHP unset()). A binding that lives
// in a shared layer is hidden by a deletion marker in the delta.
func (e *Env) Unbind(name string) {
	f := e.top()
	if _, below := f.base.lookup(name); below {
		f.set(name, deleted)
		return
	}
	f.unset(name)
}

// VarNames returns the bound variable names of the current scope, sorted.
func (e *Env) VarNames() []string {
	top := e.top().newest()
	var out []string
	for ly := top; ly != nil; ly = ly.parent {
		for _, b := range ly.vars {
			if top.shows(ly, b) {
				out = append(out, b.name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// PushScope enters a fresh variable scope for an inlined function call.
func (e *Env) PushScope() {
	e.frames = append(e.frames, frame{})
}

// PopScope leaves the current scope, writing back variables imported with
// `global`, and clears the return state so the caller's path continues.
func (e *Env) PopScope() {
	top := e.top()
	if len(e.frames) > 1 {
		for name := range top.globalImports {
			if l, ok := top.lookup(name); ok {
				e.frames[0].set(name, l)
			}
		}
	}
	// Clear the slot so the backing array does not keep the popped
	// frame's layers alive.
	*top = frame{}
	e.frames = e.frames[:len(e.frames)-1]
	e.Returned = Null
	e.Terminated = false
}

// Depth returns the scope depth (1 = global scope only).
func (e *Env) Depth() int { return len(e.frames) }

// ImportGlobal implements PHP's `global $name`: the current scope sees the
// global frame's binding (created as fresh if absent via mk), and writes it
// back on PopScope.
func (e *Env) ImportGlobal(name string, mk func() Label) {
	g := &e.frames[0]
	l, ok := g.lookup(name)
	if !ok {
		l = mk()
		g.set(name, l)
	}
	top := e.top()
	top.set(name, l)
	if !top.globalImports[name] {
		imports := make(map[string]bool, len(top.globalImports)+1)
		maps.Copy(imports, top.globalImports)
		imports[name] = true
		top.globalImports = imports
	}
}

// Clone forks the environment. Cloning is how the interpreter forks paths
// at conditionals; object labels are shared with the original, which is
// the memory-sharing design the paper credits for the small per-path
// object counts.
//
// Each scope frame's delta is frozen onto its chain, which both sides
// then share, and each side's later writes go to a fresh delta of its
// own. The
// path condition (Cur) is a heap-graph label, so the condition prefix is
// a shared tail by construction. Forking is therefore O(scope depth), not
// O(bindings), and a forked path's private state grows with what it
// writes.
func (e *Env) Clone() *Env {
	n := &Env{
		frames:     make([]frame, len(e.frames)),
		Cur:        e.Cur,
		Returned:   e.Returned,
		Terminated: e.Terminated,
		BreakN:     e.BreakN,
		ContinueN:  e.ContinueN,
	}
	for i := range e.frames {
		e.frames[i].freeze()
		n.frames[i] = e.frames[i]
	}
	if len(e.Tmp) > 0 {
		n.Tmp = append([]Label(nil), e.Tmp...)
	}
	return n
}

// SharedFrames returns the number of scope frames not written since the
// last fork, whose bindings all live in layers shared with at least one
// other Env. The interpreter samples it at fork sites to report how much
// structure forking shared instead of copied.
func (e *Env) SharedFrames() int {
	n := 0
	for i := range e.frames {
		if e.frames[i].shared {
			n++
		}
	}
	return n
}

// PushTmp parks a label on the operand stack.
func (e *Env) PushTmp(l Label) { e.Tmp = append(e.Tmp, l) }

// PopTmp removes and returns the most recently parked label.
func (e *Env) PopTmp() Label {
	if len(e.Tmp) == 0 {
		return Null
	}
	l := e.Tmp[len(e.Tmp)-1]
	e.Tmp = e.Tmp[:len(e.Tmp)-1]
	return l
}

// ER extends the path's reachability constraint with the condition object l
// (the paper's ER, "Extend_Reachability"): cur becomes cur AND l, building
// the AND operation node in the heap graph. A Null l leaves cur unchanged.
func (e *Env) ER(g *Graph, l Label, line int) {
	if l == Null {
		return
	}
	if e.Cur == Null {
		e.Cur = l
		return
	}
	u := g.NewOp("And", sexpr.Bool, line)
	g.AddEdge(u, e.Cur)
	g.AddEdge(u, l)
	e.Cur = u
}

// EquivalentModulo reports whether two environments are observably
// identical except for the top-frame variables named in ignore: same
// scope depth, same control-flow state, same operand stack, the same
// bindings in every frame (top-frame names in ignore excluded on both
// sides), and the same global imports. The path-merging machinery uses
// it with a function's dead-variable set to detect paths that differ
// only in values no later statement can observe. The path condition
// (Cur) is deliberately NOT compared — the caller reasons about it
// separately.
func (e *Env) EquivalentModulo(o *Env, ignore map[string]bool) bool {
	if len(e.frames) != len(o.frames) ||
		e.Returned != o.Returned || e.Terminated != o.Terminated ||
		e.BreakN != o.BreakN || e.ContinueN != o.ContinueN ||
		len(e.Tmp) != len(o.Tmp) {
		return false
	}
	for i := range e.Tmp {
		if e.Tmp[i] != o.Tmp[i] {
			return false
		}
	}
	top := len(e.frames) - 1
	for i := range e.frames {
		var skip map[string]bool
		if i == top {
			skip = ignore
		}
		if !e.frames[i].equivalent(&o.frames[i], skip) {
			return false
		}
	}
	return true
}

// EnvSet is the paper's ℰ: the environments of all live execution paths.
type EnvSet []*Env

// CloneAll deep-copies every environment.
func (s EnvSet) CloneAll() EnvSet {
	out := make(EnvSet, len(s))
	for i, e := range s {
		out[i] = e.Clone()
	}
	return out
}

// Live returns the environments that are executing statements (not
// terminated or unwinding loop control).
func (s EnvSet) Live() EnvSet {
	out := make(EnvSet, 0, len(s))
	for _, e := range s {
		if !e.Suspended() {
			out = append(out, e)
		}
	}
	return out
}
