// Package heapgraph implements UChecker's heap graph and per-path
// environments (Section III-B of the paper).
//
// The heap graph G compactly profiles the dependencies among all objects
// produced by all execution paths: nodes are labelled, typed objects for
// concrete values, symbolic values, built-in functions, and operations;
// ordered directed edges connect operations/functions to their operands.
// Each execution path owns an environment mapping variable names to object
// labels plus a `cur` label holding the path's reachability constraint.
// Because environments share object labels, objects created once are
// reused across many paths — this sharing is what keeps Table III's
// "objects per path" averages small.
package heapgraph

import (
	"fmt"
	"strconv"

	"repro/internal/sexpr"
)

// Label identifies an object in the heap graph. 0 is the null label (the
// paper's cur = null).
type Label int

// Null is the absent label.
const Null Label = 0

// ObjKind classifies an object.
type ObjKind int

// Object kinds, mirroring the paper's O_C, O_S, O_FUNC, O_OP partitions,
// plus an explicit array kind for PHP array values (the paper folds arrays
// into concrete/symbolic objects with type array; a distinct kind keeps
// element tables attached to the object).
const (
	KindConcrete ObjKind = iota
	KindSymbol
	KindFunc
	KindOp
	KindArray
)

func (k ObjKind) String() string {
	switch k {
	case KindConcrete:
		return "concrete"
	case KindSymbol:
		return "symbol"
	case KindFunc:
		return "func"
	case KindOp:
		return "op"
	default:
		return "array"
	}
}

// Object is one heap-graph node.
type Object struct {
	Label Label
	Kind  ObjKind
	Type  sexpr.Type

	// Val holds the concrete value for KindConcrete.
	Val sexpr.Expr
	// Name is the symbol name (KindSymbol), built-in function name
	// (KindFunc), or operator spelling (KindOp).
	Name string
	// Line is the source line whose evaluation created the object,
	// preserving the paper's AST-node-to-source mapping.
	Line int
}

// ArrayInfo is the element table of a KindArray object.
type ArrayInfo struct {
	// Keys preserves insertion order of string keys.
	Keys []string
	// Elems maps string keys (integer keys are canonicalized to their
	// decimal spelling, as PHP does) to element labels.
	Elems map[string]Label
	// NextIndex is the next automatic integer key for $a[] pushes.
	NextIndex int64
}

// Graph is the heap graph.
type Graph struct {
	objs   map[Label]*Object
	edges  map[Label][]Label
	arrays map[Label]*ArrayInfo
	next   Label
	symSeq int
}

// New returns an empty heap graph.
func New() *Graph {
	return &Graph{
		objs:   map[Label]*Object{},
		edges:  map[Label][]Label{},
		arrays: map[Label]*ArrayInfo{},
	}
}

// Find returns the object with the given label, or nil (the paper's
// Find(G, l)).
func (g *Graph) Find(l Label) *Object { return g.objs[l] }

// NumObjects returns the number of objects in the graph (Table III's
// "Objects" column).
func (g *Graph) NumObjects() int { return len(g.objs) }

func (g *Graph) add(o *Object) Label {
	g.next++
	o.Label = g.next
	g.objs[o.Label] = o
	return o.Label
}

// NewConcrete creates and adds an object for a concrete value (the paper's
// Create_Concrete_Obj + Add_Concrete_Obj). The value's own type is used.
func (g *Graph) NewConcrete(v sexpr.Expr, line int) Label {
	return g.add(&Object{Kind: KindConcrete, Type: v.Kind(), Val: v, Line: line})
}

// NewSymbol creates a symbolic-value object. An empty name generates a
// fresh unique one (the paper's randomly-generated symbol names).
func (g *Graph) NewSymbol(name string, t sexpr.Type, line int) Label {
	if name == "" {
		g.symSeq++
		name = "s_" + strconv.Itoa(g.symSeq)
	}
	return g.add(&Object{Kind: KindSymbol, Type: t, Name: name, Line: line})
}

// NewFunc creates an object for a built-in function invocation whose result
// type is t.
func (g *Graph) NewFunc(name string, t sexpr.Type, line int) Label {
	return g.add(&Object{Kind: KindFunc, Type: t, Name: name, Line: line})
}

// NewOp creates an operation object (the paper's Create_OP_Obj).
func (g *Graph) NewOp(op string, t sexpr.Type, line int) Label {
	return g.add(&Object{Kind: KindOp, Type: t, Name: op, Line: line})
}

// NewArray creates an empty array object.
func (g *Graph) NewArray(line int) Label {
	l := g.add(&Object{Kind: KindArray, Type: sexpr.Array, Line: line})
	g.arrays[l] = &ArrayInfo{Elems: map[string]Label{}}
	return l
}

// Array returns the element table of an array object, or nil.
func (g *Graph) Array(l Label) *ArrayInfo { return g.arrays[l] }

// SetElem sets the element for a string key on an array object.
func (g *Graph) SetElem(arr Label, key string, val Label) {
	info := g.arrays[arr]
	if info == nil {
		return
	}
	if _, exists := info.Elems[key]; !exists {
		info.Keys = append(info.Keys, key)
	}
	info.Elems[key] = val
	// Keep NextIndex past any integer key.
	if n, err := strconv.ParseInt(key, 10, 64); err == nil && n >= info.NextIndex {
		info.NextIndex = n + 1
	}
}

// PushElem appends a value with the next automatic integer key, returning
// the key used.
func (g *Graph) PushElem(arr Label, val Label) string {
	info := g.arrays[arr]
	if info == nil {
		return ""
	}
	key := strconv.FormatInt(info.NextIndex, 10)
	g.SetElem(arr, key, val)
	return key
}

// Elem looks up a string key on an array object.
func (g *Graph) Elem(arr Label, key string) (Label, bool) {
	info := g.arrays[arr]
	if info == nil {
		return Null, false
	}
	l, ok := info.Elems[key]
	return l, ok
}

// AddEdge appends a directed, ordered edge from an operation/function
// object to an operand (the paper's Add_Edge; order distinguishes left and
// right operands).
func (g *Graph) AddEdge(from, to Label) {
	g.edges[from] = append(g.edges[from], to)
}

// Edges returns the ordered operand labels of an object.
func (g *Graph) Edges(l Label) []Label { return g.edges[l] }

// ToSexpr renders the value rooted at l as a PHP-semantics s-expression by
// traversing the heap graph (the paper's Section III-B1 observation that
// the tree-like structure of the heap graph enables s-expression
// representations). Sharing is preserved logically; cycles (which cannot
// arise from the interpreter) are cut with fresh symbols for safety.
func (g *Graph) ToSexpr(l Label) sexpr.Expr {
	return g.toSexpr(l, map[Label]bool{})
}

func (g *Graph) toSexpr(l Label, visiting map[Label]bool) sexpr.Expr {
	o := g.objs[l]
	if o == nil {
		return sexpr.NullVal{}
	}
	if visiting[l] {
		return sexpr.NewSym(fmt.Sprintf("s_cycle_%d", l), o.Type)
	}
	switch o.Kind {
	case KindConcrete:
		return o.Val
	case KindSymbol:
		return sexpr.NewSym(o.Name, o.Type)
	case KindArray:
		// Arrays appearing as values are rendered as (array k1 v1 k2 v2 ...).
		visiting[l] = true
		defer delete(visiting, l)
		info := g.arrays[l]
		app := &sexpr.App{Op: "array", Type: sexpr.Array}
		for _, k := range info.Keys {
			app.Args = append(app.Args, sexpr.StrVal(k), g.toSexpr(info.Elems[k], visiting))
		}
		return app
	default: // KindFunc, KindOp
		visiting[l] = true
		defer delete(visiting, l)
		app := &sexpr.App{Op: o.Name, Type: o.Type}
		for _, e := range g.edges[l] {
			app.Args = append(app.Args, g.toSexpr(e, visiting))
		}
		return app
	}
}

// Reaches reports whether target is reachable from src following operand
// edges and array elements. It implements the taint query of Constraint-1:
// "e_src is tainted by $_FILES if there exists a path in G from the object
// referred by l to $_FILES".
func (g *Graph) Reaches(src, target Label) bool {
	if src == target {
		return true
	}
	seen := map[Label]bool{}
	var dfs func(Label) bool
	dfs = func(l Label) bool {
		if l == target {
			return true
		}
		if seen[l] {
			return false
		}
		seen[l] = true
		for _, e := range g.edges[l] {
			if dfs(e) {
				return true
			}
		}
		if info := g.arrays[l]; info != nil {
			for _, v := range info.Elems {
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(src)
}

// ReachesName reports whether an object whose Name matches name is
// reachable from src. Used for taint queries against the $_FILES symbol
// family.
func (g *Graph) ReachesName(src Label, name string) bool {
	seen := map[Label]bool{}
	var dfs func(Label) bool
	dfs = func(l Label) bool {
		if seen[l] {
			return false
		}
		seen[l] = true
		o := g.objs[l]
		if o != nil && o.Name == name {
			return true
		}
		for _, e := range g.edges[l] {
			if dfs(e) {
				return true
			}
		}
		if info := g.arrays[l]; info != nil {
			for _, v := range info.Elems {
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(src)
}

// Lines returns the distinct source lines of all objects reachable from l,
// ascending. This powers the source-code-focused reports: each constraint
// can be traced back to the lines that built it.
func (g *Graph) Lines(l Label) []int {
	seen := map[Label]bool{}
	lineSet := map[int]bool{}
	var dfs func(Label)
	dfs = func(x Label) {
		if seen[x] || x == Null {
			return
		}
		seen[x] = true
		o := g.objs[x]
		if o == nil {
			return
		}
		if o.Line > 0 {
			lineSet[o.Line] = true
		}
		for _, e := range g.edges[x] {
			dfs(e)
		}
		if info := g.arrays[x]; info != nil {
			for _, v := range info.Elems {
				dfs(v)
			}
		}
	}
	dfs(l)
	out := make([]int, 0, len(lineSet))
	for ln := range lineSet {
		out = append(out, ln)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
