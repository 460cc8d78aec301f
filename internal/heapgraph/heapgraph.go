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
	"math"
	"strconv"

	"repro/internal/sexpr"
)

// Label identifies an object in the heap graph. 0 is the null label (the
// paper's cur = null). A label is 4 bytes, so every per-path label
// vector and every arena operand slot costs half what an int would. It
// needs no overflow check: 2^31 objects would take 40 GiB of 20-byte
// nodes, and the default object budget (MaxObjects) is 1.5M.
type Label int32

// Null is the absent label.
const Null Label = 0

// ObjKind classifies an object.
type ObjKind uint8

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

// Object is one heap-graph object as Find reports it. The graph does
// not store Objects: Find builds one from the object's arena node and
// the graph's name and value tables. Its label is its position in the
// arena, so the object does not carry it.
type Object struct {
	Kind ObjKind
	Type sexpr.Type
	// Line is the source line whose evaluation created the object,
	// preserving the paper's AST-node-to-source mapping. Like
	// phptoken.Pos it is an int32 that saturates at math.MaxInt32.
	Line int32

	// Val holds the concrete value for KindConcrete.
	Val sexpr.Expr
	// Name is the symbol name (KindSymbol), built-in function name
	// (KindFunc), or operator spelling (KindOp).
	Name string
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

// chunkBits sizes the arena's chunks at 64 objects (1,280 bytes, itself
// an allocation size class) and the value chunks at 64 values (1 KiB):
// the graph of a small root does not pay for a mostly empty chunk, and a
// large graph still allocates one chunk per 64 objects instead of one
// per object.
const (
	chunkBits = 6
	chunkSize = 1 << chunkBits
)

// nameScanMax is the largest name table looked up by a linear scan; a
// table that grows past it gets a map. Most graphs hold a few dozen
// names or fewer, and a map would cost them more than it saves.
const nameScanMax = 32

// spilled is the operand count of a node whose list lives in the
// graph's overflow table.
const spilled = uint8(len(node{}.ops) + 1)

// node is one 20-byte arena slot: an object's kind, type, source line,
// payload reference and ordered operand list. ref indexes the graph's
// name table for a symbol, function or operation, and its value chunks
// for a concrete value; an array has no ref. The first two operands live
// inline in ops (nops of them); a third moves the whole list to the
// graph's overflow table, and ops[0] then holds the list's index there.
type node struct {
	kind ObjKind
	typ  sexpr.Type
	// nops is the number of operands held inline in ops, or spilled
	// once the list has moved to the overflow table.
	nops uint8
	line int32
	ref  int32
	ops  [2]Label
}

// Graph is the heap graph. Objects live in an arena of fixed-size chunks
// indexed by label, and chunks never move. A graph holds few distinct
// names and many objects, so each name is stored once in names and the
// node holds its index; each concrete object has its own slot in vals.
type Graph struct {
	chunks []*[chunkSize]node
	vals   []*[chunkSize]sexpr.Expr
	nvals  int32
	names  []string
	// nameIdx indexes names once the table holds more than nameScanMax.
	nameIdx map[string]int32
	// spill holds the operand lists of nodes with three or more operands.
	spill  [][]Label
	arrays map[Label]*ArrayInfo
	next   Label
	symSeq int
}

// New returns an empty heap graph.
func New() *Graph {
	return &Graph{arrays: map[Label]*ArrayInfo{}}
}

// slot returns the arena slot of a label, or nil for Null and for labels
// no object has.
func (g *Graph) slot(l Label) *node {
	if l <= Null || l > g.next {
		return nil
	}
	i := int(l - 1)
	return &g.chunks[i>>chunkBits][i&(chunkSize-1)]
}

// Find returns the object with the given label, and false for Null and
// for labels no object has (the paper's Find(G, l)).
func (g *Graph) Find(l Label) (Object, bool) {
	n := g.slot(l)
	if n == nil {
		return Object{}, false
	}
	o := Object{Kind: n.kind, Type: n.typ, Line: n.line}
	switch n.kind {
	case KindConcrete:
		o.Val = g.vals[n.ref>>chunkBits][n.ref&(chunkSize-1)]
	case KindArray:
	default:
		o.Name = g.names[n.ref]
	}
	return o, true
}

// NumObjects returns the number of objects in the graph (Table III's
// "Objects" column).
func (g *Graph) NumObjects() int { return int(g.next) }

func (g *Graph) add(kind ObjKind, t sexpr.Type, ref int32, line int) Label {
	i := int(g.next)
	if i&(chunkSize-1) == 0 {
		g.chunks = append(g.chunks, new([chunkSize]node))
	}
	g.next++
	g.chunks[i>>chunkBits][i&(chunkSize-1)] = node{kind: kind, typ: t, line: line32(line), ref: ref}
	return g.next
}

// nameRef returns the name table index of name, adding it if the table
// does not hold it yet.
func (g *Graph) nameRef(name string) int32 {
	if g.nameIdx != nil {
		if i, ok := g.nameIdx[name]; ok {
			return i
		}
	} else {
		for i, s := range g.names {
			if s == name {
				return int32(i)
			}
		}
	}
	i := int32(len(g.names))
	if g.names == nil {
		// Room for every name a linear scan serves: a root's graph holds
		// 10 to 24 names on the corpus and 300 screening plugins, and
		// growing the table to them would take five or six allocations.
		g.names = make([]string, 0, nameScanMax)
	}
	g.names = append(g.names, name)
	switch {
	case g.nameIdx != nil:
		g.nameIdx[name] = i
	case len(g.names) > nameScanMax:
		g.nameIdx = make(map[string]int32, len(g.names))
		for j, s := range g.names {
			g.nameIdx[s] = int32(j)
		}
	}
	return i
}

// valRef stores v in a fresh value slot and returns its index. Values
// are not interned: == on sexpr.Expr merges 0.0 with -0.0 and never
// matches a NaN, and a graph with many distinct constants would pay for
// the index.
func (g *Graph) valRef(v sexpr.Expr) int32 {
	i := g.nvals
	if i&(chunkSize-1) == 0 {
		g.vals = append(g.vals, new([chunkSize]sexpr.Expr))
	}
	g.nvals++
	g.vals[i>>chunkBits][i&(chunkSize-1)] = v
	return i
}

// line32 narrows a source line to Object.Line, saturating instead of
// wrapping.
func line32(line int) int32 {
	return int32(max(math.MinInt32, min(line, math.MaxInt32)))
}

// NewConcrete creates and adds an object for a concrete value (the paper's
// Create_Concrete_Obj + Add_Concrete_Obj). The value's own type is used.
func (g *Graph) NewConcrete(v sexpr.Expr, line int) Label {
	return g.add(KindConcrete, v.Kind(), g.valRef(v), line)
}

// NewSymbol creates a symbolic-value object. An empty name generates a
// fresh unique one (the paper's randomly-generated symbol names).
func (g *Graph) NewSymbol(name string, t sexpr.Type, line int) Label {
	if name == "" {
		g.symSeq++
		name = "s_" + strconv.Itoa(g.symSeq)
	}
	return g.add(KindSymbol, t, g.nameRef(name), line)
}

// NewFunc creates an object for a built-in function invocation whose result
// type is t.
func (g *Graph) NewFunc(name string, t sexpr.Type, line int) Label {
	return g.add(KindFunc, t, g.nameRef(name), line)
}

// NewOp creates an operation object (the paper's Create_OP_Obj).
func (g *Graph) NewOp(op string, t sexpr.Type, line int) Label {
	return g.add(KindOp, t, g.nameRef(op), line)
}

// NewArray creates an empty array object.
func (g *Graph) NewArray(line int) Label {
	l := g.add(KindArray, sexpr.Array, 0, line)
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
// right operands). An edge from a label with no object is dropped.
func (g *Graph) AddEdge(from, to Label) {
	n := g.slot(from)
	switch {
	case n == nil:
	case n.nops == spilled:
		g.spill[n.ops[0]] = append(g.spill[n.ops[0]], to)
	case int(n.nops) < len(n.ops):
		n.ops[n.nops] = to
		n.nops++
	default:
		g.spill = append(g.spill, []Label{n.ops[0], n.ops[1], to})
		n.ops = [2]Label{Label(len(g.spill) - 1)}
		n.nops = spilled
	}
}

// Edges returns the ordered operand labels of an object, or nil. The
// slice's capacity is its length, so appending to it copies instead of
// writing into the graph.
func (g *Graph) Edges(l Label) []Label {
	n := g.slot(l)
	switch {
	case n == nil || n.nops == 0:
		return nil
	case n.nops == spilled:
		ops := g.spill[n.ops[0]]
		return ops[:len(ops):len(ops)]
	default:
		return n.ops[:n.nops:n.nops]
	}
}

// ToSexpr renders the value rooted at l as a PHP-semantics s-expression by
// traversing the heap graph (the paper's Section III-B1 observation that
// the tree-like structure of the heap graph enables s-expression
// representations). Sharing is preserved logically; cycles (which cannot
// arise from the interpreter) are cut with fresh symbols for safety.
func (g *Graph) ToSexpr(l Label) sexpr.Expr {
	return g.toSexpr(l, map[Label]bool{})
}

func (g *Graph) toSexpr(l Label, visiting map[Label]bool) sexpr.Expr {
	o, ok := g.Find(l)
	if !ok {
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
		for _, e := range g.Edges(l) {
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
		for _, e := range g.Edges(l) {
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
		if o, ok := g.Find(l); ok && o.Name == name {
			return true
		}
		for _, e := range g.Edges(l) {
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
		o, ok := g.Find(x)
		if !ok {
			return
		}
		if o.Line > 0 {
			lineSet[int(o.Line)] = true
		}
		for _, e := range g.Edges(x) {
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
