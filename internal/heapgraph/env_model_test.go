package heapgraph

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/sexpr"
)

// The layered frames are checked here against an independent reference:
// a naive environment that copies every scope map eagerly on fork, with
// none of the layer, delta or deletion-marker machinery.

// refFrame is one scope of the reference model.
type refFrame struct {
	vars    map[string]Label
	imports map[string]bool
}

// refEnv is the reference model of Env's variable scopes.
type refEnv struct{ frames []refFrame }

func newRefEnv() *refEnv {
	return &refEnv{frames: []refFrame{{vars: map[string]Label{}, imports: map[string]bool{}}}}
}

func (r *refEnv) top() refFrame { return r.frames[len(r.frames)-1] }

func (r *refEnv) clone() *refEnv {
	n := &refEnv{}
	for _, f := range r.frames {
		n.frames = append(n.frames, refFrame{vars: maps.Clone(f.vars), imports: maps.Clone(f.imports)})
	}
	return n
}

func (r *refEnv) push() {
	r.frames = append(r.frames, refFrame{vars: map[string]Label{}, imports: map[string]bool{}})
}

func (r *refEnv) pop() {
	top := r.top()
	for name := range top.imports {
		if l, ok := top.vars[name]; ok {
			r.frames[0].vars[name] = l
		}
	}
	r.frames = r.frames[:len(r.frames)-1]
}

// importGlobal mirrors Env.ImportGlobal and reports whether it had to
// create the global.
func (r *refEnv) importGlobal(name string, fresh Label) (created bool) {
	l, ok := r.frames[0].vars[name]
	if !ok {
		l, created = fresh, true
		r.frames[0].vars[name] = l
	}
	r.top().vars[name] = l
	r.top().imports[name] = true
	return created
}

func (r *refEnv) names() []string {
	out := []string{}
	for name := range r.top().vars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// equivalentModulo is the flat comparison: every frame's whole map, with
// the ignored names dropped from the top frame on both sides.
func (r *refEnv) equivalentModulo(o *refEnv, ignore map[string]bool) bool {
	if len(r.frames) != len(o.frames) {
		return false
	}
	top := len(r.frames) - 1
	visible := func(i int, vars map[string]Label) map[string]Label {
		out := map[string]Label{}
		for name, l := range vars {
			if i != top || !ignore[name] {
				out[name] = l
			}
		}
		return out
	}
	for i := range r.frames {
		a, b := r.frames[i], o.frames[i]
		if !maps.Equal(visible(i, a.vars), visible(i, b.vars)) || !maps.Equal(a.imports, b.imports) {
			return false
		}
	}
	return true
}

// modelPair is one member of the forked family: the environment under
// test and its reference.
type modelPair struct {
	env *Env
	ref *refEnv
}

var modelNames = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}

// checkAgainstModel compares one environment with its reference on every
// name of the pool, on VarNames and on the scope depth, and checks the
// chain bound.
func checkAgainstModel(t *testing.T, step int, p modelPair) {
	t.Helper()
	if p.env.Depth() != len(p.ref.frames) {
		t.Fatalf("step %d: depth %d, model %d", step, p.env.Depth(), len(p.ref.frames))
	}
	for _, name := range modelNames {
		want, ok := p.ref.top().vars[name]
		if got := p.env.Get(name); got != want {
			t.Fatalf("step %d: Get(%q) = %d, model %d", step, name, got, want)
		}
		if got := p.env.Has(name); got != ok {
			t.Fatalf("step %d: Has(%q) = %v, model %v", step, name, got, ok)
		}
	}
	if got, want := p.env.VarNames(), p.ref.names(); !slices.Equal(got, want) {
		t.Fatalf("step %d: VarNames = %v, model %v", step, got, want)
	}
	for i := range p.env.frames {
		if h := p.env.frames[i].base.height(); h > maxLayers {
			t.Fatalf("step %d: frame %d chain height %d exceeds %d", step, i, h, maxLayers)
		}
	}
}

// TestEnvMatchesEagerModel runs fixed-seed random sequences of Bind,
// Unbind, Clone, PushScope, PopScope, ImportGlobal, Get, Has and
// EquivalentModulo across a family of forked environments, switching
// between siblings, and compares every member with the eager-copy
// reference after every step.
func TestEnvMatchesEagerModel(t *testing.T) {
	const (
		steps     = 20000
		maxFamily = 10
		maxDepth  = 4
	)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		family := []modelPair{{NewEnv(), newRefEnv()}}
		next := Label(100)
		var flattens, equal, unequal int
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(family))
			p := family[i]
			name := modelNames[rng.Intn(len(modelNames))]
			switch op := rng.Intn(100); {
			case op < 30:
				// A small label pool (Null included) makes equal
				// bindings on different paths common.
				l := Label(rng.Intn(5))
				p.env.Bind(name, l)
				p.ref.top().vars[name] = l
			case op < 40:
				p.env.Unbind(name)
				delete(p.ref.top().vars, name)
			case op < 60:
				top := &p.env.frames[len(p.env.frames)-1]
				h := top.base.height()
				if top.delta != nil && len(top.delta.vars) > 0 {
					h++
				}
				if h > maxLayers {
					flattens++
				}
				c := modelPair{p.env.Clone(), p.ref.clone()}
				if len(family) < maxFamily {
					family = append(family, c)
				} else if j := rng.Intn(len(family)); j != i {
					family[j] = c
				}
			case op < 68:
				if p.env.Depth() < maxDepth {
					p.env.PushScope()
					p.ref.push()
				}
			case op < 76:
				if p.env.Depth() > 1 {
					p.env.PopScope()
					p.ref.pop()
				}
			case op < 82:
				next++
				fresh, created := next, false
				p.env.ImportGlobal(name, func() Label { created = true; return fresh })
				if want := p.ref.importGlobal(name, fresh); created != want {
					t.Fatalf("seed %d step %d: ImportGlobal(%q) created=%v, model %v", seed, step, name, created, want)
				}
			default:
				o := family[rng.Intn(len(family))]
				ignore := map[string]bool{}
				for _, n := range modelNames {
					if rng.Intn(4) == 0 {
						ignore[n] = true
					}
				}
				got := p.env.EquivalentModulo(o.env, ignore)
				if want := p.ref.equivalentModulo(o.ref, ignore); got != want {
					t.Fatalf("seed %d step %d: EquivalentModulo = %v, flat comparison %v", seed, step, got, want)
				}
				if got {
					equal++
				} else {
					unequal++
				}
			}
			for _, q := range family {
				checkAgainstModel(t, step, q)
			}
		}
		t.Logf("seed %d: %d flattening clones, EquivalentModulo equal=%d unequal=%d", seed, flattens, equal, unequal)
		// The sequence must cross the chain bound several times, and
		// EquivalentModulo must have seen both outcomes.
		if flattens < 5*maxLayers {
			t.Errorf("seed %d: only %d clones flattened a chain", seed, flattens)
		}
		if equal < 100 || unequal < 100 {
			t.Errorf("seed %d: EquivalentModulo outcomes equal=%d unequal=%d, want both >= 100", seed, equal, unequal)
		}
	}
}

// TestEnvGetAfterManyForks pins the chain bound directly: a name bound
// before the first fork stays readable, and shadowed and deleted names
// resolve correctly, after many more fork-then-write rounds than the
// bound.
func TestEnvGetAfterManyForks(t *testing.T) {
	e := NewEnv()
	e.Bind("base", 7)
	e.Bind("gone", 8)
	for r := 0; r < 4*maxLayers+3; r++ {
		e = e.Clone()
		e.Bind("round", Label(100+r))
		if r == maxLayers {
			e.Unbind("gone")
		}
		if h := e.top().base.height(); h > maxLayers {
			t.Fatalf("round %d: chain height %d exceeds %d", r, h, maxLayers)
		}
	}
	if e.Get("base") != 7 || e.Has("gone") || e.Get("round") != Label(100+4*maxLayers+2) {
		t.Fatalf("after forks: base=%d gone=%v round=%d", e.Get("base"), e.Has("gone"), e.Get("round"))
	}
	if got := e.VarNames(); !slices.Equal(got, []string{"base", "round"}) {
		t.Fatalf("VarNames = %v", got)
	}
}

// TestEdgesAppendDoesNotWriteGraph checks that a caller appending to an
// Edges result, inline (one or two operands) or spilled (more), never
// changes the graph.
func TestEdgesAppendDoesNotWriteGraph(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		g := New()
		op := g.NewOp("f", sexpr.Unknown, 1)
		other := g.NewOp("g", sexpr.Unknown, 1)
		var want []Label
		for i := 0; i < n; i++ {
			a := g.NewConcrete(sexpr.IntVal(int64(i)), 1)
			g.AddEdge(op, a)
			want = append(want, a)
		}
		g.AddEdge(other, want[0])
		edges := g.Edges(op)
		if cap(edges) != len(edges) {
			t.Fatalf("%d operands: Edges cap %d, len %d", n, cap(edges), len(edges))
		}
		_ = append(edges, Label(999))
		if got := g.Edges(op); !slices.Equal(got, want) {
			t.Fatalf("%d operands: after append Edges = %v, want %v", n, got, want)
		}
		if got := g.Edges(other); !slices.Equal(got, want[:1]) {
			t.Fatalf("%d operands: neighbour Edges = %v", n, got)
		}
		extra := g.NewConcrete(sexpr.IntVal(9), 1)
		g.AddEdge(op, extra)
		if got := g.Edges(op); !slices.Equal(got, append(want, extra)) {
			t.Fatalf("%d operands: AddEdge after append = %v", n, got)
		}
	}
}

// TestArenaFindBounds checks Find across chunk boundaries: every label
// resolves to its own object, an object reads the same as the arena
// grows past it, and Null, negative and past-the-end labels report no
// object.
func TestArenaFindBounds(t *testing.T) {
	g := New()
	first := g.NewSymbol("first", sexpr.Unknown, 1)
	before := mustFind(t, g, first)
	for i := 0; i < 3*chunkSize; i++ {
		g.NewConcrete(sexpr.IntVal(int64(i)), i+2)
	}
	if after := mustFind(t, g, first); after != before || after.Name != "first" {
		t.Fatalf("Find(%d) changed as the arena grew: %+v, then %+v", first, before, after)
	}
	n := g.NumObjects()
	if n != 3*chunkSize+1 {
		t.Fatalf("NumObjects = %d, want %d", n, 3*chunkSize+1)
	}
	for l := Label(2); l <= Label(n); l++ {
		o, ok := g.Find(l)
		if !ok || int(o.Line) != int(l) || o.Val != sexpr.IntVal(int64(l-2)) {
			t.Fatalf("Find(%d) = %+v, %v", l, o, ok)
		}
	}
	for _, l := range []Label{Null, -1, Label(n + 1), Label(n + chunkSize)} {
		if o, ok := g.Find(l); ok {
			t.Errorf("Find(%d) = %+v, want no object", l, o)
		}
		if g.Edges(l) != nil {
			t.Errorf("Edges(%d) = %v, want nil", l, g.Edges(l))
		}
	}
}
