package heapgraph

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sexpr"
)

func TestObjectCreation(t *testing.T) {
	g := New()
	c := g.NewConcrete(sexpr.IntVal(55), 2)
	s := g.NewSymbol("s_b", sexpr.Int, 3)
	f := g.NewFunc("wp_upload_dir", sexpr.Unknown, 4)
	o := g.NewOp("+", sexpr.Int, 5)

	if g.NumObjects() != 4 {
		t.Errorf("objects = %d", g.NumObjects())
	}
	labels := []Label{c, s, f, o}
	seen := map[Label]bool{}
	for _, l := range labels {
		if l == Null {
			t.Error("Null label assigned")
		}
		if seen[l] {
			t.Errorf("duplicate label %d", l)
		}
		seen[l] = true
	}
	if got := mustFind(t, g, c); got.Kind != KindConcrete || got.Type != sexpr.Int {
		t.Errorf("concrete = %+v", got)
	}
	if got := mustFind(t, g, s); got.Name != "s_b" || got.Line != 3 {
		t.Errorf("symbol = %+v", got)
	}
	if _, ok := g.Find(Label(999)); ok {
		t.Error("Find of unknown label should report no object")
	}
}

// mustFind returns the object at l, failing the test when there is none.
func mustFind(t *testing.T, g *Graph, l Label) Object {
	t.Helper()
	o, ok := g.Find(l)
	if !ok {
		t.Fatalf("Find(%d): no object", l)
	}
	return o
}

func TestFreshSymbolNamesUnique(t *testing.T) {
	g := New()
	a := g.NewSymbol("", sexpr.Unknown, 1)
	b := g.NewSymbol("", sexpr.Unknown, 1)
	if mustFind(t, g, a).Name == mustFind(t, g, b).Name {
		t.Error("fresh symbols must have distinct names")
	}
}

// Figure 4 of the paper: the heap graph for Listing 2. We build it manually
// and verify the s-expression of path 1's reachability constraint is
// (> (+ s 55) 10).
func TestFigure4Manually(t *testing.T) {
	g := New()
	c55 := g.NewConcrete(sexpr.IntVal(55), 2) // label 1 in the paper
	s := g.NewSymbol("s", sexpr.Int, 3)       // label 2
	plus := g.NewOp("+", sexpr.Int, 3)        // label 3
	g.AddEdge(plus, s)
	g.AddEdge(plus, c55)
	c10 := g.NewConcrete(sexpr.IntVal(10), 4) // label 4
	gt := g.NewOp(">", sexpr.Bool, 4)         // label 5
	g.AddEdge(gt, plus)
	g.AddEdge(gt, c10)
	c22 := g.NewConcrete(sexpr.IntVal(22), 5) // label 6
	minus := g.NewOp("-", sexpr.Int, 5)       // label 7
	g.AddEdge(minus, c22)
	g.AddEdge(minus, s)
	not := g.NewOp("NOT", sexpr.Bool, 6) // label 8
	g.AddEdge(not, gt)
	c88 := g.NewConcrete(sexpr.IntVal(88), 7) // label 9

	if g.NumObjects() != 9 {
		t.Errorf("objects = %d, want 9 (paper labels 1..9)", g.NumObjects())
	}

	// Environments per the paper: Env1 {a->7, b->2, cur=5}, Env2 {a->9,
	// b->2, cur=8}.
	env1, env2 := NewEnv(), NewEnv()
	env1.Bind("a", minus)
	env1.Bind("b", s)
	env1.Cur = gt
	env2.Bind("a", c88)
	env2.Bind("b", s)
	env2.Cur = not

	if got := sexpr.Format(g.ToSexpr(env1.Cur)); got != "(> (+ s 55) 10)" {
		t.Errorf("path1 reachability = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(env2.Cur)); got != "(NOT (> (+ s 55) 10))" {
		t.Errorf("path2 reachability = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(env1.Get("a"))); got != "(- 22 s)" {
		t.Errorf("path1 a = %s", got)
	}
	if got := sexpr.Format(g.ToSexpr(env2.Get("a"))); got != "88" {
		t.Errorf("path2 a = %s", got)
	}
	// Object sharing across environments: both paths reference the same
	// symbol object for $b.
	if env1.Get("b") != env2.Get("b") {
		t.Error("object for $b should be shared across environments")
	}
}

func TestArrayObjects(t *testing.T) {
	g := New()
	arr := g.NewArray(1)
	v1 := g.NewConcrete(sexpr.StrVal("x"), 1)
	v2 := g.NewConcrete(sexpr.StrVal("y"), 2)
	g.SetElem(arr, "name", v1)
	g.SetElem(arr, "tmp", v2)

	if l, ok := g.Elem(arr, "name"); !ok || l != v1 {
		t.Errorf("Elem(name) = %d %v", l, ok)
	}
	if _, ok := g.Elem(arr, "missing"); ok {
		t.Error("missing key should not resolve")
	}
	// Overwrite does not duplicate the key.
	g.SetElem(arr, "name", v2)
	if got := len(g.Array(arr).Keys); got != 2 {
		t.Errorf("keys = %d", got)
	}
}

func TestArrayPush(t *testing.T) {
	g := New()
	arr := g.NewArray(1)
	a := g.NewConcrete(sexpr.IntVal(1), 1)
	b := g.NewConcrete(sexpr.IntVal(2), 1)
	if k := g.PushElem(arr, a); k != "0" {
		t.Errorf("first push key = %q", k)
	}
	if k := g.PushElem(arr, b); k != "1" {
		t.Errorf("second push key = %q", k)
	}
	// Mixed explicit integer key advances the counter.
	g.SetElem(arr, "10", a)
	if k := g.PushElem(arr, b); k != "11" {
		t.Errorf("push after explicit 10 = %q", k)
	}
}

func TestReaches(t *testing.T) {
	g := New()
	files := g.NewSymbol("$_FILES", sexpr.Array, 1)
	idx := g.NewConcrete(sexpr.StrVal("upload_file"), 1)
	access := g.NewOp("array_access", sexpr.Unknown, 1)
	g.AddEdge(access, files)
	g.AddEdge(access, idx)
	concat := g.NewOp(".", sexpr.String, 2)
	other := g.NewSymbol("s_dir", sexpr.String, 2)
	g.AddEdge(concat, other)
	g.AddEdge(concat, access)

	if !g.Reaches(concat, files) {
		t.Error("concat should reach $_FILES")
	}
	if g.Reaches(other, files) {
		t.Error("s_dir should not reach $_FILES")
	}
	if !g.ReachesName(concat, "$_FILES") {
		t.Error("ReachesName should find $_FILES")
	}
	if g.ReachesName(other, "$_FILES") {
		t.Error("ReachesName false positive")
	}
}

func TestReachesThroughArray(t *testing.T) {
	g := New()
	files := g.NewSymbol("$_FILES", sexpr.Array, 1)
	arr := g.NewArray(1)
	g.SetElem(arr, "inner", files)
	if !g.Reaches(arr, files) {
		t.Error("array element reachability")
	}
}

func TestLines(t *testing.T) {
	g := New()
	a := g.NewConcrete(sexpr.StrVal("/"), 7)
	b := g.NewSymbol("s", sexpr.String, 3)
	op := g.NewOp(".", sexpr.String, 5)
	g.AddEdge(op, b)
	g.AddEdge(op, a)
	if got := g.Lines(op); !reflect.DeepEqual(got, []int{3, 5, 7}) {
		t.Errorf("lines = %v", got)
	}
}

func TestEnvBasics(t *testing.T) {
	g := New()
	e := NewEnv()
	if e.Get("x") != Null {
		t.Error("unbound should be Null")
	}
	l := g.NewConcrete(sexpr.IntVal(1), 1)
	e.Bind("x", l)
	if e.Get("x") != l || !e.Has("x") {
		t.Error("bind/get broken")
	}
	e.Unbind("x")
	if e.Has("x") {
		t.Error("unbind broken")
	}
}

func TestEnvCloneIndependence(t *testing.T) {
	g := New()
	e := NewEnv()
	l1 := g.NewConcrete(sexpr.IntVal(1), 1)
	l2 := g.NewConcrete(sexpr.IntVal(2), 1)
	e.Bind("x", l1)
	c := e.Clone()
	c.Bind("x", l2)
	c.Bind("y", l2)
	if e.Get("x") != l1 {
		t.Error("clone write leaked into original")
	}
	if e.Has("y") {
		t.Error("clone binding leaked")
	}
}

func TestER(t *testing.T) {
	g := New()
	e := NewEnv()
	cond1 := g.NewOp(">", sexpr.Bool, 3)
	cond2 := g.NewOp("==", sexpr.Bool, 5)

	// First ER sets cur directly.
	e.ER(g, cond1, 3)
	if e.Cur != cond1 {
		t.Errorf("cur = %d, want %d", e.Cur, cond1)
	}
	// Null leaves cur unchanged.
	e.ER(g, Null, 4)
	if e.Cur != cond1 {
		t.Error("ER(Null) must not change cur")
	}
	// Second ER builds an And node over the previous cur and the new label.
	e.ER(g, cond2, 5)
	andObj, ok := g.Find(e.Cur)
	if !ok || andObj.Name != "And" || andObj.Kind != KindOp {
		t.Fatalf("cur object = %+v", andObj)
	}
	edges := g.Edges(e.Cur)
	if len(edges) != 2 || edges[0] != cond1 || edges[1] != cond2 {
		t.Errorf("And edges = %v", edges)
	}
}

func TestEnvSetLive(t *testing.T) {
	a, b := NewEnv(), NewEnv()
	b.Terminated = true
	s := EnvSet{a, b}
	if live := s.Live(); len(live) != 1 || live[0] != a {
		t.Errorf("live = %v", live)
	}
}

func TestToSexprNull(t *testing.T) {
	g := New()
	if _, ok := g.ToSexpr(Null).(sexpr.NullVal); !ok {
		t.Error("ToSexpr(Null) should be null")
	}
}

func TestToSexprArray(t *testing.T) {
	g := New()
	arr := g.NewArray(1)
	g.SetElem(arr, "k", g.NewConcrete(sexpr.StrVal("v"), 1))
	got := sexpr.Format(g.ToSexpr(arr))
	if got != `(array "k" "v")` {
		t.Errorf("array sexpr = %s", got)
	}
}

func TestToSexprCycleGuard(t *testing.T) {
	g := New()
	op := g.NewOp(".", sexpr.String, 1)
	g.AddEdge(op, op) // artificial cycle; interpreter never builds this
	e := g.ToSexpr(op)
	if e == nil {
		t.Fatal("nil sexpr")
	}
	// Must terminate and embed a cycle symbol.
	app, ok := e.(*sexpr.App)
	if !ok || len(app.Args) != 1 {
		t.Fatalf("got %s", sexpr.Format(e))
	}
	if _, ok := app.Args[0].(*sexpr.Sym); !ok {
		t.Errorf("cycle arg = %s", sexpr.Format(app.Args[0]))
	}
}

// Property: labels are unique and dense (1..N), for any creation sequence.
func TestLabelsUniqueProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := New()
		var labels []Label
		for _, op := range ops {
			switch op % 4 {
			case 0:
				labels = append(labels, g.NewConcrete(sexpr.IntVal(int64(op)), 1))
			case 1:
				labels = append(labels, g.NewSymbol("", sexpr.Unknown, 1))
			case 2:
				labels = append(labels, g.NewOp("+", sexpr.Int, 1))
			case 3:
				labels = append(labels, g.NewArray(1))
			}
		}
		seen := map[Label]bool{}
		for _, l := range labels {
			if l == Null || seen[l] {
				return false
			}
			seen[l] = true
		}
		return g.NumObjects() == len(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
