package heapgraph

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/sexpr"
)

// TestLayoutSizes pins the sizes the arena, Clone and the scope deltas
// are tuned for: a node is 20 bytes (a chunk of chunkSize of them is
// 1,280 bytes, itself an allocation size class), a value chunk is 1 KiB,
// Clone copies 32 bytes per frame into a 64-byte Env, and a delta layer
// with its two inline bindings fills the 80-byte size class. A field
// that pushes any of them past its size fails here.
func TestLayoutSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"node", unsafe.Sizeof(node{}), 20},
		{"chunk", unsafe.Sizeof([chunkSize]node{}), 1280},
		{"value chunk", unsafe.Sizeof([chunkSize]sexpr.Expr{}), 1024},
		{"frame", unsafe.Sizeof(frame{}), 32},
		{"Env", unsafe.Sizeof(Env{}), 64},
		{"deltaLayer", unsafe.Sizeof(deltaLayer{}), 80},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
		}
	}
}

// TestOperandListsMatchModel runs fixed-seed random sequences of NewOp,
// NewConcrete and AddEdge over several chunks, giving each operation
// between 0 and 6 operands in interleaved order, and checks every
// object's Edges against a reference map after each step. Appending to
// an Edges result must never change the graph.
func TestOperandListsMatchModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		want := map[Label][]Label{}
		var ops []Label
		for step := 0; step < 4*chunkSize*6; step++ {
			switch r := rng.Intn(10); {
			case r < 2 || len(ops) == 0:
				l := g.NewOp("f", sexpr.Unknown, step)
				ops = append(ops, l)
				want[l] = nil
			case r < 4:
				g.NewConcrete(sexpr.IntVal(int64(step)), step)
			default:
				from := ops[rng.Intn(len(ops))]
				if len(want[from]) == 6 {
					continue
				}
				to := Label(rng.Intn(g.NumObjects()) + 1)
				g.AddEdge(from, to)
				want[from] = append(want[from], to)
			}
			if step%97 != 0 {
				continue
			}
			for l := Label(1); l <= Label(g.NumObjects()); l++ {
				got := g.Edges(l)
				if !slices.Equal(got, want[l]) {
					t.Fatalf("seed %d step %d: Edges(%d) = %v, model %v", seed, step, l, got, want[l])
				}
				if cap(got) != len(got) {
					t.Fatalf("seed %d step %d: Edges(%d) cap %d, len %d", seed, step, l, cap(got), len(got))
				}
				_ = append(got, Label(-7))
			}
			for l, w := range want {
				if got := g.Edges(l); !slices.Equal(got, w) {
					t.Fatalf("seed %d step %d: after appends Edges(%d) = %v, model %v", seed, step, l, got, w)
				}
			}
		}
		if g.NumObjects() < 3*chunkSize {
			t.Fatalf("seed %d: %d objects span fewer than three chunks", seed, g.NumObjects())
		}
		spilled := 0
		for _, w := range want {
			if len(w) > 2 {
				spilled++
			}
		}
		if spilled == 0 {
			t.Fatalf("seed %d: no operation took a third operand", seed)
		}
	}
}

// TestPayloadsMatchModel runs fixed-seed random sequences of
// NewConcrete, NewSymbol, NewFunc, NewOp, NewArray and AddEdge over more
// than four chunks and checks every object Find reports against a
// reference Object after each step. The values cover every sexpr kind,
// 0.0 followed by -0.0, a NaN, the empty string and an *App; the names
// repeat, include fresh symbols, and number well past nameScanMax, so
// the name table is read both before and after it gains its map.
func TestPayloadsMatchModel(t *testing.T) {
	negZero := math.Copysign(0, -1)
	app := &sexpr.App{Op: "f", Type: sexpr.String, Args: []sexpr.Expr{sexpr.StrVal("a")}}
	values := []sexpr.Expr{
		sexpr.FloatVal(0), sexpr.FloatVal(negZero), sexpr.FloatVal(math.NaN()),
		sexpr.FloatVal(1.5), sexpr.StrVal(""), sexpr.StrVal("x"), sexpr.IntVal(0),
		sexpr.IntVal(-3), sexpr.BoolVal(true), sexpr.BoolVal(false),
		sexpr.NullVal{}, sexpr.NewSym("v", sexpr.Int), app,
	}
	types := []sexpr.Type{sexpr.Unknown, sexpr.Bool, sexpr.Int, sexpr.Float, sexpr.String, sexpr.Array, sexpr.Null}
	var names []string
	for i := 0; i < 2*nameScanMax; i++ {
		names = append(names, "n"+strconv.Itoa(i))
	}
	names = append(names, "", ".", "s_2")
	sameVal := func(a, b sexpr.Expr) bool {
		if x, ok := a.(sexpr.FloatVal); ok {
			y, ok := b.(sexpr.FloatVal)
			return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
		}
		return a == b
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var want []Object
		fresh := 0
		add := func(l Label, o Object) {
			if int(l) != len(want)+1 {
				t.Fatalf("seed %d: label %d after %d objects", seed, l, len(want))
			}
			want = append(want, o)
		}
		for step := 0; step < 5*chunkSize; step++ {
			line := rng.Intn(200) - 20
			typ := types[rng.Intn(len(types))]
			name := names[rng.Intn(len(names))]
			switch r := rng.Intn(12); {
			case step < 2 || r < 4:
				// The first two steps store 0.0, then -0.0.
				v := values[rng.Intn(len(values))]
				if step < 2 {
					v = values[step]
				}
				add(g.NewConcrete(v, line), Object{Kind: KindConcrete, Type: v.Kind(), Line: int32(line), Val: v})
			case r < 5:
				fresh++
				add(g.NewSymbol("", typ, line), Object{Kind: KindSymbol, Type: typ, Line: int32(line), Name: "s_" + strconv.Itoa(fresh)})
			case r < 7 && name != "":
				add(g.NewSymbol(name, typ, line), Object{Kind: KindSymbol, Type: typ, Line: int32(line), Name: name})
			case r < 8:
				add(g.NewFunc(name, typ, line), Object{Kind: KindFunc, Type: typ, Line: int32(line), Name: name})
			case r < 10:
				add(g.NewOp(name, typ, line), Object{Kind: KindOp, Type: typ, Line: int32(line), Name: name})
			case r < 11:
				add(g.NewArray(line), Object{Kind: KindArray, Type: sexpr.Array, Line: int32(line)})
			default:
				g.AddEdge(Label(rng.Intn(len(want)+1)), Label(rng.Intn(len(want))+1))
			}
			for i, w := range want {
				l := Label(i + 1)
				got, ok := g.Find(l)
				if !ok || got.Kind != w.Kind || got.Type != w.Type || got.Line != w.Line || got.Name != w.Name || !sameVal(got.Val, w.Val) {
					t.Fatalf("seed %d step %d: Find(%d) = %+v, %v; model %+v", seed, step, l, got, ok, w)
				}
			}
			for _, l := range []Label{Null, -1, math.MinInt32, Label(len(want) + 1), Label(len(want) + chunkSize)} {
				if o, ok := g.Find(l); ok {
					t.Fatalf("seed %d step %d: Find(%d) = %+v, want no object", seed, step, l, o)
				}
			}
		}
		if g.NumObjects() < 4*chunkSize {
			t.Fatalf("seed %d: %d objects span fewer than four chunks", seed, g.NumObjects())
		}
		if len(g.names) <= nameScanMax || g.nameIdx == nil {
			t.Fatalf("seed %d: the name table holds %d names and no map", seed, len(g.names))
		}
	}
}

// TestLineSaturates checks that a line past math.MaxInt32 is stored as
// math.MaxInt32 instead of wrapping, and that Lines never reports a
// negative or zero line.
func TestLineSaturates(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("an int line cannot exceed MaxInt32 on this target")
	}
	line := func(v int64) int { return int(v) }
	g := New()
	far := g.NewSymbol("far", sexpr.String, line(math.MaxInt32+5))
	wrap := g.NewConcrete(sexpr.StrVal("x"), line(1<<32+3))
	neg := g.NewConcrete(sexpr.StrVal("y"), line(-(1<<32)+9))
	zero := g.NewFunc("g", sexpr.String, 0)
	op := g.NewOp(".", sexpr.String, 4)
	for _, l := range []Label{far, wrap, neg, zero} {
		g.AddEdge(op, l)
	}
	if got := mustFind(t, g, far).Line; got != math.MaxInt32 {
		t.Errorf("line past MaxInt32 stored as %d", got)
	}
	if got := mustFind(t, g, wrap).Line; got != math.MaxInt32 {
		t.Errorf("line 2^32+3 stored as %d, want MaxInt32", got)
	}
	if got := mustFind(t, g, neg).Line; got != math.MinInt32 {
		t.Errorf("line -2^32+9 stored as %d, want MinInt32", got)
	}
	if got := g.Lines(op); !slices.Equal(got, []int{4, math.MaxInt32}) {
		t.Errorf("Lines = %v, want [4 %d]", got, math.MaxInt32)
	}
}
