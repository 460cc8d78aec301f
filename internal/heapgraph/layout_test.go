package heapgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sexpr"
)

// TestLayoutSizes pins the sizes the arena, Clone and the scope deltas
// are tuned for: a node fills one 48-byte slot (a chunk of chunkSize of
// them is 3 KiB, itself an allocation size class), Clone copies 32 bytes
// per frame into a 64-byte Env, and a delta layer with its two inline
// bindings fills the 80-byte size class. A field that pushes any of
// them past its size fails here.
func TestLayoutSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"Object", unsafe.Sizeof(Object{}), 40},
		{"node", unsafe.Sizeof(node{}), 48},
		{"chunk", unsafe.Sizeof([chunkSize]node{}), 3072},
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
	if got := g.Find(far).Line; got != math.MaxInt32 {
		t.Errorf("line past MaxInt32 stored as %d", got)
	}
	if got := g.Find(wrap).Line; got != math.MaxInt32 {
		t.Errorf("line 2^32+3 stored as %d, want MaxInt32", got)
	}
	if got := g.Find(neg).Line; got != math.MinInt32 {
		t.Errorf("line -2^32+9 stored as %d, want MinInt32", got)
	}
	if got := g.Lines(op); !slices.Equal(got, []int{4, math.MaxInt32}) {
		t.Errorf("Lines = %v, want [4 %d]", got, math.MaxInt32)
	}
}
