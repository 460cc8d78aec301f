package heapgraph

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/sexpr"
)

// deepCloneEnv is the eager clone the layered frames replaced: every
// frame's visible bindings are copied into a private map of the clone's
// own. Kept here as the benchmark baseline the layered representation is
// measured against.
func deepCloneEnv(e *Env) *Env {
	n := &Env{
		frames:     make([]frame, len(e.frames)),
		Cur:        e.Cur,
		Returned:   e.Returned,
		Terminated: e.Terminated,
		BreakN:     e.BreakN,
		ContinueN:  e.ContinueN,
	}
	for i := range e.frames {
		n.frames[i] = flatCopy(&e.frames[i])
	}
	if len(e.Tmp) > 0 {
		n.Tmp = append([]Label(nil), e.Tmp...)
	}
	return n
}

// flatCopy returns a frame with no layers whose delta holds a private
// copy of every binding f can see.
func flatCopy(f *frame) frame {
	var vars map[string]Label
	if f.base != nil {
		vars = f.base.flatVars()
	} else {
		vars = make(map[string]Label, len(f.delta))
	}
	for name, l := range f.delta {
		if l == deleted {
			delete(vars, name)
		} else {
			vars[name] = l
		}
	}
	return frame{delta: vars, globalImports: maps.Clone(f.globalImports)}
}

// benchEnv builds an environment with the given scope depth and bindings
// per frame — the shape of a deeply inlined call chain at a fork site.
func benchEnv(g *Graph, depth, bindings int) *Env {
	e := NewEnv()
	for d := 0; d < depth; d++ {
		for i := 0; i < bindings; i++ {
			e.Bind(fmt.Sprintf("v%d_%d", d, i), g.NewConcrete(sexpr.IntVal(int64(i)), d+1))
		}
		if d < depth-1 {
			e.PushScope()
		}
	}
	return e
}

// BenchmarkPathForkDeep measures one symbolic fork (clone + one write on
// the forked path, the interpreter's pattern at every conditional) on a
// deep, well-populated environment. "deepcopy" is the old eager clone;
// "cow" the layered clone.
func BenchmarkPathForkDeep(b *testing.B) {
	for _, shape := range []struct{ depth, bindings int }{
		{4, 16},
		{16, 32},
		{32, 64},
	} {
		name := fmt.Sprintf("d%d_b%d", shape.depth, shape.bindings)
		g := New()
		l := g.NewConcrete(sexpr.IntVal(42), 1)

		b.Run("deepcopy/"+name, func(b *testing.B) {
			b.ReportAllocs()
			e := benchEnv(g, shape.depth, shape.bindings)
			for i := 0; i < b.N; i++ {
				c := deepCloneEnv(e)
				c.Bind("forked", l)
			}
		})
		b.Run("cow/"+name, func(b *testing.B) {
			b.ReportAllocs()
			e := benchEnv(g, shape.depth, shape.bindings)
			for i := 0; i < b.N; i++ {
				c := e.Clone()
				c.Bind("forked", l)
			}
		})
	}
}

var sinkLabel Label

// BenchmarkEnvGetForked measures one Get of a name bound before the first
// fork, after 1, maxLayers and 4×maxLayers fork-then-write rounds. The
// name lives in the oldest layer, so the lookup walks the whole chain;
// Clone's flattening keeps that walk at most maxLayers+1 maps however
// many rounds ran.
func BenchmarkEnvGetForked(b *testing.B) {
	for _, rounds := range []int{1, maxLayers, 4 * maxLayers} {
		b.Run(fmt.Sprintf("rounds_%d", rounds), func(b *testing.B) {
			g := New()
			l := g.NewConcrete(sexpr.IntVal(42), 1)
			e := benchEnv(g, 1, 64)
			for r := 0; r < rounds; r++ {
				e = e.Clone()
				e.Bind(fmt.Sprintf("w%d", r), l)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkLabel = e.Get("v0_0")
			}
		})
	}
}
