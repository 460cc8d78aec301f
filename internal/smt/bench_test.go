package smt

import (
	"fmt"
	"testing"
)

// The micro-benchmarks below measure the tentpole claim of the shared-
// structure constraint engine: constructing and deciding the per-sink
// three-constraint models of one root costs markedly less when the terms
// are hash-consed, because the path-condition prefix shared by sibling
// sinks is simplified once and the extension disjunction is recognized by
// pointer identity instead of re-simplified per sink.
//
// Each sub-benchmark pair builds the SAME formulas through the same code
// path; "direct" uses a nil factory (the Options.DisableIntern ablation), "interned"
// a fresh Factory per iteration (the per-root lifetime the scanner uses).
// Construction cost is included on both sides — the comparison is the
// end-to-end per-root constraint-pipeline cost.

// benchSinkModels builds nSinks vulnerability models sharing one path-
// condition prefix of the given depth, mirroring the interpreter's output:
// reach_i = And(prefix, branch_i), ext_i over a shared destination shape.
func benchSinkModels(f *Factory, nSinks, depth int) (exts, reaches []*Term) {
	// The prefix is a left-nested And chain, exactly the shape Env.ER
	// builds one conditional at a time.
	prefix := f.Eq(f.Var("c0", SortString), f.Str("v0"))
	for i := 1; i < depth; i++ {
		prefix = f.And(prefix, f.Eq(f.Var(fmt.Sprintf("c%d", i), SortString), f.Str(fmt.Sprintf("v%d", i))))
	}
	dst := f.Concat(f.Str("/uploads/"), f.Var("name", SortString))
	for s := 0; s < nSinks; s++ {
		ext := f.Or(
			f.SuffixOf(f.Str(".php"), dst),
			f.SuffixOf(f.Str(".php5"), dst),
		)
		// Sinks alternate between a handful of guard shapes, the way call
		// sites inside the same handler share most of their path condition.
		reach := f.And(prefix, f.Eq(f.Var("mode", SortString), f.Str(fmt.Sprintf("m%d", s%4))))
		exts = append(exts, ext)
		reaches = append(reaches, reach)
	}
	return exts, reaches
}

// BenchmarkSimplifyShared: fixpoint-simplify every sink's combined
// constraint. The interned side memoizes the shared prefix's rewrites
// across sinks; the direct side re-walks it every time.
func BenchmarkSimplifyShared(b *testing.B) {
	const nSinks, depth = 16, 40
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f *Factory
			exts, reaches := benchSinkModels(f, nSinks, depth)
			for s := range exts {
				_ = f.Simplify(f.And(exts[s], reaches[s]))
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewFactory()
			exts, reaches := benchSinkModels(f, nSinks, depth)
			for s := range exts {
				_ = f.Simplify(f.And(exts[s], reaches[s]))
			}
		}
	})
}

// BenchmarkSolverIncremental: decide every sink of a root. The direct
// side is the old monolithic pipeline (fresh conjunction, full check);
// the interned side is the scanner's staged session (push/assert/pop)
// over a factory-backed solver.
func BenchmarkSolverIncremental(b *testing.B) {
	const nSinks, depth = 16, 24
	b.Run("monolithic-direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f *Factory
			solver := NewSolver(Options{})
			exts, reaches := benchSinkModels(f, nSinks, depth)
			for s := range exts {
				if _, _, _, err := solver.Check(f.And(exts[s], reaches[s])); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("session-interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewFactory()
			solver := NewSolverWithFactory(Options{}, f)
			sess := solver.NewSession()
			exts, reaches := benchSinkModels(f, nSinks, depth)
			for s := range exts {
				sess.Push()
				sess.Assert(exts[s])
				var st Stats
				if !sess.QuickUnsat(&st) {
					sess.Assert(reaches[s])
					if _, _, _, err := sess.Check(); err != nil {
						b.Fatal(err)
					}
				}
				sess.Pop()
			}
		}
	})
}

// BenchmarkInternConstruction isolates pure construction: building the
// same formulas with and without the intern table, no solving.
func BenchmarkInternConstruction(b *testing.B) {
	const nSinks, depth = 16, 40
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkModels(nil, nSinks, depth)
		}
	})
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkModels(NewFactory(), nSinks, depth)
		}
	})
}
