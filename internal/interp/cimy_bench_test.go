package interp_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/phpast"
	"repro/internal/phpparser"
)

// BenchmarkRunCimyAbort measures one symbolic execution of Cimy User
// Extra Fields' root at default Options: the paper's false negative,
// whose 248,832 paths blow the path budget. Parsing and root selection
// run before the timer, so an op is the interpreter and the heap graph
// alone up to the abort.
func BenchmarkRunCimyAbort(b *testing.B) {
	app, ok := corpus.ByName("Cimy User Extra Fields 2.3.8")
	if !ok {
		b.Fatal("Cimy is not in the corpus")
	}
	var files []*phpast.File
	for name, src := range app.Sources {
		f, _ := phpparser.Parse(name, src)
		files = append(files, f)
	}
	res := locality.Analyze(callgraph.Build(files), files, app.Sources)
	if len(res.Roots) != 1 {
		b.Fatalf("roots = %d, want 1", len(res.Roots))
	}
	root := res.Roots[0].Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := interp.New(files, interp.Options{}).Run(context.Background(), root)
		if !errors.Is(out.Err, interp.ErrPathBudget) || out.Paths != 248832 {
			b.Fatalf("paths = %d, err = %v; want 248832 and the path budget", out.Paths, out.Err)
		}
	}
}
