package main

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/uchecker"
)

// The layer driver re-implements Scanner.Scan from public layer calls,
// so its per-layer numbers only mean something while it does the same
// work. On small corpus apps — vulnerable, benign, and admin-gated — in
// both interprocedural modes, its verdict, paths, sink candidates,
// retries and verified findings must equal the scanner's report.
func TestDriverMatchesScanner(t *testing.T) {
	names := []string{
		"Adblock Blocker 0.0.1",
		"Uploadify 1.0.0",
		"File Provider 1.2.3",
		"Event Registration Pro Calendar 1.0.2", // admin-gated
		"media-share-basic",                     // benign
		"theme-logo-setter",                     // benign
	}
	for _, mode := range []interp.InterprocKind{interp.InterprocInline, interp.InterprocSummary} {
		scanner := uchecker.NewScanner(uchecker.Options{Workers: 1, Interproc: mode})
		rec := obs.NewRecorder()
		drv := newDriver(context.Background(), rec, mode)
		for _, name := range names {
			app, ok := corpus.ByName(name)
			if !ok {
				t.Fatalf("no corpus app %q", name)
			}
			it := item{name: app.Name, sources: app.Sources, want: corpusWant(app, mode)}
			got := drv.app(it)
			rep, err := scanner.Scan(context.Background(), it.target())
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			if d := got.diff(outcomeOf(rep)); d != "" {
				t.Errorf("%s/%s: driver differs from Scanner: %s", mode, name, d)
			}
			if got.vulnerable != it.want {
				t.Errorf("%s/%s: verdict %v, want %v", mode, name, got.vulnerable, it.want)
			}
		}
		if drv.n.verdicts != len(names) {
			t.Errorf("%s: driver counted %d verdicts, want %d", mode, drv.n.verdicts, len(names))
		}
		// Every layer call is a span under its app's span.
		for _, sp := range rec.Snapshot() {
			if sp.Name != "app" && sp.Parent == 0 {
				t.Errorf("%s: layer span %q has no app parent", mode, sp.Name)
			}
		}
	}
}
