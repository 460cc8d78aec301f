// Package repro_test benches every evaluation artifact of the UChecker
// paper plus the design-choice ablations DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Benchmarks:
//
//	BenchmarkTableIII/<app>        one full pipeline run per Table III row
//	BenchmarkComparison            Section IV-C, all three tools, 44 apps
//	BenchmarkPhase*                per-phase costs on corpus applications
//	BenchmarkSolver*               the SMT layer on the paper's constraints
//	BenchmarkAblation*             locality on/off, loop-unroll depth,
//	                               solver candidate budget
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/evalharness"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/smt"
	"repro/internal/uchecker"
)

// benchOpts caps the Cimy blow-up so its abort (the measured artifact)
// stays affordable inside a benchmark loop; every verdict is unchanged.
func benchOpts() uchecker.Options {
	return uchecker.Options{Budgets: uchecker.Budgets{MaxPaths: 20000}}
}

// BenchmarkTableIII runs the full pipeline once per iteration for every
// named Table III application (18 sub-benchmarks).
func BenchmarkTableIII(b *testing.B) {
	apps := append(corpus.KnownVulnerableApps(), corpus.NewVulnApps()...)
	if a, ok := corpus.ByName("Event Registration Pro Calendar 1.0.2"); ok {
		apps = append(apps, a)
	}
	if a, ok := corpus.ByName("Tumult Hype Animations 1.7.1"); ok {
		apps = append(apps, a)
	}
	for _, app := range apps {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			opts := benchOpts()
			for i := 0; i < b.N; i++ {
				row := evalharness.RunApp(app, opts)
				if row.Detected() != app.Paper.Detected {
					b.Fatalf("verdict drift: got %v want %v", row.Detected(), app.Paper.Detected)
				}
			}
		})
	}
}

// BenchmarkComparison regenerates the Section IV-C three-tool comparison
// over the full 44-app corpus per iteration.
func BenchmarkComparison(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		results := evalharness.Comparison(opts)
		if len(results) != 3 {
			b.Fatal("missing tools")
		}
	}
}

// --- per-phase benchmarks ---

// BenchmarkPhaseParse measures the parser on the largest corpus member
// (Joomla-Bible-study, ~95k LoC).
func BenchmarkPhaseParse(b *testing.B) {
	app, _ := corpus.ByName("Joomla-Bible-study 9.1.1")
	var total int
	for _, src := range app.Sources {
		total += len(src)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, src := range app.Sources {
			f, _ := phpparser.Parse(name, src)
			if f == nil {
				b.Fatal("nil file")
			}
		}
	}
}

// BenchmarkPhaseCallgraphLocality measures graph construction plus root
// selection on the same large app.
func BenchmarkPhaseCallgraphLocality(b *testing.B) {
	app, _ := corpus.ByName("Joomla-Bible-study 9.1.1")
	var files []*phpast.File
	for name, src := range app.Sources {
		f, _ := phpparser.Parse(name, src)
		files = append(files, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := callgraph.Build(files)
		res := locality.Analyze(g, files, app.Sources)
		if len(res.Roots) == 0 {
			b.Fatal("no roots")
		}
	}
}

// BenchmarkPhaseSymbolicExecution measures the interpreter on the most
// path-heavy completing app (Avatar Uploader, 9216 paths).
func BenchmarkPhaseSymbolicExecution(b *testing.B) {
	app, _ := corpus.ByName("Avatar Uploader 6.x-1.2")
	var files []*phpast.File
	for name, src := range app.Sources {
		f, _ := phpparser.Parse(name, src)
		files = append(files, f)
	}
	g := callgraph.Build(files)
	res := locality.Analyze(g, files, app.Sources)
	if len(res.Roots) == 0 {
		b.Fatal("no roots")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(files, interp.Options{})
		out := in.Run(context.Background(), res.Roots[0].Node)
		if out.Paths != 9216 {
			b.Fatalf("paths = %d", out.Paths)
		}
	}
}

// --- solver benchmarks ---

// BenchmarkSolverListing4 solves the paper's satisfiable Constraint-2 ∧
// Constraint-3 for Listing 4.
func BenchmarkSolverListing4(b *testing.B) {
	sPath := smt.Var("s_path", smt.SortString)
	sName := smt.Var("s_name", smt.SortString)
	sExt := smt.Var("s_ext", smt.SortString)
	f := smt.And(
		smt.SuffixOf(smt.Str(".php"), smt.Concat(sPath, smt.Str("/"), sName, sExt)),
		smt.Gt(smt.Len(smt.Concat(sName, sExt)), smt.Int(5)),
	)
	solver := smt.NewSolver(smt.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _, err := solver.Check(f)
		if err != nil || st != smt.Sat {
			b.Fatalf("status=%v err=%v", st, err)
		}
	}
}

// BenchmarkSolverWhitelistUnsat solves the benign whitelist refutation
// (in_array expansion vs .php suffix).
func BenchmarkSolverWhitelistUnsat(b *testing.B) {
	ext := smt.Var("s_ext", smt.SortString)
	dst := smt.Concat(smt.Var("s_name", smt.SortString), smt.Str("."), ext)
	f := smt.And(
		smt.Or(smt.Eq(ext, smt.Str("jpg")), smt.Eq(ext, smt.Str("png")), smt.Eq(ext, smt.Str("gif"))),
		smt.SuffixOf(smt.Str(".php"), dst),
	)
	solver := smt.NewSolver(smt.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, _, err := solver.Check(f)
		if err != nil || st != smt.Unsat {
			b.Fatalf("status=%v err=%v", st, err)
		}
	}
}

// BenchmarkSolverSimplify measures the rewriting layer alone.
func BenchmarkSolverSimplify(b *testing.B) {
	x := smt.Var("x", smt.SortString)
	f := smt.And(
		smt.SuffixOf(smt.Str("a.php"), smt.Concat(x, smt.Str("php"))),
		smt.Gt(smt.Len(smt.Concat(smt.Str("dir/"), x)), smt.Int(3)),
		smt.Not(smt.Not(smt.Eq(x, smt.Str("q")))),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if smt.Simplify(f) == nil {
			b.Fatal("nil")
		}
	}
}

// --- ablations ---

// BenchmarkAblationLocality contrasts the pipeline with and without the
// vulnerability-oriented locality analysis on a mid-size app (Foxypress,
// ~16k LoC). The "Off" variant symbolically executes every file and
// function — the workload the paper's Section III-A exists to avoid.
func BenchmarkAblationLocality(b *testing.B) {
	app, _ := corpus.ByName("Foxypress 0.4.1.1-0.4.2.1")
	target := uchecker.Target{Name: app.Name, Sources: app.Sources}
	b.Run("On", func(b *testing.B) {
		scanner := uchecker.NewScanner(benchOpts())
		for i := 0; i < b.N; i++ {
			rep, err := scanner.Scan(context.Background(), target)
			if err != nil || !rep.Vulnerable {
				b.Fatalf("verdict drift (err=%v)", err)
			}
		}
	})
	b.Run("Off", func(b *testing.B) {
		opts := benchOpts()
		opts.DisableLocality = true
		scanner := uchecker.NewScanner(opts)
		for i := 0; i < b.N; i++ {
			rep, err := scanner.Scan(context.Background(), target)
			if err != nil || !rep.Vulnerable {
				b.Fatalf("verdict drift (err=%v)", err)
			}
		}
	})
}

// BenchmarkAblationLoopUnroll varies the loop unroll bound on a
// loop-bearing app.
func BenchmarkAblationLoopUnroll(b *testing.B) {
	src := map[string]string{
		"loop.php": `<?php
$i = 0;
while ($i < $n) {
	$i = $i + 1;
	$chk = strpos($_FILES['f']['name'], '.');
}
move_uploaded_file($_FILES['f']['tmp_name'], "/u/" . $_FILES['f']['name']);
`,
	}
	for _, unroll := range []int{1, 2, 4, 8} {
		unroll := unroll
		b.Run(itoa(unroll), func(b *testing.B) {
			opts := uchecker.Options{Budgets: uchecker.Budgets{LoopUnroll: unroll}}
			scanner := uchecker.NewScanner(opts)
			target := uchecker.Target{Name: "loop", Sources: src}
			for i := 0; i < b.N; i++ {
				rep, err := scanner.Scan(context.Background(), target)
				if err != nil || !rep.Vulnerable {
					b.Fatalf("verdict drift (err=%v)", err)
				}
			}
		})
	}
}

// BenchmarkAblationSolverCandidates varies the bounded-search candidate
// budget on the Listing 4 constraint.
func BenchmarkAblationSolverCandidates(b *testing.B) {
	sPath := smt.Var("s_path", smt.SortString)
	sName := smt.Var("s_name", smt.SortString)
	sExt := smt.Var("s_ext", smt.SortString)
	f := smt.And(
		smt.SuffixOf(smt.Str(".php"), smt.Concat(sPath, smt.Str("/"), sName, sExt)),
		smt.Gt(smt.Len(smt.Concat(sName, sExt)), smt.Int(5)),
	)
	for _, cand := range []int{16, 48, 96, 192} {
		cand := cand
		b.Run(itoa(cand), func(b *testing.B) {
			solver := smt.NewSolver(smt.Options{MaxStrCandidates: cand})
			for i := 0; i < b.N; i++ {
				st, _, _, err := solver.Check(f)
				if err != nil || st != smt.Sat {
					b.Fatalf("status=%v err=%v", st, err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var bs []byte
	for n > 0 {
		bs = append([]byte{byte('0' + n%10)}, bs...)
		n /= 10
	}
	return string(bs)
}

// --- Scanner v2: parallel vs serial ---

// scanTargets is the multi-root corpus workload for the Scanner
// benchmarks: every Table III app scanned as one batch (44+ independent
// roots in aggregate across applications).
func scanTargets() []uchecker.Target {
	apps := corpus.All()
	targets := make([]uchecker.Target, len(apps))
	for i, app := range apps {
		targets[i] = uchecker.Target{Name: app.Name, Sources: app.Sources}
	}
	return targets
}

func benchScanBatch(b *testing.B, workers int) {
	targets := scanTargets()
	opts := benchOpts()
	opts.Workers = workers
	scanner := uchecker.NewScanner(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps := scanner.ScanBatch(context.Background(), targets)
		if len(reps) != len(targets) {
			b.Fatalf("reports = %d, want %d", len(reps), len(targets))
		}
		vuln := 0
		for _, rep := range reps {
			if rep.Vulnerable {
				vuln++
			}
		}
		if vuln == 0 {
			b.Fatal("verdict drift: no vulnerable apps in corpus sweep")
		}
	}
}

// parallelWorkers is the pool size for the parallel benchmarks: all
// available cores, but at least 4 so the pool machinery (fan-out, merge)
// is exercised even on single-core CI runners. Wall-clock speedup over
// the serial pair requires GOMAXPROCS > 1.
func parallelWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

// BenchmarkScanSerial sweeps the full corpus with Workers=1 — the
// single-worker execution model.
func BenchmarkScanSerial(b *testing.B) { benchScanBatch(b, 1) }

// BenchmarkScanParallel sweeps the same corpus with the parallel worker
// pool; byte-identical reports, lower wall clock on multicore hosts.
func BenchmarkScanParallel(b *testing.B) { benchScanBatch(b, parallelWorkers()) }

// multiRootApp synthesizes one application with n independent upload
// handlers, so the locality analysis selects n roots inside a single Scan
// — the per-root fan-out path (corpus apps are single-root).
func multiRootApp(n int) uchecker.Target {
	sources := map[string]string{}
	for i := 0; i < n; i++ {
		sources[fmt.Sprintf("handler%02d.php", i)] = fmt.Sprintf(`<?php
$dir = "/uploads/%02d";
$name = $_FILES['f%d']['name'];
$ext = strtolower(substr($name, strrpos($name, '.')));
if (strlen($name) > 3 && $ext != '.exe') {
	move_uploaded_file($_FILES['f%d']['tmp_name'], $dir . "/" . $name);
}
`, i, i, i)
	}
	return uchecker.Target{Name: fmt.Sprintf("multi-root-%d", n), Sources: sources}
}

// BenchmarkScanRoots contrasts Workers=1 and the parallel pool on a
// single 32-root application — per-root parallelism inside one Scan.
func BenchmarkScanRoots(b *testing.B) {
	target := multiRootApp(32)
	for _, workers := range []int{1, parallelWorkers()} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scanner := uchecker.NewScanner(uchecker.Options{Workers: workers})
			for i := 0; i < b.N; i++ {
				rep, err := scanner.Scan(context.Background(), target)
				if err != nil || !rep.Vulnerable || len(rep.Roots) != 32 {
					b.Fatalf("err=%v vulnerable=%v roots=%d", err, rep.Vulnerable, len(rep.Roots))
				}
			}
		})
	}
}

// BenchmarkScanScreening scans 200 generated plugins (1 in 20 planted)
// the way the screening workload does: one ScanBatch per plugin at
// Workers=1. Locality keeps little of each plugin, so parsing and the
// program table take most of what it allocates.
func BenchmarkScanScreening(b *testing.B) {
	apps := corpus.RandomPlugins(1, 200, 20)
	targets := make([]uchecker.Target, len(apps))
	for i, a := range apps {
		targets[i] = uchecker.Target{Name: a.Name, Sources: a.Sources}
	}
	scanner := uchecker.NewScanner(uchecker.Options{Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range targets {
			rep := scanner.ScanBatch(context.Background(), targets[j:j+1])[0]
			if rep.Vulnerable != apps[j].Planted {
				b.Fatalf("%s: verdict %v, want %v", apps[j].Name, rep.Vulnerable, apps[j].Planted)
			}
		}
	}
}

// BenchmarkScreening measures the Section IV-B screening workflow: one
// iteration scans 100 generated plugins (5 seeded vulnerabilities).
func BenchmarkScreening(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res := evalharness.Screening(opts, 1, 100, 20)
		if res.Found != res.Planted {
			b.Fatalf("recall drift: %d/%d", res.Found, res.Planted)
		}
	}
}
