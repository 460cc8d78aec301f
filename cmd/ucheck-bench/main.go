// Command ucheck-bench regenerates the UChecker paper's evaluation
// artifacts over the synthetic corpus:
//
//	ucheck-bench -table       # Table III (default)
//	ucheck-bench -compare     # Section IV-C tool comparison
//	ucheck-bench -all         # both
//	ucheck-bench -screen 500  # Section IV-B screening sweep over 500 plugins
//	ucheck-bench -paper       # also print the paper's numbers side by side
//	ucheck-bench -phases      # per-app, per-phase timing breakdown
//	ucheck-bench -failures    # per-class failure tally of the Table III sweep
//	ucheck-bench -counters    # deterministic work-counter table of the sweep
//	ucheck-bench -interproc summary
//	                          # per-function symbolic summaries with
//	                          # statement-boundary path merging; prints a
//	                          # Cimy before/after block under -table
//	ucheck-bench -workers 8   # scanner worker pool (default GOMAXPROCS)
//
// A crash-safe (journaled, resumable, cached) or distributed sweep is
// uchecker's job: see its -journal/-resume/-cache and -worker -coord
// flags.
//
// The -max-paths flag lowers the symbolic-execution budget (useful on
// small machines: 20000 still reproduces every verdict including the Cimy
// false negative, at a fraction of the memory). The -phases breakdown is
// the CLI face of bench_test.go's BenchmarkScanSerial/BenchmarkScanParallel
// pair: interp+verify are summed per-root CPU seconds, scan is
// wall-clock, and their ratio is the per-root parallel speedup.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/evalharness"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/uchecker"
)

func main() {
	var (
		table     = flag.Bool("table", false, "regenerate Table III")
		compare   = flag.Bool("compare", false, "regenerate the Section IV-C comparison")
		all       = flag.Bool("all", false, "regenerate everything")
		screen    = flag.Int("screen", 0, "run a Section IV-B screening sweep over N generated plugins")
		plant     = flag.Int("plant", 20, "seed one vulnerable plugin every N positions in the sweep")
		seed      = flag.Int64("seed", 1, "screening generator seed")
		paper     = flag.Bool("paper", false, "print paper numbers next to measured ones")
		phases    = flag.Bool("phases", false, "print a per-app, per-phase timing breakdown")
		failures  = flag.Bool("failures", false, "print the per-class failure tally of the Table III sweep")
		counters  = flag.Bool("counters", false, "print the deterministic work-counter table of the Table III sweep")
		workers   = flag.Int("workers", 0, "scanner worker pool size (0 = GOMAXPROCS)")
		interproc = flag.String("interproc", "", "interprocedural strategy: inline (default) or summary")
		maxPaths  = flag.Int("max-paths", 0, "path budget (0 = paper-scale default)")
	)
	flag.Parse()
	if !*table && !*compare && !*all && *screen == 0 && !*failures && !*counters {
		*table = true
	}

	interprocKind, err := interp.ParseInterprocKind(*interproc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucheck-bench: %v\n", err)
		os.Exit(2)
	}
	opts := uchecker.Options{
		Budgets:   uchecker.Budgets{MaxPaths: *maxPaths},
		Interproc: interprocKind,
		Workers:   *workers,
	}
	if err := opts.Budgets.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ucheck-bench: -max-paths: %v\n", err)
		os.Exit(2)
	}
	var times *evalharness.PhaseTimes
	if *phases {
		times = evalharness.NewPhaseTimes()
		opts.Trace = obs.NewRecorder()
		opts.Trace.OnEnd = times.SpanHook()
	}

	if *table || *all || *failures || *counters {
		rows := evalharness.TableIII(opts)
		if *table || *all {
			fmt.Print(evalharness.RenderTableIII(rows))
			if *paper {
				fmt.Println()
				printPaperComparison(rows)
			}
			fmt.Println()
			if interprocKind == interp.InterprocSummary {
				// The strategy's headline: the Cimy path explosion,
				// before and after, under otherwise identical options.
				before, after := evalharness.CimyBeforeAfter(opts)
				fmt.Print(evalharness.RenderCimyBeforeAfter(before, after))
				fmt.Println()
			}
		}
		reps := make([]*uchecker.AppReport, len(rows))
		for i, r := range rows {
			reps[i] = r.Report
		}
		if *failures {
			fmt.Print(evalharness.RenderFailureTally(evalharness.FailureTally(reps)))
			fmt.Println()
		}
		if *counters {
			fmt.Print(evalharness.RenderCounterTable(evalharness.CounterTally(reps)))
			fmt.Println()
		}
	}
	if *screen > 0 {
		res := evalharness.Screening(opts, *seed, *screen, *plant)
		fmt.Print(evalharness.RenderScreening(res))
		fmt.Println()
	}
	if *compare || *all {
		results := evalharness.Comparison(opts)
		fmt.Print(evalharness.RenderComparison(results))
		if *paper {
			fmt.Println("\nPaper (Section IV-C): UChecker 15/16, 2/28 FP; RIPS 15/16, 27/28 FP; WAP 4/16, 1/28 FP")
		}
	}
	if times != nil {
		fmt.Println()
		fmt.Print(times.Render())
	}
	os.Exit(0)
}

func printPaperComparison(rows []evalharness.Row) {
	fmt.Println("Paper vs measured:")
	fmt.Printf("%-55s %16s %16s %14s %8s\n", "System", "%Analyzed (p/m)", "Paths (p/m)", "Objects (p/m)", "Verdict")
	for _, r := range rows {
		p := r.App.Paper
		if p == nil {
			continue
		}
		match := "match"
		if p.Detected != r.Detected() {
			match = "MISMATCH"
		}
		fmt.Printf("%-55s %7.2f/%7.2f %8d/%7d %7d/%7d %8s\n",
			r.App.Name, p.PctAnalyzed, r.Report.PercentAnalyzed,
			p.Paths, r.Report.Paths, p.Objects, r.Report.Objects, match)
	}
}
