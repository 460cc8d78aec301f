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
//	ucheck-bench -journal F   # journal the Table III sweep to F (crash-safe)
//	ucheck-bench -resume F    # resume a killed sweep from journal F
//	ucheck-bench -cache DIR   # replay unchanged apps from a result cache
//	ucheck-bench -coord DIR   # join a distributed Table III sweep as one
//	                          # worker (launch N processes with the same
//	                          # DIR; lease-based shards, crash reclaim,
//	                          # deterministic merged table)
//
// With -journal/-resume/-cache the Table III sweep runs through the
// crash-safe batch path: kill it at any point and re-run with
// `-journal F -resume F` to continue where it stopped — completed apps
// replay from the journal byte-identically instead of re-scanning. The
// batch path does not sample per-app memory, so the Mem(MB) column
// reads 0 there.
//
// The -max-paths flag lowers the symbolic-execution budget (useful on
// small machines: 20000 still reproduces every verdict including the Cimy
// false negative, at a fraction of the memory). The -phases breakdown is
// the CLI face of bench_test.go's BenchmarkScanSerial/BenchmarkScanParallel
// pair: interp+verify are summed per-root CPU seconds, scan is
// wall-clock, and their ratio is the per-root parallel speedup.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/evalharness"
	"repro/internal/interp"
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
		journal   = flag.String("journal", "", "journal the Table III sweep to this file (crash-safe)")
		resume    = flag.String("resume", "", "resume the Table III sweep from this journal")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory")
		coordDir  = flag.String("coord", "", "join a distributed Table III sweep as one worker over this coordination directory")
		workerID  = flag.String("worker-id", "", "worker name in lease records (default: w<pid>)")
		shardSize = flag.Int("shard-size", 0, "targets per lease shard in -coord mode (0 = default)")
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
		Budgets:    uchecker.Budgets{MaxPaths: *maxPaths},
		Interproc:  interprocKind,
		Workers:    *workers,
		Journal:    *journal,
		ResumeFrom: *resume,
		CacheDir:   *cacheDir,
	}
	crashSafe := *journal != "" || *resume != "" || *cacheDir != ""
	var times *evalharness.PhaseTimes
	if *phases {
		times = evalharness.NewPhaseTimes()
		opts.OnSpan = times.SpanHook()
	}

	if *coordDir != "" {
		if crashSafe {
			fmt.Fprintln(os.Stderr, "ucheck-bench: -coord manages its own shard journals and cache; drop -journal/-resume/-cache")
			os.Exit(2)
		}
		os.Exit(runDistributed(opts, *coordDir, *workerID, *shardSize, *paper))
	}

	if *table || *all || *failures || *counters {
		var rows []evalharness.Row
		if crashSafe {
			var stats *uchecker.BatchStats
			var err error
			rows, stats, err = evalharness.TableIIIBatch(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ucheck-bench: sweep aborted: %v (re-run with -journal %s -resume %s to continue)\n",
					err, *journal, *journal)
				os.Exit(2)
			}
			fmt.Printf("sweep: %d targets, %d scanned, %d replayed from journal, %d cache hits, %d salvaged records\n\n",
				stats.Targets, stats.Scanned, stats.Replayed, stats.CacheHits, stats.SalvagedRecords)
			for _, fl := range stats.Failures {
				fmt.Printf("sweep failure: %s\n", fl)
			}
		} else {
			rows = evalharness.TableIII(opts)
		}
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

// runDistributed joins a coordination directory as one worker of a
// distributed Table III sweep. Launch the same command in N processes
// (or machines sharing a filesystem): each claims leased shards, dead
// workers are reclaimed via fencing tokens, and whichever worker folds
// the merged report prints the table. SIGTERM drains gracefully
// (finished apps stay journaled for the fleet; exit 2).
func runDistributed(opts uchecker.Options, coordDir, workerID string, shardSize int, paper bool) int {
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		close(drain)
	}()

	ws, rows, err := evalharness.TableIIIWorker(context.Background(), opts, uchecker.WorkerOptions{
		CoordDir:  coordDir,
		WorkerID:  workerID,
		ShardSize: shardSize,
		Drain:     drain,
	})
	if ws != nil {
		fmt.Fprintf(os.Stderr, "ucheck-bench: worker %s: %d shards published (%d reclaimed), %d leases lost to reclaim\n",
			ws.Worker, ws.ShardsScanned, ws.ShardsReclaimed, ws.Fenced)
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "ucheck-bench: worker aborted: %v (the fleet reclaims this worker's leases; re-run with the same -coord to continue)\n", err)
		return 2
	case ws.Drained:
		fmt.Fprintln(os.Stderr, "ucheck-bench: worker drained: finished apps are journaled; run another worker with the same -coord to complete the sweep")
		return 2
	case rows == nil:
		fmt.Fprintln(os.Stderr, "ucheck-bench: worker exited without a merged report")
		return 2
	}
	fmt.Print(evalharness.RenderTableIII(rows))
	if paper {
		fmt.Println()
		printPaperComparison(rows)
	}
	fmt.Println()
	return 0
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
