// Command uchecker scans PHP applications for unrestricted file upload
// vulnerabilities, implementing the UChecker pipeline end to end.
//
// Usage:
//
//	uchecker [flags] <dir|file.php> [more targets...]
//	uchecker [flags] -corpus "<app name>"     # scan a built-in corpus app
//	uchecker -list-corpus                     # list corpus app names
//	uchecker -worker -coord DIR <targets...>  # join a distributed scan fleet
//
// Each positional path is scanned as its own application; multiple paths
// run concurrently through Scanner.ScanBatch.
//
// Flags:
//
//	-json                emit the report(s) as JSON
//	-sarif               emit the report as SARIF 2.1.0 (GitHub code scanning)
//	-smt                 print each finding's SMT-LIB2 script
//	-ext LIST            comma-separated executable extensions (default ".php,.php5")
//	-admin-gating        model add_action('admin_menu', ...) gating (Section VI)
//	-max-paths N         symbolic execution path budget
//	-interproc NAME      interprocedural strategy: "inline" (inline every
//	                     user-function call, default — the paper's
//	                     semantics, including its budget-exhaustion
//	                     misses) or "summary" (per-function symbolic
//	                     summaries with statement-boundary path merging;
//	                     escaped callees still inline)
//	-workers N           worker pool size for per-root and per-app parallelism
//	                     (default: GOMAXPROCS)
//	-timeout D           abort the scan after D (e.g. 30s, 5m); partial
//	                     results are still reported
//	-root-timeout D      per-root wall-clock budget; a root exceeding it
//	                     fails with a root-timeout failure and enters the
//	                     degradation ladder instead of stalling the scan
//	-retries N           degradation-ladder retries per failed root
//	                     (0 = default, negative disables)
//	-max-root-failures N abort an app's scan after N root failures
//	-no-degraded         disable the degradation ladder (paper semantics:
//	                     a budget abort is a silent miss)
//	-trace FILE          write a Chrome trace-event JSON file of the scan's
//	                     span tree (open in chrome://tracing or Perfetto);
//	                     "-" writes to stdout
//	-metrics FILE        write the per-app work counters in Prometheus text
//	                     exposition format; "-" writes to stdout
//	-journal FILE        append a crash-safe scan journal: batch manifest,
//	                     per-target start/finish and the full report, each
//	                     record checksummed and fsynced
//	-resume FILE         resume from a previous journal: completed targets
//	                     are replayed byte-identically, in-flight ones are
//	                     re-scanned; pass the same FILE to -journal and
//	                     -resume to continue a killed sweep in place
//	-cache DIR           content-addressed result cache: unchanged targets
//	                     (same sources and same analysis options) are
//	                     served from DIR instead of re-scanned
//	-cache-verify        re-checksum every -cache entry, prune corrupt
//	                     ones, print a summary, and exit
//	-worker -coord DIR   join DIR as one worker of a distributed fleet:
//	                     the target list (identical across workers) is
//	                     partitioned into leased shards; workers claim,
//	                     scan and publish shards, reclaim leases from
//	                     crashed workers (fencing tokens keep zombies
//	                     out), and the last one folds DIR/merged.json —
//	                     byte-identical to a single-process sweep.
//	                     SIGTERM drains gracefully: in-flight targets
//	                     finish and journal, leases are released, exit 2.
//	-worker-id NAME      worker name in lease records (default: w<pid>)
//	-shard-size N        targets per lease shard (default: 8)
//	-lease-renew D       lease heartbeat interval (default: 250ms)
//	-lease-check D       observation window before presuming a lease
//	                     holder dead and reclaiming (default: 1s)
//	-v                   verbose: also print per-phase measurements, the
//	                     per-class failure summary and the batch
//	                     replay/cache counters
//
// Exit status:
//
//	0  scan completed cleanly, nothing vulnerable
//	1  at least one target vulnerable
//	2  usage/IO error, scan aborted by -timeout, any root/file failed
//	   (panic, budget exhaustion, solver give-up, root timeout), or a
//	   -worker that drained on SIGTERM before the fleet finished
//
// Scan errors take precedence over findings: exit 1 means the verdicts
// are complete AND something is vulnerable; exit 2 means the verdicts may
// be incomplete (partial reports are still printed).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut     = flag.Bool("json", false, "emit the report as JSON")
		sarifOut    = flag.Bool("sarif", false, "emit the report as SARIF 2.1.0")
		smtOut      = flag.Bool("smt", false, "print each finding's SMT-LIB2 script")
		exts        = flag.String("ext", ".php,.php5", "comma-separated executable extensions")
		adminGating = flag.Bool("admin-gating", false, "model admin_menu gating (Section VI extension)")
		maxPaths    = flag.Int("max-paths", 0, "symbolic execution path budget (0 = default)")
		interproc   = flag.String("interproc", "", "interprocedural strategy: inline (default) or summary")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "abort the scan after this duration (0 = none)")
		rootTimeout = flag.Duration("root-timeout", 0, "per-root wall-clock budget (0 = none)")
		retries     = flag.Int("retries", 0, "degradation-ladder retries per failed root (0 = default, negative disables)")
		maxFailures = flag.Int("max-root-failures", 0, "abort an app's scan after N root failures (0 = no limit)")
		noDegraded  = flag.Bool("no-degraded", false, "disable the degradation ladder (budget aborts become silent misses)")
		corpusApp   = flag.String("corpus", "", "scan the named built-in corpus application")
		listCorpus  = flag.Bool("list-corpus", false, "list built-in corpus application names")
		traceOut    = flag.String("trace", "", "write Chrome trace-event JSON to this file (\"-\" = stdout)")
		metricsOut  = flag.String("metrics", "", "write Prometheus text metrics to this file (\"-\" = stdout)")
		journalOut  = flag.String("journal", "", "append a crash-safe scan journal to this file")
		resumeFrom  = flag.String("resume", "", "resume from a previous scan journal (replay completed targets)")
		cacheDir    = flag.String("cache", "", "content-addressed result cache directory")
		cacheVerify = flag.Bool("cache-verify", false, "verify the -cache directory, prune corrupt entries, and exit")
		workerMode  = flag.Bool("worker", false, "run as one distributed fleet worker (requires -coord)")
		coordDir    = flag.String("coord", "", "shared coordination directory for -worker mode")
		workerID    = flag.String("worker-id", "", "worker name in lease records (default: w<pid>)")
		shardSize   = flag.Int("shard-size", 0, "targets per lease shard in -worker mode (0 = default)")
		leaseRenew  = flag.Duration("lease-renew", 0, "lease heartbeat interval in -worker mode (0 = default)")
		leaseCheck  = flag.Duration("lease-check", 0, "stale-lease observation window in -worker mode (0 = default)")
		verbose     = flag.Bool("v", false, "verbose measurements")
	)
	flag.Parse()

	if *cacheVerify {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "uchecker: -cache-verify requires -cache DIR")
			return 2
		}
		ok, bad, err := verifyCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uchecker: verifying cache: %v\n", err)
			return 2
		}
		fmt.Printf("cache %s: %d entries ok, %d corrupt (pruned)\n", *cacheDir, ok, bad)
		return 0
	}

	if *listCorpus {
		for _, app := range corpus.All() {
			fmt.Printf("%-60s %s\n", app.Name, app.Category)
		}
		return 0
	}

	extList := splitExts(*exts)
	interprocKind, err := interp.ParseInterprocKind(*interproc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uchecker: %v\n", err)
		return 2
	}
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
	}
	opts := uchecker.Options{
		Trace:            rec,
		Extensions:       extList,
		ModelAdminGating: *adminGating,
		KeepSMT:          *smtOut,
		Workers:          *workers,
		Budgets:          uchecker.Budgets{MaxPaths: *maxPaths},
		Interproc:        interprocKind,
		RootTimeout:      *rootTimeout,
		MaxRetries:       *retries,
		MaxRootFailures:  *maxFailures,
		DisableDegraded:  *noDegraded,
		Journal:          *journalOut,
		ResumeFrom:       *resumeFrom,
		CacheDir:         *cacheDir,
	}

	var targets []uchecker.Target
	switch {
	case *corpusApp != "":
		app, ok := corpus.ByName(*corpusApp)
		if !ok {
			fmt.Fprintf(os.Stderr, "uchecker: unknown corpus app %q (try -list-corpus)\n", *corpusApp)
			return 2
		}
		targets = append(targets, uchecker.Target{Name: app.Name, Sources: app.Sources})
	case flag.NArg() > 0:
		for _, p := range flag.Args() {
			t, err := loadTarget(p, extList)
			if err != nil {
				fmt.Fprintf(os.Stderr, "uchecker: %v\n", err)
				return 2
			}
			targets = append(targets, t)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: uchecker [flags] <dir|file.php>... (see -h)")
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workerMode || *coordDir != "" {
		if !*workerMode || *coordDir == "" {
			fmt.Fprintln(os.Stderr, "uchecker: -worker and -coord DIR go together")
			return 2
		}
		if opts.Journal != "" || opts.ResumeFrom != "" || opts.CacheDir != "" {
			fmt.Fprintln(os.Stderr, "uchecker: -worker manages its own shard journals and cache under -coord; drop -journal/-resume/-cache")
			return 2
		}
		return runWorker(ctx, opts, targets, uchecker.WorkerOptions{
			CoordDir:           *coordDir,
			WorkerID:           *workerID,
			ShardSize:          *shardSize,
			RenewInterval:      *leaseRenew,
			LeaseCheckInterval: *leaseCheck,
		}, *jsonOut, *smtOut, *verbose)
	}

	scanner := uchecker.NewScanner(opts)
	reps, stats, batchErr := scanner.ScanBatchJournaled(ctx, targets)

	switch {
	case *sarifOut:
		for _, rep := range reps {
			data, err := report.ToSARIF(rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "uchecker: %v\n", err)
				return 2
			}
			fmt.Println(string(data))
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, rep := range reps {
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "uchecker: %v\n", err)
				return 2
			}
		}
	default:
		for i, rep := range reps {
			if i > 0 {
				fmt.Println()
			}
			printReport(os.Stdout, rep, *verbose, *smtOut)
		}
	}
	if *verbose && (*journalOut != "" || *resumeFrom != "" || *cacheDir != "") {
		fmt.Printf("\nbatch: %d targets, %d scanned, %d replayed, %d cache hits, %d misses, %d journal records salvaged\n",
			stats.Targets, stats.Scanned, stats.Replayed, stats.CacheHits, stats.CacheMisses, stats.SalvagedRecords)
		for _, fl := range stats.Failures {
			fmt.Printf("batch failure: %s\n", fl)
		}
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, rec.Snapshot())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "uchecker: writing trace: %v\n", err)
			return 2
		}
	}
	if *metricsOut != "" {
		series := make([]obs.LabeledMetrics, 0, len(reps)+1)
		for _, rep := range reps {
			series = append(series, obs.LabeledMetrics{
				Labels:  map[string]string{"app": rep.Name},
				Metrics: rep.Metrics,
			})
		}
		if len(stats.Metrics) > 0 {
			series = append(series, obs.LabeledMetrics{
				Labels:  map[string]string{"scope": "batch"},
				Metrics: stats.Metrics,
			})
		}
		if err := writeTo(*metricsOut, func(w io.Writer) error {
			return obs.WritePrometheus(w, "uchecker", series)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "uchecker: writing metrics: %v\n", err)
			return 2
		}
	}
	if batchErr != nil {
		fmt.Fprintf(os.Stderr, "uchecker: scan aborted: %v\n", batchErr)
	} else if code := exitCode(nil, reps); code == 2 {
		fmt.Fprintln(os.Stderr, "uchecker: scan completed with failures (see -v for the per-class summary)")
	}
	return exitCode(batchErr, reps)
}

// runWorker runs the process as one member of a distributed scan fleet
// (-worker -coord DIR). Every worker is launched with the same target
// list; the coordination directory partitions it into leased shards,
// crashes are recovered by lease reclaim + fencing, and whichever
// worker finds every shard finished folds the merged report.
//
// SIGTERM drains gracefully: in-flight targets finish and journal, held
// leases are released for the rest of the fleet, and the worker exits 2
// (the sweep is incomplete from this process's point of view). When the
// fleet completes, the exit status is computed from the merged report
// exactly like a single-process sweep.
func runWorker(ctx context.Context, opts uchecker.Options, targets []uchecker.Target, wo uchecker.WorkerOptions, jsonOut, smtOut, verbose bool) int {
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		close(drain)
	}()
	wo.Drain = drain

	scanner := uchecker.NewScanner(opts)
	ws, err := scanner.RunWorker(ctx, targets, wo)
	if ws != nil {
		fmt.Fprintf(os.Stderr, "uchecker: worker %s: %d shards published (%d reclaimed from dead workers), %d leases lost to reclaim\n",
			ws.Worker, ws.ShardsScanned, ws.ShardsReclaimed, ws.Fenced)
		if verbose {
			keys := make([]string, 0, len(ws.Metrics))
			for k := range ws.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(os.Stderr, "uchecker: worker metric %s=%d\n", k, ws.Metrics[k])
			}
		}
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "uchecker: worker aborted: %v\n", err)
		return 2
	case ws.Drained:
		fmt.Fprintln(os.Stderr, "uchecker: worker drained: finished targets are journaled, leases released; run another worker with the same -coord to complete the sweep")
		return 2
	case ws.MergedPath == "":
		// RunWorker's nil-error exits are drain or merged fold, so this
		// is unreachable; fail safe instead of claiming completion.
		fmt.Fprintln(os.Stderr, "uchecker: worker exited without a merged report")
		return 2
	}

	reps, err := uchecker.ReadMerged(ws.MergedPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uchecker: reading merged report: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "uchecker: sweep complete: %d targets merged into %s\n", len(reps), ws.MergedPath)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, rep := range reps {
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "uchecker: %v\n", err)
				return 2
			}
		}
	} else {
		for i, rep := range reps {
			if i > 0 {
				fmt.Println()
			}
			printReport(os.Stdout, rep, verbose, smtOut)
		}
	}
	if code := exitCode(nil, reps); code != 0 {
		if code == 2 {
			fmt.Fprintln(os.Stderr, "uchecker: sweep completed with failures")
		}
		return code
	}
	return 0
}

// exitCode maps a batch outcome to the process exit status: 2 when the
// scan was aborted or any root/file failed (the verdicts may be
// incomplete), else 1 when any target is vulnerable, else 0. Scan errors
// take precedence over findings — exit 1 certifies complete verdicts.
func exitCode(ctxErr error, reps []*uchecker.AppReport) int {
	if ctxErr != nil {
		return 2
	}
	code := 0
	for _, rep := range reps {
		if rep.Aborted || len(rep.FailureCounts) > 0 {
			return 2
		}
		if rep.Vulnerable {
			code = 1
		}
	}
	return code
}

// writeTo streams one export to a file path, or to stdout for "-". File
// writes are atomic (temp file + rename): a failure mid-export leaves
// any previous file byte-identical instead of half-overwritten.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	return scanjournal.AtomicWrite(path, write)
}

// verifyCache re-checksums every entry of a result cache directory and
// prunes the corrupt ones, returning how many verified clean and how
// many were corrupt.
func verifyCache(dir string) (ok, bad int, err error) {
	c, err := scanjournal.OpenCache(dir, nil)
	if err != nil {
		return 0, 0, err
	}
	return c.Verify(true)
}

func splitExts(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.HasPrefix(e, ".") {
			e = "." + e
		}
		out = append(out, e)
	}
	return out
}

// loadTarget reads one application from a file or directory. Directory
// walks accept every configured executable extension plus ".inc" (PHP
// include files routinely carry upload handlers), not just ".php".
//
// Unreadable files and broken directory entries (permission errors,
// symlink loops, files deleted mid-walk) do not abort the target: each
// is recorded as a typed load-stage Failure on the eventual report, so
// a partially loaded application is scanned with what could be read and
// is visibly partial in the verdict (exit status 2). Only a completely
// unreadable target — nothing loaded, or the root path itself missing —
// is an error.
func loadTarget(p string, exts []string) (uchecker.Target, error) {
	accept := make(map[string]bool, len(exts)+1)
	for _, e := range exts {
		accept[strings.ToLower(e)] = true
	}
	accept[".inc"] = true

	sources := map[string]string{}
	var loadFailures []uchecker.Failure
	fail := func(path string, err error) {
		loadFailures = append(loadFailures, uchecker.Failure{
			Root:  path,
			Stage: uchecker.StageLoad,
			Class: uchecker.FailLoad, // an I/O failure, not a parser failure
			Err:   err.Error(),
		})
	}
	name := filepath.Base(p)
	if ext := filepath.Ext(name); accept[strings.ToLower(ext)] {
		name = strings.TrimSuffix(name, ext)
	}
	info, err := os.Stat(p)
	if err != nil {
		return uchecker.Target{}, err
	}
	if !info.IsDir() {
		data, err := os.ReadFile(p)
		if err != nil {
			return uchecker.Target{}, err
		}
		sources[p] = string(data)
		return uchecker.Target{Name: name, Sources: sources}, nil
	}
	err = filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			// Unreadable directory (or a vanished entry): record and
			// keep walking the rest of the tree.
			fail(path, err)
			if d != nil && d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !accept[strings.ToLower(filepath.Ext(path))] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			// Permission denied, ELOOP from a self-referential
			// symlink, etc: skip the file, keep the target.
			fail(path, err)
			return nil
		}
		sources[path] = string(data)
		return nil
	})
	if err != nil {
		return uchecker.Target{}, err
	}
	if len(sources) == 0 && len(loadFailures) == 0 {
		return uchecker.Target{}, fmt.Errorf("no source files with extensions %v under %s", append(exts, ".inc"), p)
	}
	return uchecker.Target{Name: name, Sources: sources, LoadFailures: loadFailures}, nil
}

func printReport(w io.Writer, rep *uchecker.AppReport, verbose, smtOut bool) {
	verdict := "NOT VULNERABLE"
	if rep.Vulnerable {
		verdict = "VULNERABLE"
	}
	if rep.BudgetExceeded {
		verdict += " (analysis incomplete: budget exceeded)"
	}
	if rep.Aborted {
		verdict += " (scan aborted: too many root failures)"
	}
	fmt.Fprintf(w, "%s: %s\n", rep.Name, verdict)
	fmt.Fprintf(w, "  %d LoC, %.2f%% symbolically executed, %d paths, %d objects, %d sink candidates\n",
		rep.TotalLoC, rep.PercentAnalyzed, rep.Paths, rep.Objects, rep.SinkCount)
	if verbose {
		fmt.Fprintf(w, "  roots: %s\n", strings.Join(rep.Roots, ", "))
		fmt.Fprintf(w, "  %.1f MB, %.3f s, %d parse errors\n", rep.MemoryMB, rep.Seconds, rep.ParseErrors)
		if rep.Retries > 0 {
			fmt.Fprintf(w, "  degradation-ladder retries: %d\n", rep.Retries)
		}
		if len(rep.FailureCounts) > 0 {
			classes := make([]string, 0, len(rep.FailureCounts))
			for c := range rep.FailureCounts {
				classes = append(classes, string(c))
			}
			sort.Strings(classes)
			parts := make([]string, 0, len(classes))
			for _, c := range classes {
				parts = append(parts, fmt.Sprintf("%s=%d", c, rep.FailureCounts[uchecker.FailureClass(c)]))
			}
			fmt.Fprintf(w, "  failures: %s\n", strings.Join(parts, " "))
		}
		for _, fl := range rep.Failures {
			fmt.Fprintf(w, "  failure: %s\n", fl)
		}
	}
	for _, f := range rep.Findings {
		gate := ""
		if f.AdminGated {
			gate = " [admin-gated]"
		}
		if f.Degraded {
			gate += " [degraded]"
		}
		fmt.Fprintf(w, "\n  finding: %s at %s:%d%s\n", f.Sink, f.File, f.Line, gate)
		if len(f.Lines) > 0 {
			fmt.Fprintf(w, "    relevant lines: %v\n", f.Lines)
		}
		if f.ExploitPath != "" {
			fmt.Fprintf(w, "    exploit lands at: %q\n", f.ExploitPath)
		}
		if f.SeDst != "" {
			fmt.Fprintf(w, "    se_dst   = %s\n", f.SeDst)
		}
		if f.SeReach != "nil" && f.SeReach != "" {
			fmt.Fprintf(w, "    se_reach = %s\n", f.SeReach)
		}
		if len(f.Witness) > 0 {
			fmt.Fprintf(w, "    witness:\n")
			keys := make([]string, 0, len(f.Witness))
			for k := range f.Witness {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "      %s = %s\n", k, f.Witness[k])
			}
		}
		if smtOut && f.SMTLIB != "" {
			fmt.Fprintf(w, "    SMT-LIB2:\n%s\n", indentLines(f.SMTLIB, "      "))
		}
	}
}

func indentLines(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}
