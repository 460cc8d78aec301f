// Scanner is the v2 scanning API: context-aware, parallel per-root
// execution with batch corpus scanning, fault containment and a
// budget-degradation ladder.
//
// The paper's pipeline (Figure 2) runs phases 3–6 — symbolic execution,
// vulnerability modeling, Z3-oriented translation and SMT verification —
// once per locality root, and every root is independent: it gets its own
// heap graph, its own interpreter and its own solver. Scanner exploits
// that by fanning roots out to a bounded worker pool and merging the
// per-root results deterministically (root order, findings sorted by
// file:line), so the output is byte-identical regardless of worker count.
//
// Fault containment: every per-root attempt (and every per-file parse)
// runs under recover(), so a panic anywhere in interp, translate or smt
// degrades one root — recorded as a FailPanic Failure with the captured
// stack — instead of killing the batch. Roots that blow a budget or a
// per-root deadline descend a degradation ladder: up to
// Options.MaxRetries halved-budget reruns (whose findings are marked
// Degraded), then a conservative taint-only fallback reusing the
// internal/baseline machinery, so pathological roots yield partial
// signal, not silence.
package uchecker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/callgraph"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/translate"
	"repro/internal/vulnmodel"
)

// Target identifies one application to scan: a name and its PHP sources
// as file-name → source-text.
type Target struct {
	Name    string
	Sources map[string]string
	// LoadFailures carries typed failures encountered while materializing
	// the target from disk (unreadable files, symlink loops): the loader
	// skips the offending file and records it here instead of aborting
	// the whole target. The scanner folds them into AppReport.Failures
	// (and FailureCounts), so a partially loaded target is visibly
	// partial, never silently smaller.
	LoadFailures []Failure
}

// Scanner runs the six-phase detection pipeline. A Scanner is safe for
// concurrent use: all mutable state lives in the per-call Scan frame.
type Scanner struct {
	opts Options
}

// NewScanner returns a Scanner with normalized options (default
// extensions, Workers defaulting to runtime.GOMAXPROCS(0), MaxRetries
// defaulting to DefaultMaxRetries; negative MaxRetries disables retries).
func NewScanner(opts Options) *Scanner {
	if len(opts.Extensions) == 0 {
		opts.Extensions = vulnmodel.DefaultExtensions
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case opts.MaxRetries == 0:
		opts.MaxRetries = DefaultMaxRetries
	case opts.MaxRetries < 0:
		opts.MaxRetries = 0
	}
	return &Scanner{opts: opts}
}

// fanOut calls do(i) for every i in [0, n) on at most workers
// goroutines, serially when one would do.
func fanOut(workers, n int, do func(int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			do(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
	for i := range n {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// scanTrace stamps one scan's spans with its app name and records them
// on Options.Trace. A nil *scanTrace disables tracing with zero overhead
// beyond a nil check.
type scanTrace struct {
	rec *obs.Recorder
	app string
}

// newScanTrace returns the scan's trace sink, or nil when Options.Trace
// is nil.
func (s *Scanner) newScanTrace(app string) *scanTrace {
	if s.opts.Trace == nil {
		return nil
	}
	return &scanTrace{rec: s.opts.Trace, app: app}
}

// start opens a span; nil-safe. Every span carries an "app" attribute,
// so span consumers (evalharness.PhaseTimes, trace exports) can attribute
// per-root and per-attempt spans without reconstructing the parent chain
// when one Recorder is shared by a concurrent batch.
func (t *scanTrace) start(parent obs.SpanID, name string, attrs ...obs.Attr) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return t.rec.Start(parent, name, append([]obs.Attr{obs.A("app", t.app)}, attrs...)...)
}

// rootResult is the outcome of phases 3–6 for a single locality root
// (one ladder attempt, or the whole ladder once merged by scanRoot).
// Each worker fills exactly one slot of a pre-sized slice, so the merge
// can walk roots in their canonical (locality) order and produce output
// independent of scheduling.
type rootResult struct {
	paths     int
	objects   int
	sinkCount int
	findings  []Finding
	budget    bool      // some attempt aborted on ErrBudgetExceeded
	failures  []Failure // typed failures, in occurrence order
	retries   int       // ladder retry attempts spent
	skipped   bool      // never ran: the MaxRootFailures limit tripped

	// metrics is the root's deterministic work-counter set (summed over
	// attempts; "_peak" keys by max). Nil when no attempt ran.
	metrics obs.Metrics
}

// addMetrics lazily allocates and merges counters into the root result.
func (rr *rootResult) addMetrics(m obs.Metrics) {
	if len(m) == 0 {
		return
	}
	if rr.metrics == nil {
		rr.metrics = obs.NewMetrics()
	}
	rr.metrics.Merge(m)
}

// countable tallies the root's countable failures.
func (rr *rootResult) countable() int {
	n := 0
	for _, f := range rr.failures {
		if f.Countable() {
			n++
		}
	}
	return n
}

// Scan runs the full pipeline over one application. The context cancels
// or deadlines the expensive phases: symbolic-execution path exploration
// and the SMT candidate search both poll ctx and abort promptly. On
// cancellation Scan returns the partial report alongside ctx.Err();
// per-root cancellation details land in AppReport.Failures. Budgets that
// Budgets.Validate rejects scan nothing: Scan returns its error with a
// report that carries one FailCancelled schedule failure.
func (s *Scanner) Scan(ctx context.Context, t Target) (*AppReport, error) {
	if err := s.opts.Budgets.Validate(); err != nil {
		return scheduleCancelledReport(t.Name, "scan aborted: "+err.Error()), err
	}
	return s.scan(ctx, t, true)
}

// scan is the shared implementation. measureMem gates AppReport.MemoryMB:
// the megabytes the whole process allocated on the heap while the scan
// ran, read from runtime/metrics. That is not the paper's peak memory,
// and it means something only for a scan that runs alone — ScanBatch
// disables it.
func (s *Scanner) scan(ctx context.Context, t Target, measureMem bool) (*AppReport, error) {
	start := time.Now()
	var allocBefore uint64
	if measureMem {
		allocBefore = heapAllocBytes()
	}

	rep := &AppReport{Name: t.Name}
	rep.Metrics = obs.NewMetrics()
	// Loader-stage failures (unreadable files, symlink loops) come first:
	// they predate parsing and participate in FailureCounts below.
	rep.Failures = append(rep.Failures, t.LoadFailures...)

	tr := s.newScanTrace(t.Name)
	scanSpan := tr.start(0, "scan")
	defer scanSpan.End()

	// --- Phase 1: parsing (panic-isolated per file) ---
	parseSpan := tr.start(scanSpan.ID(), "parse")
	names := make([]string, 0, len(t.Sources))
	for n := range t.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*phpast.File, 0, len(names))
	for _, n := range names {
		f, nerrs, fail := s.parseFile(n, t.Sources[n])
		rep.ParseErrors += nerrs
		if fail != nil {
			// The file is dropped from analysis but the scan continues:
			// a parser crash on one file must not sink the app.
			rep.Failures = append(rep.Failures, *fail)
			rep.ParseErrors++
			continue
		}
		files = append(files, f)
	}
	parseSpan.End(obs.A("files", strconv.Itoa(len(files))))

	// The scan's one program table: the call graph and every root,
	// worker and degradation-ladder rung share it.
	progSpan := tr.start(scanSpan.ID(), "program")
	prog := phpast.NewProgram(files)
	engines := interp.NewEngines(prog)
	progSpan.End()

	// Function summaries (the -interproc summary strategy): one table per
	// scan that every root shares; each function's facts are computed on
	// its first lookup. Nil under inline mode, which keeps the engines
	// (and their reports) bit-for-bit on the pre-summary path.
	var sums *summary.Set
	if s.opts.Interproc == interp.InterprocSummary {
		sums = new(summary.Set)
	}

	// --- Phase 2: locality analysis ---
	cgSpan := tr.start(scanSpan.ID(), "callgraph")
	g := callgraph.BuildProgram(prog)
	cgSpan.End()
	locSpan := tr.start(scanSpan.ID(), "locality")
	loc := locality.Analyze(g, files, t.Sources)
	rep.TotalLoC = loc.TotalLoC
	rep.AnalyzedLoC = loc.AnalyzedLoC
	rep.PercentAnalyzed = loc.PercentAnalyzed()

	roots := loc.Roots
	if s.opts.DisableLocality {
		// Whole-program ablation: every file and function is a root.
		roots = roots[:0]
		for _, n := range g.Nodes {
			if n.Kind == callgraph.FileNode || n.Kind == callgraph.FuncNode {
				roots = append(roots, locality.Root{Node: n, File: n.File})
			}
		}
		rep.AnalyzedLoC = rep.TotalLoC
		rep.PercentAnalyzed = 100
	}

	adminCallbacks := map[string]bool{}
	if s.opts.ModelAdminGating {
		adminCallbacks = findAdminCallbacks(files)
	}
	rep.Metrics.Add("locality_roots_found", int64(len(roots)))
	rep.Metrics.Add("locality_files_total", int64(loc.FilesTotal))
	rep.Metrics.Add("locality_files_pruned", int64(loc.FilesPruned))
	locSpan.End(obs.A("roots", strconv.Itoa(len(roots))))

	// --- Phases 3–6 per root, fanned out to the worker pool ---
	results := make([]rootResult, len(roots))
	// failTally accumulates countable failures across workers for the
	// MaxRootFailures early-abort check.
	var failTally atomic.Int64
	runIdx := func(i int) {
		rootName := roots[i].Node.String()
		if ctx.Err() != nil {
			// Cancellation is an operator decision, not a root failure:
			// record it as such, excluded from failure accounting.
			results[i] = scheduleFailure(rootName, FailCancelled,
				"scan cancelled before root started", false)
			return
		}
		if limit := s.opts.MaxRootFailures; limit > 0 && failTally.Load() >= int64(limit) {
			results[i] = scheduleFailure(rootName, FailCancelled,
				fmt.Sprintf("root skipped: app failure limit (%d) reached", limit), true)
			return
		}
		rootSpan := tr.start(scanSpan.ID(), "root", obs.A("root", rootName))
		// pprof labels attribute CPU-profile samples to the app and root
		// being executed, so `go tool pprof` can slice a scan by root.
		pprof.Do(ctx, pprof.Labels("uchecker_app", t.Name, "uchecker_root", rootName), func(ctx context.Context) {
			results[i] = s.scanRoot(ctx, engines, sums, files, roots[i].Node, adminCallbacks, g, tr, rootSpan.ID())
		})
		rootSpan.End(
			obs.A("findings", strconv.Itoa(len(results[i].findings))),
			obs.A("failures", strconv.Itoa(len(results[i].failures))))
		if n := results[i].countable(); n > 0 {
			failTally.Add(int64(n))
		}
	}
	fanOut(s.opts.Workers, len(roots), runIdx)

	// --- Deterministic merge, in canonical root order ---
	for i, root := range roots {
		rr := &results[i]
		rep.Roots = append(rep.Roots, root.Node.String())
		rep.Paths += rr.paths
		rep.Objects += rr.objects
		rep.SinkCount += rr.sinkCount
		rep.Retries += rr.retries
		if rr.budget {
			rep.BudgetExceeded = true
		}
		if rr.skipped {
			rep.Aborted = true
		}
		rep.Failures = append(rep.Failures, rr.failures...)
		rep.Findings = append(rep.Findings, rr.findings...)
		rep.Metrics.Merge(rr.metrics)
	}
	if sums != nil {
		// Every root has finished, so the set has computed all it will.
		rep.Metrics.Add("summary_computed", sums.Computed())
	}
	rep.Findings = dedupeDegraded(rep.Findings)
	sortFindings(rep.Findings)
	if c := countFailures(rep.Failures); len(c) > 0 {
		rep.FailureCounts = c
	}
	// Scanner-level counters. Failure classes become per-class counters
	// with '-' sanitized to '_' for metric-name validity.
	rep.Metrics.Add("scan_retries", int64(rep.Retries))
	rep.Metrics.Add("scan_sink_candidates", int64(rep.SinkCount))
	degradedFindings := 0
	for _, f := range rep.Findings {
		if f.Degraded {
			degradedFindings++
		}
	}
	rep.Metrics.Add("scan_findings", int64(len(rep.Findings)))
	rep.Metrics.Add("scan_findings_degraded", int64(degradedFindings))
	for class, n := range rep.FailureCounts {
		rep.Metrics.Add("scan_failures_"+strings.ReplaceAll(string(class), "-", "_"), int64(n))
	}

	if rep.Paths > 0 {
		rep.ObjectsPerPath = float64(rep.Objects) / float64(rep.Paths)
	}
	for _, f := range rep.Findings {
		if f.Degraded {
			rep.Degraded = true
			continue // partial signal, not a verified verdict
		}
		if !f.AdminGated {
			rep.Vulnerable = true
		}
	}

	if measureMem {
		rep.MemoryMB = float64(heapAllocBytes()-allocBefore) / (1 << 20)
	}
	rep.Seconds = time.Since(start).Seconds()
	return rep, ctx.Err()
}

// heapAllocBytes returns the bytes the process has allocated on the heap
// since it started, freed or not. The runtime counts a small object once
// its span leaves the processor's cache, so a reading can lag by those
// cached spans: by up to 2% of a 20 MB scan with 2 to 8 processors.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// ScanBatch scans whole applications concurrently — the corpus-sweep
// workload of Section IV-B. Up to Options.Workers apps are in flight at
// once, and each of them runs up to Options.Workers of its roots at once,
// so a batch can hold Workers² root attempts (each with its own solver
// factory and interpreter heap). The returned slice is aligned with
// targets; every entry is non-nil even under cancellation: targets that
// never started because the context died (or the journal crashed) carry
// a FailCancelled schedule failure instead of being silently dropped or
// half-scanned.
// Every app in the batch records its spans on Options.Trace.
//
// When Options.Journal / ResumeFrom / CacheDir are set, the batch runs
// through the crash-safety layer (see ScanBatchJournaled, which this
// method delegates to): completed reports are journaled durably,
// resumed sweeps replay them, and unchanged targets are served from the
// content-addressed cache. ScanBatch discards the layer's summary and
// error; callers that need them — the CLI, the worker fleet — use
// ScanBatchJournaled directly.
//
// Batched reports leave MemoryMB at zero: the allocation counter is
// process-wide, so it cannot tell apart apps that scan at once. Use Scan
// for Table III's Alloc(MB) column.
func (s *Scanner) ScanBatch(ctx context.Context, targets []Target) []*AppReport {
	reports, _, _ := s.ScanBatchJournaled(ctx, targets)
	return reports
}

// parseFile parses one source file under recover(): a parser panic (or a
// fault-injected parse failure) is converted into a typed Failure and the
// file is skipped, instead of the crash killing the scan.
func (s *Scanner) parseFile(name, src string) (f *phpast.File, nerrs int, fail *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = nil
			fail = &Failure{
				Root:  name,
				Stage: StageParse,
				Class: FailPanic,
				Err:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	if s.opts.FaultHook != nil {
		if err := s.opts.FaultHook(faultinject.ParseFile, name); err != nil {
			return nil, 0, &Failure{Root: name, Stage: StageParse, Class: FailParse, Err: err.Error()}
		}
	}
	parsed, errs := phpparser.Parse(name, src)
	if parsed == nil {
		return nil, len(errs), &Failure{Root: name, Stage: StageParse, Class: FailParse, Err: "parser returned no AST"}
	}
	return parsed, len(errs), nil
}

// scheduleFailure builds the result of a root that never ran.
func scheduleFailure(root string, class FailureClass, msg string, skipped bool) rootResult {
	return rootResult{
		skipped:  skipped,
		failures: []Failure{{Root: root, Stage: StageSchedule, Class: class, Err: msg}},
	}
}

// scanRoot runs the degradation ladder for one root:
//
//	rung 0    full budgets; a budget abort yields no findings (the
//	          paper's semantics — the Cimy miss).
//	rung 1..  Options.MaxRetries halved-budget reruns of a retryably
//	          failed root; a coarser model (halved unroll/inlining) that
//	          either completes or aborts cheaply, with its partial sink
//	          set degraded-verified. Findings are marked Degraded.
//	final     conservative taint-only fallback (internal/baseline) when
//	          every rung failed without findings.
//
// Every rung is panic-isolated; the ladder is deterministic except under
// Options.RootTimeout (wall clock) — see DESIGN.md "Failure model".
func (s *Scanner) scanRoot(ctx context.Context, engines *interp.EngineFactory, sums *summary.Set, files []*phpast.File, root *callgraph.Node, adminCallbacks map[string]bool, g *callgraph.Graph, tr *scanTrace, rootSpan obs.SpanID) rootResult {
	var rr rootResult
	budgets := s.opts.Budgets
	maxRetries := s.opts.MaxRetries
	if s.opts.DisableDegraded {
		maxRetries = 0
	}
	for attempt := 0; ; attempt++ {
		attemptSpan := tr.start(rootSpan, "attempt", obs.A("rung", strconv.Itoa(attempt)))
		ar := s.runRootAttempt(ctx, engines, sums, files, root, adminCallbacks, g, budgets, attempt, tr, attemptSpan.ID())
		attemptSpan.End(obs.A("findings", strconv.Itoa(len(ar.findings))))
		rr.addMetrics(ar.metrics)
		// Report the deepest exploration's measurements (attempt 0 unless a
		// retry went further), keeping Table III's paths/objects columns
		// faithful to the full-budget run.
		rr.paths = max(rr.paths, ar.paths)
		rr.objects = max(rr.objects, ar.objects)
		rr.sinkCount = max(rr.sinkCount, ar.sinkCount)
		rr.findings = ar.findings
		rr.failures = append(rr.failures, ar.failures...)
		rr.retries = attempt
		if ar.budget {
			rr.budget = true
		}

		failed, retryable := false, false
		for _, fl := range ar.failures {
			if fl.Class == FailCancelled {
				return rr // operator decision: no retries, no fallback
			}
			failed = true
			if fl.Retryable() {
				retryable = true
			}
		}
		if !failed || len(ar.findings) > 0 {
			return rr // clean, or failed with partial findings already
		}
		if retryable && attempt < maxRetries {
			budgets = budgets.Halve()
			continue
		}
		// Final rung: the root failed on every attempt and produced
		// nothing — fall back to the conservative taint-only check.
		if !s.opts.DisableDegraded {
			fbSpan := tr.start(rootSpan, "fallback", obs.A("root", root.String()))
			s.fallbackRoot(&rr, root, files)
			fbSpan.End(obs.A("findings", strconv.Itoa(len(rr.findings))))
		}
		return rr
	}
}

// runRootAttempt executes one ladder rung for one root with a private
// engine (fresh heap graph) and a private solver, touching only shared
// read-only structures (the parsed files and the call graph). The whole attempt runs under recover(): a
// panic in interp, translate or smt becomes a FailPanic failure with the
// captured stack.
func (s *Scanner) runRootAttempt(ctx context.Context, engines *interp.EngineFactory, sums *summary.Set, files []*phpast.File, root *callgraph.Node, adminCallbacks map[string]bool, g *callgraph.Graph, budgets Budgets, attempt int, tr *scanTrace, attemptSpan obs.SpanID) (ar rootResult) {
	rootName := root.String()
	stage := StageSymExec
	defer func() {
		if r := recover(); r != nil {
			ar.failures = append(ar.failures, Failure{
				Root:    rootName,
				Stage:   stage,
				Class:   FailPanic,
				Err:     fmt.Sprint(r),
				Stack:   string(debug.Stack()),
				Attempt: attempt,
			})
		}
	}()

	rctx := ctx
	if s.opts.RootTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, s.opts.RootTimeout)
		defer cancel()
	}
	if s.opts.FaultHook != nil {
		if err := s.opts.FaultHook(faultinject.RootStart, rootName); err != nil {
			ar.failures = append(ar.failures, Failure{
				Root: rootName, Stage: StageSymExec, Class: FailInternal,
				Err: err.Error(), Attempt: attempt,
			})
			return ar
		}
	}

	degraded := attempt > 0
	interpSpan := tr.start(attemptSpan, "interp", obs.A("root", rootName))
	iop := budgets.interpOptions()
	// Summaries ride outside the budget projection: they are injected at
	// engine construction so budgets.go (and the fingerprint's budget
	// slice) stay strategy-agnostic. Nil under inline mode.
	iop.Summaries = sums
	res := engines.New(iop).Run(rctx, root)
	interpSpan.End(obs.A("paths", strconv.Itoa(res.Paths)))
	ar.paths = res.Paths
	ar.objects = res.Graph.NumObjects()
	ar.metrics = obs.NewMetrics()
	ar.metrics.Add("interp_paths_forked", res.Stats.PathsForked)
	ar.metrics.Add("interp_paths_pruned", res.Stats.PathsPruned)
	ar.metrics.Add("interp_paths_held", res.Stats.PathsHeld)
	ar.metrics.Add("interp_budget_checks", res.Stats.BudgetChecks)
	ar.metrics.SetMax("interp_live_envs_peak", res.Stats.LiveEnvsPeak)
	ar.metrics.Add("interp_paths_total", int64(res.Paths))
	ar.metrics.Add("interp_pathcond_shared_nodes", res.Stats.PathCondSharedNodes)
	ar.metrics.Add("interp_objects_allocated", int64(res.Graph.NumObjects()))
	// Summary-strategy counters; zero (and therefore absent) under
	// inline mode, so inline reports stay byte-identical to pre-summary
	// ones.
	ar.metrics.Add("summary_instantiated", res.Stats.SummaryInstantiated)
	ar.metrics.Add("summary_escaped_callees", res.Stats.SummaryEscapedCallees)
	ar.metrics.Add("interp_paths_avoided", res.Stats.PathsAvoided)
	if res.Err != nil {
		class := classifyRootErr(res.Err, ctx, rctx)
		if class == FailPathBudget || class == FailObjectBudget {
			ar.budget = true
		}
		ar.failures = append(ar.failures, Failure{
			Root: rootName, Stage: StageSymExec, Class: class,
			Err: res.Err.Error(), Attempt: attempt,
		})
		// Rung 0 keeps the paper's semantics: a budget abort verifies
		// nothing. Retry rungs degraded-verify the partial exploration —
		// the sink hits recorded before the abort carry valid path
		// constraints, they are just an incomplete set.
		if !degraded || class == FailCancelled || class == FailInternal {
			return ar
		}
	}
	stage = StageVerify
	// Degraded verification runs under the parent context: the root
	// deadline is typically already spent by the time a timed-out rung
	// reaches it, and the (halved) solver budgets bound the work.
	vctx := rctx
	if degraded {
		vctx = ctx
	}
	verifySpan := tr.start(attemptSpan, "verify", obs.A("root", rootName))
	s.verifySinks(ctx, vctx, &ar, root, res, adminCallbacks, g, budgets.solverOptions(), degraded, attempt, tr, verifySpan.ID())
	verifySpan.End(obs.A("sinks", strconv.Itoa(ar.sinkCount)))
	return ar
}

// fallbackRoot is the ladder's final rung: a conservative taint-only
// check over the root's file via the internal/baseline machinery. Its
// hits become Degraded findings — no witness, no solver — so a root that
// defeated symbolic execution still yields signal. The rung is itself
// panic-isolated.
func (s *Scanner) fallbackRoot(rr *rootResult, root *callgraph.Node, files []*phpast.File) {
	rootName := root.String()
	defer func() {
		if r := recover(); r != nil {
			rr.failures = append(rr.failures, Failure{
				Root:  rootName,
				Stage: StageFallback,
				Class: FailPanic,
				Err:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			})
		}
	}()
	if s.opts.FaultHook != nil {
		if err := s.opts.FaultHook(faultinject.Fallback, rootName); err != nil {
			rr.failures = append(rr.failures, Failure{
				Root: rootName, Stage: StageFallback, Class: FailInternal, Err: err.Error(),
			})
			return
		}
	}
	var rootFiles []*phpast.File
	for _, f := range files {
		if f != nil && f.Name == root.File {
			rootFiles = append(rootFiles, f)
		}
	}
	if len(rootFiles) == 0 {
		return
	}
	for _, h := range baseline.RIPSLikeFiles(rootName, rootFiles).Hits {
		if h.Suppressed {
			continue
		}
		rr.findings = append(rr.findings, Finding{
			Sink:     h.Sink,
			File:     h.File,
			Line:     h.Line,
			Degraded: true,
		})
	}
}

// verifySinks models and solver-checks every recorded sink hit of one
// root's execution, appending verified findings to ar. parent is the
// scan-level context (for cancellation classification), vctx the context
// the verification itself runs under. In degraded mode (ladder retries)
// findings are marked Degraded.
func (s *Scanner) verifySinks(parent, vctx context.Context, ar *rootResult, root *callgraph.Node, res interp.Result, adminCallbacks map[string]bool, g *callgraph.Graph, sopts smt.Options, degraded bool, attempt int, strace *scanTrace, verifySpan obs.SpanID) {
	rootName := root.String()
	// One hash-consing factory per root attempt: construction order within
	// a root is deterministic and single-goroutine, so the factory's
	// counters — like every other per-root metric — are byte-identical
	// across worker counts once merged in canonical root order. With
	// Options.DisableIntern the factory is nil and every layer falls
	// back to direct construction.
	var fac *smt.Factory
	if !s.opts.DisableIntern {
		fac = smt.NewFactory()
	}
	solver := smt.NewSolverWithFactory(sopts, fac)
	tr := translate.NewWithFactory(res.Graph, fac)
	// Incremental three-constraint staging: taint is decided structurally
	// per sink below; the extension constraint is asserted and quick-checked
	// on its own (an extension that folds to false soundly short-circuits
	// the sink with no model search); reachability is then pushed on top,
	// reusing the simplified extension prefix and — across sinks sharing a
	// path prefix — the memoized reachability rewrites.
	sess := solver.NewSession()
	seen := map[string]bool{}       // dedupe per (file,line,witness-free)
	solverBudgetNoted := false      // one FailSolverBudget per attempt
	for _, hit := range res.Sinks { //nolint:gocritic // value copy is fine
		ar.sinkCount++
		if err := vctx.Err(); err != nil {
			ar.failures = append(ar.failures, Failure{
				Root: rootName, Stage: StageVerify,
				Class: classifyRootErr(err, parent, vctx),
				Err:   "verification aborted: " + err.Error(), Attempt: attempt,
			})
			return
		}
		modelSpan := strace.start(verifySpan, "model", obs.A("sink", fmt.Sprintf("%s:%d", hit.File, hit.Line)))
		sink := vulnmodel.Sink{
			Name: hit.Sink,
			File: hit.File,
			Line: hit.Line,
			Src:  hit.Src,
			Dst:  hit.Dst,
			Cur:  hit.Env.Cur,
		}
		cand := vulnmodel.Model(res.Graph, tr, sink, s.opts.Extensions)
		modelSpan.End(obs.A("tainted", strconv.FormatBool(cand.Tainted)))
		if !cand.Tainted {
			continue // Constraint-1 failed
		}
		// One satisfiable path per call site is enough for a verdict; skip
		// further paths of an already-confirmed sink.
		key := fmt.Sprintf("%s:%d", cand.File, cand.Line)
		if seen[key] {
			continue
		}
		if s.opts.FaultHook != nil {
			if err := s.opts.FaultHook(faultinject.SolverCheck, key); err != nil {
				if !solverBudgetNoted {
					solverBudgetNoted = true
					ar.failures = append(ar.failures, Failure{
						Root: rootName, Stage: StageVerify, Class: FailSolverBudget,
						Err: err.Error(), Attempt: attempt,
					})
				}
				continue
			}
		}
		solveSpan := strace.start(verifySpan, "solve", obs.A("sink", key))
		var (
			status smt.Status
			model  smt.Model
			sstats smt.Stats
			cerr   error
		)
		sess.Push()
		sess.Assert(cand.Extension)
		if sess.QuickUnsat(&sstats) {
			// Constraint-2 alone is contradictory (the simplifier folded it
			// to false): the conjunction with reachability is false too, so
			// this is a sound Unsat that skips building, simplifying, and
			// searching the reachability constraint entirely.
			status = smt.Unsat
		} else {
			sess.Assert(cand.Reach)
			var cst smt.Stats
			status, model, cst, cerr = sess.CheckCtx(vctx)
			sstats.Accum(cst)
		}
		sess.Pop()
		solveSpan.End(obs.A("status", status.String()))
		ar.metrics.Add("smt_checks", 1)
		ar.metrics.Add("smt_cubes_examined", int64(sstats.Cubes))
		ar.metrics.Add("smt_models_tried", int64(sstats.Assignments))
		ar.metrics.Add("smt_candidates_seeded", int64(sstats.Candidates))
		ar.metrics.Add("smt_verify_reevals", int64(sstats.VerifyEvals))
		ar.metrics.Add("smt_simplifier_rewrites", int64(sstats.Rewrites))
		if status != smt.Sat {
			if errors.Is(cerr, smt.ErrBudget) && !solverBudgetNoted {
				solverBudgetNoted = true
				ar.failures = append(ar.failures, Failure{
					Root: rootName, Stage: StageVerify, Class: FailSolverBudget,
					Err: fmt.Sprintf("%s (sink %s)", cerr, key), Attempt: attempt,
				})
			}
			continue
		}
		seen[key] = true
		vulnmodel.Describe(res.Graph, sink, &cand)
		f := Finding{
			Sink:     cand.Sink,
			File:     cand.File,
			Line:     cand.Line,
			Lines:    cand.Lines,
			SeDst:    sexpr.Format(cand.SeDst),
			SeReach:  sexpr.Format(cand.SeReach),
			Witness:  model,
			Degraded: degraded,
		}
		// Independent exploit validation: evaluate the destination under
		// the witness and confirm the executable suffix concretely.
		if v, err := smt.Eval(cand.DstTerm, modelWithDefaults(cand.DstTerm, model)); err == nil {
			f.ExploitPath = v.S
		}
		if s.opts.KeepSMT {
			f.SMTLIB = smt.ToSMTLIB2(cand.Combined)
		}
		if s.opts.ModelAdminGating && isAdminGated(root, adminCallbacks, g) {
			f.AdminGated = true
		}
		ar.findings = append(ar.findings, f)
	}
	// Factory counters: how much structure the root's constraint terms
	// shared. Per-root and single-goroutine, so — merged in canonical root
	// order like every other metric — they are identical for any Workers.
	if fac != nil {
		fst := fac.Stats()
		ar.metrics.Add("smt_intern_hits", fst.InternHits)
		ar.metrics.Add("smt_intern_misses", fst.InternMisses)
		ar.metrics.Add("smt_simplify_memo_hits", fst.SimplifyMemoHits)
		ar.metrics.Add("smt_incremental_reuse", fst.IncrementalReuse)
	}
}

// dedupeDegraded removes degraded findings that duplicate a verified
// finding at the same call site (another root may have verified the same
// sink the fallback flagged) and collapses identical degraded hits
// produced by different roots sharing a file.
func dedupeDegraded(fs []Finding) []Finding {
	verified := map[string]bool{}
	for _, f := range fs {
		if !f.Degraded {
			verified[fmt.Sprintf("%s:%d", f.File, f.Line)] = true
		}
	}
	out := fs[:0]
	seenDegraded := map[string]bool{}
	for _, f := range fs {
		if f.Degraded {
			key := fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Sink)
			if verified[fmt.Sprintf("%s:%d", f.File, f.Line)] || seenDegraded[key] {
				continue
			}
			seenDegraded[key] = true
		}
		out = append(out, f)
	}
	return out
}

// sortFindings orders findings by file, then line, then sink name —
// stably, so per-root discovery order breaks any remaining ties and the
// output is identical for every worker count.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Sink < fs[j].Sink
	})
}
