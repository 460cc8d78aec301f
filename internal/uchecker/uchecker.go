// Package uchecker is the end-to-end UChecker pipeline (Figure 2 of the
// paper): parsing → vulnerability-oriented locality analysis → AST-based
// symbolic execution → vulnerability modeling → Z3-oriented translation →
// SMT-based verification.
//
// The public entry point is the v2 Scanner API: Scanner.Scan runs the
// pipeline over one application (a Target: name plus a map of PHP
// sources) with context cancellation and parallel per-root execution,
// and Scanner.ScanBatch sweeps whole corpora concurrently. Both produce
// AppReports carrying the detection verdict, per-finding source lines
// and witness models, and the measurements Table III reports (LoC, %
// analyzed, paths, objects, objects/path, memory, time).
package uchecker

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/callgraph"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/smt"
)

// Options configures a Scanner. The zero value reproduces the paper's
// configuration (".php"/".php5" extensions, no admin-gating model — which
// is what produces the two admin-plugin false positives of Section IV-A).
type Options struct {
	// Extensions are the executable extensions of Constraint-2.
	// Default: [".php", ".php5"].
	Extensions []string
	// Budgets bounds the per-root resource consumption of symbolic
	// execution and SMT model search. The zero value selects the paper's
	// defaults; the degradation ladder halves the whole set per rung via
	// Budgets.Halve.
	Budgets Budgets
	// Interproc selects the interprocedural call strategy:
	// interp.InterprocInline (inline every user-function call, the
	// default — the empty string selects it too, reproducing the paper's
	// behavior including the Cimy budget-exhaustion miss) or
	// interp.InterprocSummary (compute a function's summary the first
	// time the scan reaches it, at most once per scan, and merge
	// observably equivalent paths at statement boundaries inside the
	// inlined frames of callees whose summary does not escape; escaped
	// callees — by-ref params, dynamic calls, globals, methods,
	// closures, … — inline plainly so findings never change).
	Interproc interp.InterprocKind
	// DisableLocality skips the vulnerability-oriented locality analysis
	// and symbolically executes every file and every function as a root —
	// the whole-program baseline the paper's locality analysis exists to
	// avoid. For ablation benchmarks.
	DisableLocality bool
	// ModelAdminGating enables the Section VI extension: sinks only
	// reachable through callbacks registered with
	// add_action('admin_menu', …) are reported as admin-gated and excluded
	// from the vulnerable verdict. Off by default to match the paper.
	ModelAdminGating bool
	// KeepSMT records each finding's SMT-LIB2 script in the report.
	KeepSMT bool
	// Workers bounds the per-root (and, in ScanBatch, per-app) worker
	// pool. Zero or negative selects runtime.GOMAXPROCS(0). Workers=1
	// scans serially; results are byte-identical for every value.
	Workers int
	// Trace, when non-nil, records the scan's span tree: a "scan" span
	// per app with "parse" / "program" / "callgraph" / "locality"
	// children, a "root" span per locality root with one "attempt" child
	// per degradation-ladder rung (plus "fallback"), and "interp" /
	// "model" / "solve" spans inside each attempt. Every span carries the
	// app's name as its "app" attribute. Export the snapshot with
	// obs.WriteChromeTrace. The Recorder is safe to share across scans
	// and batches. A consumer that wants each span as it ends sets the
	// Recorder's OnEnd: the Recorder calls it under its lock, so it never
	// observes concurrency, even under Workers>1 or ScanBatch.
	Trace *obs.Recorder
	// RootTimeout bounds the wall clock of each per-root attempt. A root
	// that exceeds it fails with a FailRootTimeout failure (and enters the
	// degradation ladder) instead of stalling the whole scan. Zero
	// disables the per-root deadline. Note that a non-zero RootTimeout
	// makes reports timing-dependent: whether a given root finishes or
	// degrades can vary run to run.
	RootTimeout time.Duration
	// MaxRetries is the number of degradation-ladder retries for a root
	// whose attempt fails with a retryable class (path/object/solver
	// budget, root timeout). Each retry halves the interpreter and solver
	// budgets (and the loop-unroll / inlining depth), so it explores a
	// coarser, cheaper model; findings from retries are marked Degraded.
	// Zero selects DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// MaxRootFailures, when positive, aborts an app's scan early once
	// that many countable (non-cancelled) failures have accumulated:
	// remaining roots are skipped (recorded as cancelled schedule
	// failures) and AppReport.Aborted is set. Zero means no limit. Which
	// roots are skipped depends on worker scheduling, so reports of an
	// aborted scan are not deterministic across worker counts.
	MaxRootFailures int
	// DisableIntern turns off the hash-consing term factory of the SMT
	// layer: every constraint term is heap-allocated directly (no intern
	// table, no memoized simplification, no incremental-session reuse),
	// exactly the pre-interning pipeline. Findings are byte-identical
	// either way. No CLI flag sets it: it is the reference side of
	// TestInternAblationByteIdentical and a bisection lever should
	// interning ever be suspected of a miscompare.
	DisableIntern bool
	// DisableDegraded switches the degradation ladder off wholesale: no
	// halved-budget retries, no degraded verification of partial
	// explorations, no taint-only fallback. Failed roots then surface
	// only their typed failures, exactly as in the paper's configuration
	// (a budget abort is a silent miss).
	DisableDegraded bool
	// FaultHook, when non-nil, is invoked at the faultinject.Point seams
	// of the pipeline. Tests use it to inject panics, slow roots and
	// forced solver failures; production scans leave it nil.
	FaultHook faultinject.Hook
	// Journal, when non-empty, makes ScanBatch crash-safe: an append-only,
	// per-record-checksummed journal (see internal/scanjournal) records
	// the batch manifest, each target's start, and each completed
	// target's full report, fsynced record by record. A journal append
	// failure aborts the batch with crash semantics — unstarted targets
	// get FailCancelled reports and the error surfaces from
	// ScanBatchJournaled.
	Journal string
	// ResumeFrom, when non-empty, recovers a previous sweep's journal
	// before scanning: targets with a salvaged finish record written
	// under the same options fingerprint are replayed byte-identically
	// without re-scanning; in-flight (started-but-unfinished) and
	// never-started targets are scanned normally. Corruption anywhere in
	// the journal — torn tail, bad checksum, version skew, duplicate
	// finish — salvages every valid prefix record and surfaces one
	// FailJournalCorrupt in BatchStats; it never aborts the resume.
	// Pointing Journal and ResumeFrom at the same file is the intended
	// idiom (the journal is compacted first when its tail is corrupt). A
	// missing ResumeFrom file is a fresh sweep, not an error.
	ResumeFrom string
	// CacheDir, when non-empty, enables the content-addressed result
	// cache for ScanBatch: each target is keyed by a SHA-256 over its
	// sorted file contents, the options fingerprint (budgets, retries,
	// extensions, …) and the cache format version, so an unchanged
	// target on an unchanged configuration is served the byte-identical
	// cached report without re-scanning. Corrupt or unreadable entries
	// are misses (pruned and re-written), never errors. Reports from
	// scans interrupted by ctx cancellation are not cached.
	CacheDir string
	// Drain, when non-nil and closed, switches ScanBatchJournaled into
	// graceful-drain mode: targets not yet started get FailCancelled
	// schedule reports (never journaled — the next resume re-scans them),
	// while in-flight scans run to completion and journal their finishes
	// normally. This is the SIGTERM half of the worker shutdown contract
	// — distinct from ctx cancellation, which also interrupts in-flight
	// scans and leaves them un-journaled. Drain does not participate in
	// the options fingerprint: it changes which targets run, never what
	// any report contains.
	Drain <-chan struct{}
}

// DefaultMaxRetries is the degradation-ladder retry count selected when
// Options.MaxRetries is zero: one halved-budget rerun before the
// taint-only fallback rung.
const DefaultMaxRetries = 1

// Finding is one verified vulnerable sink on one satisfiable path.
type Finding struct {
	Sink string
	File string
	Line int
	// Lines are all source lines contributing to the constraints — the
	// paper's source-code-level feedback.
	Lines []int
	// SeDst / SeReach are the PHP s-expressions of the destination and
	// reachability constraints.
	SeDst   string
	SeReach string
	// Witness is the satisfying assignment: concrete attacker-controlled
	// values (e.g. s_ext = ".php") demonstrating the exploit.
	Witness smt.Model
	// ExploitPath is the concrete destination path obtained by evaluating
	// the translated destination under the witness — the location where
	// the attacker's script lands on the server.
	ExploitPath string
	// SMTLIB is the solver input (set when Options.KeepSMT).
	SMTLIB string
	// AdminGated marks findings suppressed by the admin-gating model.
	AdminGated bool
	// Degraded marks lower-confidence findings produced by the
	// degradation ladder — either a halved-budget retry (coarser model)
	// or the taint-only fallback (no witness, no constraint solving).
	// Degraded findings never set AppReport.Vulnerable: they are partial
	// signal from a root that would otherwise have produced nothing.
	Degraded bool `json:",omitempty"`
}

// AppReport is the scan result for one application, carrying Table III's
// columns.
type AppReport struct {
	Name string

	// Table III columns.
	TotalLoC        int
	AnalyzedLoC     int
	PercentAnalyzed float64
	Paths           int
	Objects         int
	ObjectsPerPath  float64
	// MemoryMB is the megabytes the whole process allocated on the heap
	// during a solo Scan (Table III's Alloc(MB) column): not the paper's
	// peak memory, and zero in batched and canonical reports.
	MemoryMB float64
	Seconds  float64

	// Roots selected by the locality analysis.
	Roots []string
	// SinkCount is the number of (path, sink) candidates examined.
	SinkCount int
	// Findings are the verified vulnerable sinks.
	Findings []Finding
	// Vulnerable is the verdict: at least one non-admin-gated finding.
	Vulnerable bool
	// BudgetExceeded reports that symbolic execution aborted (the paper's
	// Cimy User Extra Fields failure mode); the verdict is then "not
	// detected".
	BudgetExceeded bool
	// ParseErrors counts tolerated syntax errors.
	ParseErrors int
	// Failures are the typed failure records: parse-stage failures first
	// (in file-name order), then per-root failures in canonical root
	// order. Cancellation entries are included here for visibility but
	// excluded from FailureCounts.
	Failures []Failure `json:",omitempty"`
	// FailureCounts aggregates countable (non-cancelled) failures per
	// class. Nil when the scan was failure-free.
	FailureCounts map[FailureClass]int `json:",omitempty"`
	// Degraded reports that at least one finding was produced by the
	// degradation ladder (and is marked Finding.Degraded).
	Degraded bool `json:",omitempty"`
	// Retries is the total number of degradation-ladder retry attempts
	// spent across all roots.
	Retries int `json:",omitempty"`
	// Aborted reports that Options.MaxRootFailures tripped and remaining
	// roots were skipped.
	Aborted bool `json:",omitempty"`
	// Metrics is the scan's deterministic counter set: typed counters
	// from the interpreter (paths forked/pruned/held, budget
	// checkpoints, peak live envs, objects allocated), the solver
	// (candidates seeded, models tried, verify re-evals, simplifier
	// rewrites), the locality analysis (roots found, files pruned) and
	// the scanner itself (retries, degraded findings, per-class
	// failures). Per-root contributions are merged in canonical root
	// order with commutative operations, so the metric set is
	// byte-identical for every Options.Workers value. See DESIGN.md
	// "Observability" for the full counter inventory.
	Metrics obs.Metrics `json:",omitempty"`
}

// modelWithDefaults extends a model with zero values for any variable of
// t the solver never constrained.
func modelWithDefaults(t *smt.Term, m smt.Model) smt.Model {
	out := make(smt.Model, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, v := range smt.Vars(t) {
		if _, ok := out[v.S]; !ok {
			switch v.Sort() {
			case smt.SortBool:
				out[v.S] = smt.BoolValue(false)
			case smt.SortInt:
				out[v.S] = smt.IntValue(0)
			default:
				out[v.S] = smt.StrValue("")
			}
		}
	}
	return out
}

// findAdminCallbacks collects the lower-cased names of callbacks
// registered with add_action('admin_menu', …) — the WordPress pattern the
// paper's Section IV-A false positives hinge on (Listing 5).
func findAdminCallbacks(files []*phpast.File) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		phpast.Walk(f, func(n phpast.Node) bool {
			call, ok := n.(*phpast.Call)
			if !ok {
				return true
			}
			name, ok := phpast.CalleeName(call)
			if !ok || name != "add_action" || len(call.Args) < 2 {
				return true
			}
			hook, ok := call.Args[0].(*phpast.StringLit)
			if !ok || !strings.HasPrefix(hook.Value, "admin_") {
				return true
			}
			if cb, ok := call.Args[1].(*phpast.StringLit); ok {
				out[strings.ToLower(cb.Value)] = true
			}
			return true
		})
	}
	return out
}

// isAdminGated reports whether the analysis root is (or is only reachable
// through) an admin-registered callback.
func isAdminGated(root *callgraph.Node, adminCallbacks map[string]bool, g *callgraph.Graph) bool {
	if len(adminCallbacks) == 0 {
		return false
	}
	if root.Kind == callgraph.FuncNode && adminCallbacks[root.Name] {
		return true
	}
	// A file root is gated when every sink-reaching successor is an admin
	// callback subtree.
	if root.Kind == callgraph.FileNode {
		gated := false
		for _, s := range g.Succ[root] {
			if s.Kind != callgraph.FuncNode {
				continue
			}
			if !g.Reaches(s, callgraph.SinkNode) {
				continue
			}
			if adminCallbacks[s.Name] {
				gated = true
			} else {
				return false
			}
		}
		return gated
	}
	return false
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d %s", f.File, f.Line, f.Sink)
}
