// Package evalharness regenerates the UChecker paper's evaluation
// artifacts over the synthetic corpus:
//
//   - Table III: per-application detection results and measurements (LoC,
//     % of LoC analyzed, paths, objects, objects/path, memory, time,
//     detected-as-vulnerable);
//   - the Section IV-C comparison of UChecker against the RIPS-like and
//     WAP-like baselines (detection rate over the 16 vulnerable apps,
//     false-positive rate over the 28 benign apps).
//
// The same code backs cmd/ucheck-bench and the repository's bench suite.
package evalharness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/uchecker"
)

// Row is one Table III line: the corpus app, its measured report, and the
// paper's numbers for side-by-side comparison.
type Row struct {
	App    corpus.App
	Report *uchecker.AppReport
}

// Detected is the tool verdict for the row.
func (r Row) Detected() bool { return r.Report.Vulnerable }

// RunApp scans one corpus application with the paper's configuration.
func RunApp(app corpus.App, opts uchecker.Options) Row {
	scanner := uchecker.NewScanner(opts)
	rep, _ := scanner.Scan(context.Background(), corpusTarget(app))
	return Row{App: app, Report: rep}
}

func corpusTarget(app corpus.App) uchecker.Target {
	return uchecker.Target{Name: app.Name, Sources: app.Sources}
}

// PhaseTimes aggregates the scanner's trace spans across one or more
// scans into a per-app, per-phase timing table, keyed by (app,
// span-name). Safe for concurrent use — install SpanHook() as the OnEnd
// of the obs.Recorder passed as uchecker.Options.Trace before a scan or
// ScanBatch sweep, and Render() afterwards.
type PhaseTimes struct {
	mu    sync.Mutex
	total map[string]map[string]time.Duration
	order []string // apps in first-seen order
}

// NewPhaseTimes returns an empty aggregator.
func NewPhaseTimes() *PhaseTimes {
	return &PhaseTimes{total: map[string]map[string]time.Duration{}}
}

// SpanHook returns a callback suitable for obs.Recorder.OnEnd. Every
// scanner span carries an "app" attribute, so per-root spans attribute
// correctly even in a concurrent batch. Durations accumulate per (app,
// span name); the taint-only "fallback" rung counts toward verify.
func (p *PhaseTimes) SpanHook() func(obs.Span) {
	return func(sp obs.Span) {
		name := sp.Name
		if name == "fallback" {
			name = "verify"
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		app := sp.Attr("app")
		m, ok := p.total[app]
		if !ok {
			m = map[string]time.Duration{}
			p.total[app] = m
			p.order = append(p.order, app)
		}
		m[name] += sp.Dur()
	}
}

// phaseColumns is the rendering order for the per-phase breakdown: the
// scanner's span names, pipeline order. "program" is the build of the
// scan's one program table and "callgraph" the call graph's nodes and
// edges over it; "root" is phases 3–6 summed over roots; "interp" and "verify"
// split it into symbolic execution and modeling+translation+solving;
// "scan" is the whole-scan wall clock.
var phaseColumns = []string{"parse", "program", "callgraph", "locality", "root", "interp", "verify", "scan"}

// Render formats the per-app, per-phase breakdown as a table (seconds).
// A TOTAL row sums each column. root/interp/verify are summed per-root
// time, so with Workers>1 they can exceed the scan wall-clock column —
// that surplus is the speedup.
func (p *PhaseTimes) Render() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sb strings.Builder
	sb.WriteString("Per-phase timing breakdown (seconds)\n")
	fmt.Fprintf(&sb, "%-55s", "App")
	for _, ph := range phaseColumns {
		fmt.Fprintf(&sb, " %9s", ph)
	}
	sb.WriteString("\n")
	sum := map[string]time.Duration{}
	apps := append([]string(nil), p.order...)
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(&sb, "%-55s", truncate(app, 55))
		for _, ph := range phaseColumns {
			d := p.total[app][ph]
			sum[ph] += d
			fmt.Fprintf(&sb, " %9.3f", d.Seconds())
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-55s", "TOTAL")
	for _, ph := range phaseColumns {
		fmt.Fprintf(&sb, " %9.3f", sum[ph].Seconds())
	}
	sb.WriteString("\n")
	return sb.String()
}

// TableIIIApps lists the Table III applications in the paper's order:
// the 13 known-vulnerable, the 2 admin-gated false-positive plugins, and
// the 3 newly found ones — 18 rows.
func TableIIIApps() []corpus.App {
	apps := append([]corpus.App(nil), corpus.KnownVulnerableApps()...)
	apps = append(apps,
		mustApp("Event Registration Pro Calendar 1.0.2"),
		mustApp("Tumult Hype Animations 1.7.1"))
	apps = append(apps, corpus.NewVulnApps()...)
	return apps
}

// TableIII runs the detector over the Table III applications one at a
// time: a solo scan carries MemoryMB, which the table prints as
// Alloc(MB), the megabytes the whole process allocated during the scan.
// That is not the paper's peak memory.
func TableIII(opts uchecker.Options) []Row {
	var rows []Row
	for _, app := range TableIIIApps() {
		rows = append(rows, RunApp(app, opts))
	}
	return rows
}

func mustApp(name string) corpus.App {
	app, ok := corpus.ByName(name)
	if !ok {
		panic("corpus: missing app " + name)
	}
	return app
}

// RenderTableIII formats rows like the paper's Table III, with measured
// values.
func RenderTableIII(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("TABLE III: Detection Results (measured)\n")
	fmt.Fprintf(&sb, "%-55s %8s %9s %8s %8s %9s %8s %9s %8s %5s\n",
		"System", "LoC", "%Analyzed", "Paths", "Forked", "Objects", "Obj/Path", "Alloc(MB)", "Time(s)", "Vuln")
	group := ""
	for _, r := range rows {
		g := string(r.App.Category)
		if r.App.AdminGated {
			g = "false-positive"
		}
		if g != group {
			group = g
			fmt.Fprintf(&sb, "-- %s --\n", group)
		}
		rep := r.Report
		verdict := "No"
		if rep.Vulnerable {
			verdict = "Yes"
		}
		if rep.BudgetExceeded {
			verdict = "No*" // aborted, the paper's blank-cells row
		}
		fmt.Fprintf(&sb, "%-55s %8d %8.2f%% %8d %8d %9d %8.1f %9.1f %8.2f %5s\n",
			truncate(r.App.Name, 55), rep.TotalLoC, rep.PercentAnalyzed, rep.Paths,
			rep.Metrics["interp_paths_forked"],
			rep.Objects, rep.ObjectsPerPath, rep.MemoryMB, rep.Seconds, verdict)
	}
	sb.WriteString("(* symbolic execution exceeded its budget; detection failed as in the paper)\n")
	return sb.String()
}

// CimyBeforeAfter runs the paper's path-explosion case study — Cimy
// User Extra Fields, the Table III budget-exhaustion false negative —
// under the inline (before) and summary (after) interprocedural
// strategies with otherwise identical options, so the win is visible as
// two adjacent rows.
func CimyBeforeAfter(opts uchecker.Options) (before, after Row) {
	app := mustApp("Cimy User Extra Fields 2.3.8")
	inlineOpts := opts
	inlineOpts.Interproc = interp.InterprocInline
	summaryOpts := opts
	summaryOpts.Interproc = interp.InterprocSummary
	return RunApp(app, inlineOpts), RunApp(app, summaryOpts)
}

// RenderCimyBeforeAfter formats the CimyBeforeAfter pair: paths forked,
// paths merged away, retries and verdict under each strategy.
func RenderCimyBeforeAfter(before, after Row) string {
	var sb strings.Builder
	sb.WriteString("Cimy User Extra Fields 2.3.8: inline vs summary interprocedural strategy\n")
	fmt.Fprintf(&sb, "%-20s %8s %8s %8s %8s %8s %5s\n",
		"Strategy", "Paths", "Forked", "Avoided", "Retries", "Budget", "Vuln")
	row := func(name string, r Row) {
		rep := r.Report
		verdict := "No"
		if rep.Vulnerable {
			verdict = "Yes"
		}
		budget := "ok"
		if rep.BudgetExceeded {
			budget = "blown"
		}
		fmt.Fprintf(&sb, "%-20s %8d %8d %8d %8d %8s %5s\n",
			name, rep.Paths, rep.Metrics["interp_paths_forked"],
			rep.Metrics["interp_paths_avoided"], rep.Retries, budget, verdict)
	}
	row("inline (before)", before)
	row("summary (after)", after)
	return sb.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// ToolResult is one scanner's confusion counts over the corpus.
type ToolResult struct {
	Tool string
	// TP out of the 16 vulnerable apps (13 known + 3 new).
	TP int
	// FP out of the 28 benign apps.
	FP int
	// PerApp records each app's verdict.
	PerApp map[string]bool
}

// Comparison runs UChecker, RIPS-like and WAP-like over the full corpus
// (16 vulnerable + 28 benign) and returns per-tool results, reproducing
// Section IV-C. Ground truth for the two admin-gated apps is benign, so a
// flag on them counts as a false positive — exactly how the paper scores
// its own tool's 2 FPs.
func Comparison(opts uchecker.Options) []ToolResult {
	apps := corpus.All()
	tools := []ToolResult{
		{Tool: "UChecker", PerApp: map[string]bool{}},
		{Tool: "RIPS-like", PerApp: map[string]bool{}},
		{Tool: "WAP-like", PerApp: map[string]bool{}},
	}
	targets := make([]uchecker.Target, len(apps))
	for i, app := range apps {
		targets[i] = corpusTarget(app)
	}
	uReps := uchecker.NewScanner(opts).ScanBatch(context.Background(), targets)
	for i, app := range apps {
		verdicts := []bool{
			uReps[i].Vulnerable,
			baseline.RIPSLike(app.Name, app.Sources).Flagged,
			baseline.WAPLike(app.Name, app.Sources).Flagged,
		}
		for i := range tools {
			tools[i].PerApp[app.Name] = verdicts[i]
			if verdicts[i] {
				if app.Vulnerable {
					tools[i].TP++
				} else {
					tools[i].FP++
				}
			}
		}
	}
	return tools
}

// ScreeningResult summarizes a Section IV-B-style screening sweep over a
// generated plugin population.
type ScreeningResult struct {
	// Scanned is the number of plugins screened.
	Scanned int
	// Planted is the number of seeded vulnerable plugins.
	Planted int
	// Found is how many seeded plugins the detector flagged.
	Found int
	// ExtraFlags counts flags on unplanted plugins (screening FPs).
	ExtraFlags int
	// TotalLoC is the code volume screened.
	TotalLoC int
	// Seconds is the wall-clock cost of the sweep.
	Seconds float64
	// Flagged lists the flagged plugin names in scan order.
	Flagged []string
}

// Screening reproduces the Section IV-B workflow at the given scale: scan
// n generated plugins (with a seeded vulnerable plugin every plantEvery
// positions) and report recall over the seeded vulnerabilities plus the
// sweep's throughput. The paper's crawl screened 9,160 plugins and
// surfaced 3 true findings; the generator reproduces the workflow's shape
// at any n.
func Screening(opts uchecker.Options, seed int64, n, plantEvery int) ScreeningResult {
	apps := corpus.RandomPlugins(seed, n, plantEvery)
	var res ScreeningResult
	res.Scanned = len(apps)
	start := time.Now()
	targets := make([]uchecker.Target, len(apps))
	for i, app := range apps {
		if app.Planted {
			res.Planted++
		}
		targets[i] = uchecker.Target{Name: app.Name, Sources: app.Sources}
	}
	reps := uchecker.NewScanner(opts).ScanBatch(context.Background(), targets)
	for i, app := range apps {
		rep := reps[i]
		res.TotalLoC += rep.TotalLoC
		if rep.Vulnerable {
			res.Flagged = append(res.Flagged, app.Name)
			if app.Planted {
				res.Found++
			} else {
				res.ExtraFlags++
			}
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res
}

// RenderScreening formats a screening sweep summary.
func RenderScreening(r ScreeningResult) string {
	var sb strings.Builder
	sb.WriteString("Section IV-B screening sweep (measured)\n")
	fmt.Fprintf(&sb, "plugins scanned: %d (%d LoC total)\n", r.Scanned, r.TotalLoC)
	fmt.Fprintf(&sb, "seeded vulnerabilities found: %d/%d, extra flags: %d\n",
		r.Found, r.Planted, r.ExtraFlags)
	if r.Seconds > 0 {
		fmt.Fprintf(&sb, "throughput: %.1f plugins/s (%.2f s total)\n",
			float64(r.Scanned)/r.Seconds, r.Seconds)
	}
	return sb.String()
}

// FailureTally aggregates countable failures per class across a batch of
// reports — the operator's view of what went wrong in a corpus sweep.
// Cancelled entries are excluded (they already are from each report's
// FailureCounts). Nil when the sweep was failure-free.
func FailureTally(reps []*uchecker.AppReport) map[uchecker.FailureClass]int {
	var tally map[uchecker.FailureClass]int
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		for class, n := range rep.FailureCounts {
			if tally == nil {
				tally = map[uchecker.FailureClass]int{}
			}
			tally[class] += n
		}
	}
	return tally
}

// RenderFailureTally formats a per-class failure tally, classes sorted by
// name. An empty tally renders as a single clean-sweep line.
func RenderFailureTally(tally map[uchecker.FailureClass]int) string {
	var sb strings.Builder
	sb.WriteString("Failure tally (countable failures per class)\n")
	if len(tally) == 0 {
		sb.WriteString("no failures\n")
		return sb.String()
	}
	classes := make([]string, 0, len(tally))
	for c := range tally {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&sb, "%-15s %d\n", c, tally[uchecker.FailureClass(c)])
	}
	return sb.String()
}

// CounterTally merges every report's deterministic work counters into
// one corpus-wide metric set: "_peak" gauges by max, everything else
// additive — the same commutative merge the scanner uses per root, so
// the tally is independent of app order and worker count.
func CounterTally(reps []*uchecker.AppReport) obs.Metrics {
	total := obs.NewMetrics()
	for _, rep := range reps {
		if rep != nil {
			total.Merge(rep.Metrics)
		}
	}
	return total
}

// RenderCounterTable formats the corpus-wide work-counter table, metric
// names sorted. Peak gauges are marked to distinguish high-water marks
// from monotone counts.
func RenderCounterTable(m obs.Metrics) string {
	var sb strings.Builder
	sb.WriteString("Work counters (deterministic; merged across all apps)\n")
	if len(m) == 0 {
		sb.WriteString("no counters recorded\n")
		return sb.String()
	}
	for _, k := range m.Keys() {
		kind := "counter"
		if strings.HasSuffix(k, obs.PeakSuffix) {
			kind = "gauge"
		}
		fmt.Fprintf(&sb, "%-28s %12d  %s\n", k, m[k], kind)
	}
	return sb.String()
}

// RenderComparison formats the Section IV-C table.
func RenderComparison(results []ToolResult) string {
	var sb strings.Builder
	sb.WriteString("Section IV-C: Comparison with other detection solutions (measured)\n")
	fmt.Fprintf(&sb, "%-12s %18s %22s\n", "Tool", "Detected (of 16)", "False positives (of 28)")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-12s %15d/16 %19d/28\n", r.Tool, r.TP, r.FP)
	}
	return sb.String()
}
