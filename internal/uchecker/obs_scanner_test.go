package uchecker

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// TestHookSerialization is the hook-safety regression test: it installs a
// deliberately non-thread-safe Trace.OnEnd callback (unsynchronized
// counter increments and slice appends) and scans a 16-root app with
// Workers=8. Worker goroutines end spans concurrently; the Recorder
// calls OnEnd under its lock, so the callback never observes
// concurrency and -race stays quiet.
func TestHookSerialization(t *testing.T) {
	target := multiRootTarget("hook-race", 16)

	// Plain shared state, intentionally without any synchronization: the
	// race detector flags any concurrent hook invocation.
	spanCalls := 0
	var spanNames []string

	rec := obs.NewRecorder()
	rec.OnEnd = func(sp obs.Span) {
		spanCalls++
		spanNames = append(spanNames, sp.Name)
	}
	opts := Options{Workers: 8, Trace: rec}
	rep, err := NewScanner(opts).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable {
		t.Fatal("expected vulnerable verdict")
	}
	if spanCalls == 0 || len(spanNames) != spanCalls {
		t.Errorf("OnEnd calls = %d, recorded = %d", spanCalls, len(spanNames))
	}
	// Every finished span must have been delivered to OnEnd too.
	if rec.Len() != spanCalls {
		t.Errorf("recorder has %d spans, OnEnd saw %d", rec.Len(), spanCalls)
	}
}

// TestScanBatchHookSerialization covers the batch path: hooks fire from
// many concurrent app scans and must still be serialized.
func TestScanBatchHookSerialization(t *testing.T) {
	targets := []Target{
		multiRootTarget("batch-a", 6),
		multiRootTarget("batch-b", 6),
		multiRootTarget("batch-c", 6),
	}
	calls := 0 // unsynchronized on purpose; -race is the assertion
	rec := obs.NewRecorder()
	rec.OnEnd = func(sp obs.Span) { calls++ }
	opts := Options{Workers: 8, Trace: rec}
	reports := NewScanner(opts).ScanBatch(context.Background(), targets)
	for i, rep := range reports {
		if rep == nil || !rep.Vulnerable {
			t.Fatalf("target %d: unexpected report %+v", i, rep)
		}
	}
	if calls == 0 {
		t.Error("hooks never fired")
	}
}

// TestScanMetricsDeterministicAcrossWorkers asserts the rendered
// Prometheus exposition — the byte-level face of AppReport.Metrics — is
// identical for Workers=1,2,8. Counters count work, not time, and merge
// with commutative/associative operations, so scheduling must not leak in.
func TestScanMetricsDeterministicAcrossWorkers(t *testing.T) {
	target := multiRootTarget("metrics-det", 9)
	var want string
	for _, workers := range []int{1, 2, 8} {
		rep, err := NewScanner(Options{Workers: workers}).Scan(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, "uchecker", []obs.LabeledMetrics{
			{Labels: map[string]string{"app": rep.Name}, Metrics: rep.Metrics},
		}); err != nil {
			t.Fatal(err)
		}
		got := buf.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("Workers=%d metrics differ:\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// TestInstrumentationDoesNotChangeFindings asserts a fully instrumented
// scan (Trace with an OnEnd callback) produces a byte-identical report to
// an uninstrumented one: observability must be a read-only side channel.
func TestInstrumentationDoesNotChangeFindings(t *testing.T) {
	target := multiRootTarget("instrument", 5)

	plain, err := NewScanner(Options{Workers: 4}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	rec.OnEnd = func(obs.Span) {}
	instrumented, err := NewScanner(Options{
		Workers: 4,
		Trace:   rec,
	}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportFingerprint(t, instrumented), reportFingerprint(t, plain); got != want {
		t.Errorf("instrumented report differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestScanSpanTree checks the recorded span hierarchy: one "scan" span
// per app with "parse", "program", "callgraph" and "locality" children,
// one "root" span per locality root, each with at least one "attempt"
// rung containing "interp" (and "verify" when sinks were recorded).
func TestScanSpanTree(t *testing.T) {
	const nRoots = 4
	rec := obs.NewRecorder()
	rep, err := NewScanner(Options{Workers: 2, Trace: rec}).Scan(
		context.Background(), multiRootTarget("span-tree", nRoots))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Roots) != nRoots {
		t.Fatalf("roots = %d, want %d", len(rep.Roots), nRoots)
	}

	spans := rec.Snapshot()
	byID := map[obs.SpanID]obs.Span{}
	count := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		count[sp.Name]++
		if sp.End.IsZero() {
			t.Errorf("span %s (%d) never ended", sp.Name, sp.ID)
		}
	}
	if count["scan"] != 1 {
		t.Fatalf("scan spans = %d, want 1", count["scan"])
	}
	if count["parse"] != 1 || count["program"] != 1 || count["callgraph"] != 1 || count["locality"] != 1 {
		t.Errorf("parse=%d program=%d callgraph=%d locality=%d, want 1 each",
			count["parse"], count["program"], count["callgraph"], count["locality"])
	}
	if count["root"] != nRoots {
		t.Errorf("root spans = %d, want %d", count["root"], nRoots)
	}
	if count["attempt"] < nRoots {
		t.Errorf("attempt spans = %d, want >= %d", count["attempt"], nRoots)
	}
	if count["interp"] < nRoots || count["verify"] < nRoots {
		t.Errorf("interp=%d verify=%d, want >= %d each", count["interp"], count["verify"], nRoots)
	}
	if count["solve"] == 0 {
		t.Error("no solve spans for a vulnerable app")
	}
	// Parent links: parse/program/callgraph/locality/root under scan;
	// attempt under root; interp/verify under attempt; model/solve under
	// verify.
	wantParent := map[string]string{
		"parse": "scan", "program": "scan", "callgraph": "scan",
		"locality": "scan", "root": "scan",
		"attempt": "root", "fallback": "root",
		"interp": "attempt", "verify": "attempt",
		"model": "verify", "solve": "verify",
	}
	for _, sp := range spans {
		want, ok := wantParent[sp.Name]
		if !ok {
			if sp.Name != "scan" {
				t.Errorf("unexpected span name %q", sp.Name)
			}
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %s has dangling parent %d", sp.Name, sp.Parent)
			continue
		}
		if parent.Name != want {
			t.Errorf("span %s parented to %q, want %q", sp.Name, parent.Name, want)
		}
	}
	// The root spans carry the root name attribute.
	for _, sp := range spans {
		if sp.Name == "root" && sp.Attr("root") == "" {
			t.Errorf("root span %d missing root attr", sp.ID)
		}
	}
}

// TestScanMetricsContent spot-checks the counter inventory on a known
// workload: n roots, each with one taint-reaching sink.
func TestScanMetricsContent(t *testing.T) {
	const nRoots = 6
	rep, err := NewScanner(Options{Workers: 3}).Scan(
		context.Background(), multiRootTarget("metrics-content", nRoots))
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m == nil {
		t.Fatal("AppReport.Metrics is nil")
	}
	if got := m["locality_roots_found"]; got != nRoots {
		t.Errorf("locality_roots_found = %d, want %d", got, nRoots)
	}
	if got := m["locality_files_total"]; got != nRoots {
		t.Errorf("locality_files_total = %d, want %d", got, nRoots)
	}
	if got := m["interp_paths_total"]; got != int64(rep.Paths) {
		t.Errorf("interp_paths_total = %d, want %d (rep.Paths)", got, rep.Paths)
	}
	if got := m["scan_findings"]; got != int64(len(rep.Findings)) {
		t.Errorf("scan_findings = %d, want %d", got, len(rep.Findings))
	}
	if got := m["scan_sink_candidates"]; got != int64(rep.SinkCount) {
		t.Errorf("scan_sink_candidates = %d, want %d", got, rep.SinkCount)
	}
	for _, key := range []string{
		"interp_paths_forked", "interp_budget_checks", "interp_live_envs_peak",
		"interp_objects_allocated", "smt_checks", "smt_models_tried",
		"smt_verify_reevals",
	} {
		if m[key] <= 0 {
			t.Errorf("metric %s = %d, want > 0 (metrics: %v)", key, m[key], m)
		}
	}
}

// TestScanMetricsFailureClasses asserts failure-class counters land in
// the metric set with sanitized names (path-budget → path_budget) and
// agree with FailureCounts.
func TestScanMetricsFailureClasses(t *testing.T) {
	rep, err := NewScanner(Options{
		Budgets: Budgets{MaxPaths: 4},
	}).Scan(context.Background(), budgetBlowupTarget())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(rep.FailureCounts[FailPathBudget])
	if want == 0 {
		t.Fatal("path budget did not trip")
	}
	if got := rep.Metrics["scan_failures_path_budget"]; got != want {
		t.Errorf("scan_failures_path_budget = %d, want %d", got, want)
	}
	if got := rep.Metrics["scan_retries"]; got != int64(rep.Retries) {
		t.Errorf("scan_retries = %d, want %d", got, rep.Retries)
	}
	degraded := int64(0)
	for _, f := range rep.Findings {
		if f.Degraded {
			degraded++
		}
	}
	if got := rep.Metrics["scan_findings_degraded"]; got != degraded {
		t.Errorf("scan_findings_degraded = %d, want %d", got, degraded)
	}
}

// TestCancelledMidRetryClassification covers the ladder/cancellation
// interaction: a root that fails retryably on rungs 0 and 1, then hits
// the scan deadline inside rung 2, must classify the rung-2 failure as
// FailCancelled — never as a solver- or path-budget failure — and the
// cancelled failure must stay out of FailureCounts (it is an operator
// decision, not a root defect).
func TestCancelledMidRetryClassification(t *testing.T) {
	target := budgetBlowupTarget()

	// Stateful hook: rungs 0 and 1 run normally (and blow the tiny path
	// budget); the third RootStart stalls past the scan deadline.
	var starts atomic.Int64
	hook := func(p faultinject.Point, detail string) error {
		if p == faultinject.RootStart && starts.Add(1) >= 3 {
			time.Sleep(2 * time.Second)
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()

	rep, err := NewScanner(Options{
		Budgets:    Budgets{MaxPaths: 4},
		MaxRetries: 2,
		FaultHook:  hook,
	}).Scan(ctx, target)
	if err == nil {
		t.Fatal("expected ctx deadline error from Scan")
	}
	if got := starts.Load(); got < 3 {
		t.Fatalf("RootStart fired %d times, want >= 3 (ladder never reached rung 2)", got)
	}

	var cancelled, budget int
	for _, fl := range rep.Failures {
		switch fl.Class {
		case FailCancelled:
			cancelled++
			if fl.Attempt != 2 {
				t.Errorf("cancelled failure on attempt %d, want 2: %+v", fl.Attempt, fl)
			}
		case FailPathBudget:
			budget++
		case FailSolverBudget:
			t.Errorf("deadline misclassified as solver budget: %+v", fl)
		}
	}
	if cancelled != 1 {
		t.Fatalf("cancelled failures = %d, want exactly 1 (failures: %v)", cancelled, rep.Failures)
	}
	if budget != 2 {
		t.Errorf("path-budget failures = %d, want 2 (rungs 0 and 1)", budget)
	}
	// FailureCounts aggregates only countable failures: no cancelled key.
	if n, ok := rep.FailureCounts[FailCancelled]; ok {
		t.Errorf("FailureCounts contains cancelled (%d); operator cancellation is not a root defect", n)
	}
	if rep.FailureCounts[FailPathBudget] != 2 {
		t.Errorf("FailureCounts[path-budget] = %d, want 2", rep.FailureCounts[FailPathBudget])
	}
	// And the metric face agrees.
	if _, ok := rep.Metrics["scan_failures_cancelled"]; ok {
		t.Error("metrics contain scan_failures_cancelled")
	}
	if got := rep.Metrics["scan_failures_path_budget"]; got != 2 {
		t.Errorf("scan_failures_path_budget = %d, want 2", got)
	}
}
