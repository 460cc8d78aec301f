package evalharness

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/uchecker"
)

// Table III scans are expensive (the Cimy abort dominates); compute each
// configuration once per test binary.
var (
	tableOnce sync.Once
	tableRows []Row
)

func cachedTableIII(t *testing.T) []Row {
	t.Helper()
	tableOnce.Do(func() {
		tableRows = TableIII(testOptions(t))
	})
	return tableRows
}

// testOptions keeps the heavy Cimy abort cheap under -short: a 20000-path
// budget still clears Avatar Uploader's 9216 paths and still aborts Cimy
// (which needs 248832), reproducing the paper's false negative at a
// fraction of the memory.
func testOptions(t *testing.T) uchecker.Options {
	t.Helper()
	if testing.Short() {
		return uchecker.Options{Budgets: uchecker.Budgets{MaxPaths: 20000}}
	}
	return uchecker.Options{}
}

// TestTableIIIVerdicts checks every named row's verdict against the paper:
// 12/13 known vulnerable detected (Cimy aborts), both admin-gated plugins
// flagged (the documented FPs), and all 3 new vulnerabilities found.
func TestTableIIIVerdicts(t *testing.T) {
	rows := cachedTableIII(t)
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	for _, r := range rows {
		if r.App.Paper == nil {
			t.Fatalf("%s: missing paper row", r.App.Name)
		}
		want := r.App.Paper.Detected
		if got := r.Detected(); got != want {
			t.Errorf("%s: detected = %v, paper says %v", r.App.Name, got, want)
		}
	}
}

func TestTableIIICimyBudget(t *testing.T) {
	rows := cachedTableIII(t)
	for _, r := range rows {
		if strings.HasPrefix(r.App.Name, "Cimy") {
			if !r.Report.BudgetExceeded {
				t.Error("Cimy must exceed the budget (the paper's FN)")
			}
			if r.Report.Vulnerable {
				t.Error("Cimy must not be reported vulnerable")
			}
			return
		}
	}
	t.Fatal("Cimy row missing")
}

// TestCimyBeforeAfter covers the block `ucheck-bench -table -interproc
// summary` prints: at a 20000-path budget the inline row blows its
// budget and misses the upload, while the summary row completes in one
// path with no retries and flags it.
func TestCimyBeforeAfter(t *testing.T) {
	before, after := CimyBeforeAfter(uchecker.Options{Budgets: uchecker.Budgets{MaxPaths: 20000}})
	if !before.Report.BudgetExceeded || before.Report.Vulnerable {
		t.Errorf("inline: budget blown=%v vulnerable=%v, want true/false",
			before.Report.BudgetExceeded, before.Report.Vulnerable)
	}
	if after.Report.Paths != 1 || after.Report.Retries != 0 || !after.Report.Vulnerable {
		t.Errorf("summary: paths=%d retries=%d vulnerable=%v, want 1/0/true",
			after.Report.Paths, after.Report.Retries, after.Report.Vulnerable)
	}
	out := RenderCimyBeforeAfter(before, after)
	for _, want := range []string{"inline (before)", "summary (after)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q row:\n%s", want, out)
		}
	}
}

// TestTableIIIPathCounts verifies the branch factorization reproduces the
// paper's path counts exactly for the rows that complete.
func TestTableIIIPathCounts(t *testing.T) {
	rows := cachedTableIII(t)
	for _, r := range rows {
		if r.Report.BudgetExceeded {
			continue
		}
		if got, want := r.Report.Paths, r.App.Paper.Paths; got != want {
			t.Errorf("%s: paths = %d, paper %d", r.App.Name, got, want)
		}
	}
}

// TestTableIIILocalityReduction verifies the %-analyzed column is in the
// paper's neighbourhood (the headline locality-analysis result).
func TestTableIIILocalityReduction(t *testing.T) {
	rows := cachedTableIII(t)
	for _, r := range rows {
		got := r.Report.PercentAnalyzed
		want := r.App.Paper.PctAnalyzed
		if got <= 0 {
			t.Errorf("%s: no analyzed code", r.App.Name)
			continue
		}
		// Within a factor of two of the paper's percentage.
		if got > want*2 || got < want/2 {
			t.Errorf("%s: %%analyzed = %.2f, paper %.2f", r.App.Name, got, want)
		}
	}
}

// TestTableIIIObjectSharing checks the objects-per-path economy the paper
// credits to the heap-graph design ("each path has less than 100 objects
// on average", Cimy exempted).
func TestTableIIIObjectSharing(t *testing.T) {
	rows := cachedTableIII(t)
	for _, r := range rows {
		if r.Report.BudgetExceeded {
			continue
		}
		if r.Report.ObjectsPerPath >= 150 {
			t.Errorf("%s: objects/path = %.1f, want < 150", r.App.Name, r.Report.ObjectsPerPath)
		}
	}
}

func TestRenderTableIII(t *testing.T) {
	rows := cachedTableIII(t)
	out := RenderTableIII(rows)
	for _, want := range []string{
		"TABLE III",
		"Adblock Blocker 0.0.1",
		"Cimy User Extra Fields 2.3.8",
		"File Provider 1.2.3",
		"No*",
		"-- known-vulnerable --",
		"-- false-positive --",
		"-- new-vuln --",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestPhaseTimesSpanHook covers the -phases aggregation: spans from a
// concurrent two-app batch attribute to the right app via the "app"
// span attribute, and Render emits one row per app plus every phase
// column and a TOTAL row.
func TestPhaseTimesSpanHook(t *testing.T) {
	names := []string{"Uploadify 1.0.0", "Adblock Blocker 0.0.1"}
	var targets []uchecker.Target
	for _, n := range names {
		app, ok := corpus.ByName(n)
		if !ok {
			t.Fatalf("missing corpus app %q", n)
		}
		targets = append(targets, corpusTarget(app))
	}
	times := NewPhaseTimes()
	rec := obs.NewRecorder()
	rec.OnEnd = times.SpanHook()
	reps := uchecker.NewScanner(uchecker.Options{
		Workers: 4,
		Trace:   rec,
	}).ScanBatch(context.Background(), targets)
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("report %d is nil", i)
		}
	}
	out := times.Render()
	for _, want := range append([]string{"parse", "program", "callgraph", "locality", "root", "interp", "verify", "scan", "TOTAL"}, names...) {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q:\n%s", want, out)
		}
	}
	// Per-app attribution: each app accumulated its own nonzero scan time.
	for _, n := range names {
		if d := times.total[n]["scan"]; d <= 0 {
			t.Errorf("%s: scan time = %v, want > 0", n, d)
		}
	}
}

// TestCounterTableDeterministic asserts the ucheck-bench -counters
// rendering path — CounterTally + RenderCounterTable — is byte-identical
// for Workers=1,2,8, lists metric names in sorted order, and carries no
// ir_*/vm_* rows (the walker is the only engine).
func TestCounterTableDeterministic(t *testing.T) {
	// A multi-root app plus two corpus apps to exercise the batch merge.
	sources := map[string]string{}
	for _, f := range []string{"a", "b", "c"} {
		sources[f+".php"] = `<?php
move_uploaded_file($_FILES['` + f + `']['tmp_name'], "/up/" . $_FILES['` + f + `']['name']);
`
	}
	// A const-foldable run plus a function body inlined at three call
	// sites.
	sources["loop.php"] = `<?php
function banner() {
	$msg = "warn" . "ing";
	return $msg;
}
banner();
banner();
banner();
move_uploaded_file($_FILES['l']['tmp_name'], "/up/" . $_FILES['l']['name']);
`
	targets := []uchecker.Target{{Name: "counters-app", Sources: sources}}
	for _, n := range []string{"Uploadify 1.0.0", "Avatar Uploader 6.x-1.2"} {
		app, ok := corpus.ByName(n)
		if !ok {
			t.Fatalf("missing corpus app %q", n)
		}
		targets = append(targets, uchecker.Target{Name: app.Name, Sources: app.Sources})
	}

	var want string
	for _, workers := range []int{1, 2, 8} {
		reps := uchecker.NewScanner(uchecker.Options{Workers: workers}).ScanBatch(context.Background(), targets)
		out := RenderCounterTable(CounterTally(reps))
		if want == "" {
			want = out
			continue
		}
		if out != want {
			t.Errorf("Workers=%d counter table differs:\n got:\n%s\nwant:\n%s", workers, out, want)
		}
	}
	if !strings.Contains(want, "interp_paths_forked") {
		t.Errorf("counter table missing interp_paths_forked:\n%s", want)
	}
	// Rows are sorted by metric name (the header line excepted), and no
	// row belongs to the retired bytecode VM.
	lines := strings.Split(strings.TrimSpace(want), "\n")[1:]
	for i, line := range lines {
		cur := strings.Fields(line)[0]
		if strings.HasPrefix(cur, "ir_") || strings.HasPrefix(cur, "vm_") {
			t.Errorf("counter table carries VM counter %s", cur)
		}
		if i > 0 {
			if prev := strings.Fields(lines[i-1])[0]; prev >= cur {
				t.Errorf("counter table not sorted: %q before %q", prev, cur)
			}
		}
	}
}

// TestComparisonMatchesPaper reproduces Section IV-C's table:
//
//	UChecker  15/16 detected, 2/28 FP
//	RIPS      15/16 detected, 27/28 FP
//	WAP        4/16 detected, 1/28 FP
func TestComparisonMatchesPaper(t *testing.T) {
	results := Comparison(testOptions(t))
	want := map[string][2]int{
		"UChecker":  {15, 2},
		"RIPS-like": {15, 27},
		"WAP-like":  {4, 1},
	}
	for _, r := range results {
		w, ok := want[r.Tool]
		if !ok {
			t.Errorf("unexpected tool %s", r.Tool)
			continue
		}
		if r.TP != w[0] || r.FP != w[1] {
			t.Errorf("%s: %d/16 detected %d/28 FP, paper %d/16 %d/28",
				r.Tool, r.TP, r.FP, w[0], w[1])
		}
	}
}

// TestComparisonKeyDisagreements spot-checks the mechanism behind each
// tool's distinctive errors.
func TestComparisonKeyDisagreements(t *testing.T) {
	results := Comparison(testOptions(t))
	byTool := map[string]ToolResult{}
	for _, r := range results {
		byTool[r.Tool] = r
	}
	// RIPS misses the method-mediated WooCommerce CPP; UChecker finds it.
	cpp := "WooCommerce Custom Profile Picture 1.0"
	if byTool["RIPS-like"].PerApp[cpp] {
		t.Error("RIPS-like should miss WooCommerce CPP")
	}
	if !byTool["UChecker"].PerApp[cpp] {
		t.Error("UChecker should detect WooCommerce CPP")
	}
	// WAP's single FP is the helper-validated plugin.
	if !byTool["WAP-like"].PerApp["gallery-lite-pro"] {
		t.Error("WAP-like should flag gallery-lite-pro")
	}
	if byTool["UChecker"].PerApp["gallery-lite-pro"] {
		t.Error("UChecker should not flag gallery-lite-pro")
	}
	// The platform-API plugin is the one benign app even RIPS skips.
	if byTool["RIPS-like"].PerApp["secure-media-api"] {
		t.Error("RIPS-like should not flag secure-media-api")
	}
}

func TestRenderComparison(t *testing.T) {
	out := RenderComparison([]ToolResult{
		{Tool: "UChecker", TP: 15, FP: 2},
		{Tool: "RIPS-like", TP: 15, FP: 27},
	})
	if !strings.Contains(out, "15/16") || !strings.Contains(out, "27/28") {
		t.Errorf("render output:\n%s", out)
	}
}

// TestAdminGatingRemovesFPs runs the Section VI extension: with admin
// gating modeled, the two FPs disappear and nothing else changes.
func TestAdminGatingRemovesFPs(t *testing.T) {
	opts := testOptions(t)
	opts.ModelAdminGating = true
	rows := TableIII(opts)
	for _, r := range rows {
		if r.App.AdminGated {
			if r.Detected() {
				t.Errorf("%s: still flagged with admin gating on", r.App.Name)
			}
			continue
		}
		if r.App.Paper.Detected != r.Detected() {
			t.Errorf("%s: verdict changed by admin gating", r.App.Name)
		}
	}
}

// A screening sweep at small scale: every planted vulnerability is found
// and benign generated plugins stay clean.
func TestScreeningSweep(t *testing.T) {
	res := Screening(testOptions(t), 42, 60, 10)
	if res.Scanned != 60 || res.Planted != 6 {
		t.Fatalf("scanned=%d planted=%d", res.Scanned, res.Planted)
	}
	if res.Found != res.Planted {
		t.Errorf("found %d/%d planted vulnerabilities; flagged: %v",
			res.Found, res.Planted, res.Flagged)
	}
	if res.ExtraFlags != 0 {
		t.Errorf("extra flags = %d on benign generated plugins: %v", res.ExtraFlags, res.Flagged)
	}
	out := RenderScreening(res)
	if !strings.Contains(out, "plugins scanned: 60") {
		t.Errorf("render:\n%s", out)
	}
}

// Screening generation is deterministic per seed.
func TestScreeningDeterministic(t *testing.T) {
	a := Screening(testOptions(t), 7, 20, 5)
	b := Screening(testOptions(t), 7, 20, 5)
	if a.Found != b.Found || a.TotalLoC != b.TotalLoC || len(a.Flagged) != len(b.Flagged) {
		t.Errorf("non-deterministic screening: %+v vs %+v", a, b)
	}
}

// FailureTally aggregates countable failures across a sweep; the Table III
// sweep's only failure is Cimy's path-budget abort (plus its ladder).
func TestFailureTally(t *testing.T) {
	reps := []*uchecker.AppReport{
		nil,
		{Name: "clean"},
		{Name: "a", FailureCounts: map[uchecker.FailureClass]int{uchecker.FailPathBudget: 2}},
		{Name: "b", FailureCounts: map[uchecker.FailureClass]int{
			uchecker.FailPathBudget: 1,
			uchecker.FailPanic:      1,
		}},
	}
	tally := FailureTally(reps)
	if tally[uchecker.FailPathBudget] != 3 || tally[uchecker.FailPanic] != 1 || len(tally) != 2 {
		t.Errorf("tally = %v", tally)
	}
	out := RenderFailureTally(tally)
	for _, want := range []string{"path-budget     3", "panic           1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if FailureTally(nil) != nil {
		t.Error("empty sweep should tally nil")
	}
	if !strings.Contains(RenderFailureTally(nil), "no failures") {
		t.Errorf("empty render:\n%s", RenderFailureTally(nil))
	}
}

// TestTableIIIFailureTally asserts the real sweep surfaces Cimy's
// path-budget failure through the tally.
func TestTableIIIFailureTally(t *testing.T) {
	rows := cachedTableIII(t)
	reps := make([]*uchecker.AppReport, len(rows))
	for i, r := range rows {
		reps[i] = r.Report
	}
	tally := FailureTally(reps)
	if tally[uchecker.FailPathBudget] == 0 {
		t.Errorf("tally = %v, want a path-budget entry (Cimy abort)", tally)
	}
}

// TestTableIIIApps pins the sweep's row order: 13 known-vulnerable apps,
// the 2 admin-gated false positives, then the 3 newly found ones — the
// order TableIII scans and renders.
func TestTableIIIApps(t *testing.T) {
	apps := TableIIIApps()
	if len(apps) != 18 {
		t.Fatalf("apps = %d, want 18", len(apps))
	}
	seen := map[string]bool{}
	for _, app := range apps {
		if seen[app.Name] {
			t.Errorf("duplicate app %q", app.Name)
		}
		seen[app.Name] = true
	}
	if !apps[13].AdminGated || !apps[14].AdminGated {
		t.Errorf("rows 14-15 must be the admin-gated false positives: %q, %q",
			apps[13].Name, apps[14].Name)
	}
	// TableIII rows align 1:1 with the app list.
	rows := cachedTableIII(t)
	if len(rows) != len(apps) {
		t.Fatalf("TableIII rows = %d, apps = %d", len(rows), len(apps))
	}
	for i, r := range rows {
		if r.App.Name != apps[i].Name {
			t.Errorf("row %d = %q, want %q", i, r.App.Name, apps[i].Name)
		}
		if r.Report.Name != apps[i].Name {
			t.Errorf("report %d = %q, want %q", i, r.Report.Name, apps[i].Name)
		}
	}
}
