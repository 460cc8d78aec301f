package uchecker

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
)

// summaryComparableFingerprint is the cross-strategy projection of a
// report: findings, verdicts, roots, locality measurements, parse
// errors and failure taxonomy — everything Table III reports except the
// exploration-size columns (paths, objects, objects/path, sink
// candidates), which the summary strategy legitimately shrinks, and the
// metrics map, which carries strategy-specific counters.
func summaryComparableFingerprint(t *testing.T, rep *AppReport) string {
	t.Helper()
	clone := *rep
	clone.Paths = 0
	clone.Objects = 0
	clone.ObjectsPerPath = 0
	clone.SinkCount = 0
	clone.Metrics = nil
	return reportFingerprint(t, &clone)
}

// TestSummaryDifferentialCorpus is the interproc-strategy acceptance
// suite: every corpus application is scanned under inline and summary
// strategies at Workers=1 and Workers=4, and
//
//   - within each strategy, the two worker counts must agree
//     byte-for-byte, summary-only work counters included;
//   - across strategies, findings and every Table III verdict must be
//     byte-identical — except where the inline strategy aborted on a
//     path budget, which is precisely the failure mode summaries exist
//     to remove. There the summary report must show a clean completion
//     (no abort, no retries, no degraded findings) and, for known
//     vulnerable apps, the vulnerable verdict the inline run missed.
//
// The Workers=1 report of each strategy must also hash to the value
// frozen in testdata/corpus_reports.golden: the other checks compare
// this code against itself, the golden file compares it against the
// reports the scanner produced when the file was recorded.
//
// The 20000-path budget keeps the inline Cimy abort affordable while
// still reproducing it (it needs 248832 paths).
func TestSummaryDifferentialCorpus(t *testing.T) {
	budgets := Budgets{MaxPaths: 20000}
	golden := readCorpusGolden(t)
	if want := 2 * len(corpus.All()); len(golden) != want {
		t.Fatalf("%s has %d entries, want %d", corpusGoldenPath, len(golden), want)
	}
	for _, app := range corpus.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			target := Target{Name: app.Name, Sources: app.Sources}
			scanOne := func(mode interp.InterprocKind, workers int) *AppReport {
				rep, err := NewScanner(Options{
					Budgets:   budgets,
					Interproc: mode,
					Workers:   workers,
				}).Scan(context.Background(), target)
				if err != nil {
					t.Fatalf("interproc=%s workers=%d: %v", mode, workers, err)
				}
				return rep
			}

			inline1 := scanOne(interp.InterprocInline, 1)
			inline4 := scanOne(interp.InterprocInline, 4)
			sum1 := scanOne(interp.InterprocSummary, 1)
			sum4 := scanOne(interp.InterprocSummary, 4)

			for _, r := range []struct {
				mode interp.InterprocKind
				rep  *AppReport
			}{{interp.InterprocInline, inline1}, {interp.InterprocSummary, sum1}} {
				key := corpusGoldenKey(r.mode, app.Name)
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(reportFingerprint(t, r.rep)))); got != golden[key] {
					t.Errorf("%s report drifted from %s:\n got: %s %s\nwant: %s %s",
						r.mode, corpusGoldenPath, got, key, golden[key], key)
				}
			}

			if a, b := reportFingerprint(t, inline1), reportFingerprint(t, inline4); a != b {
				t.Errorf("inline workers=1 vs 4 differ:\n got: %s\nwant: %s", b, a)
			}
			if a, b := reportFingerprint(t, sum1), reportFingerprint(t, sum4); a != b {
				t.Errorf("summary workers=1 vs 4 differ:\n got: %s\nwant: %s", b, a)
			}

			if inline1.BudgetExceeded && !sum1.BudgetExceeded {
				// The summary strategy completed an exploration the
				// inline one could not — the Cimy case. The completion
				// must be clean and first-attempt.
				if sum1.Retries != 0 {
					t.Errorf("summary completion used %d retries, want 0", sum1.Retries)
				}
				if sum1.Degraded {
					t.Error("summary completion produced degraded findings")
				}
				if app.Vulnerable && !sum1.Vulnerable {
					t.Error("summary completed but missed the known-vulnerable verdict")
				}
				return
			}
			if a, b := summaryComparableFingerprint(t, inline1), summaryComparableFingerprint(t, sum1); a != b {
				t.Errorf("summary report differs from inline:\n got: %s\nwant: %s", b, a)
			}
		})
	}
}

// corpusGoldenPath holds one line per corpus app and interprocedural
// strategy, "<sha256> <mode> <app name>": the SHA-256 of the
// reportFingerprint JSON of the app's Workers=1 report under
// TestSummaryDifferentialCorpus's budgets. A deliberate report change
// updates the lines the test prints.
const corpusGoldenPath = "testdata/corpus_reports.golden"

func corpusGoldenKey(mode interp.InterprocKind, app string) string {
	return string(mode) + " " + app
}

// readCorpusGolden maps corpusGoldenKey to the recorded hash.
func readCorpusGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(corpusGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, key, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", corpusGoldenPath, line)
		}
		golden[key] = sum
	}
	return golden
}

// TestCimySummaryCompletes asserts the headline win at the paper's
// default budgets: the Cimy User Extra Fields root — the paper's (and
// the inline strategy's) 248832-path budget-exhaustion false negative —
// completes under -interproc summary on its first attempt, with no
// degradation and the vulnerable verdict.
func TestCimySummaryCompletes(t *testing.T) {
	app, ok := corpus.ByName("Cimy User Extra Fields 2.3.8")
	if !ok {
		t.Fatal("corpus app missing")
	}
	target := Target{Name: app.Name, Sources: app.Sources}

	inline, err := NewScanner(Options{}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !inline.BudgetExceeded || inline.Vulnerable {
		t.Fatalf("inline mode should reproduce the paper's miss: budget=%v vulnerable=%v",
			inline.BudgetExceeded, inline.Vulnerable)
	}

	sum, err := NewScanner(Options{Interproc: interp.InterprocSummary}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BudgetExceeded {
		t.Error("summary mode exceeded budgets")
	}
	if !sum.Vulnerable {
		t.Error("summary mode missed the vulnerability")
	}
	if sum.Retries != 0 {
		t.Errorf("summary mode used %d retries, want 0", sum.Retries)
	}
	if sum.Degraded {
		t.Error("summary mode produced degraded findings")
	}
	for _, f := range sum.Findings {
		if f.Degraded {
			t.Errorf("finding %s:%d is degraded", f.File, f.Line)
		}
	}
	if got := sum.Metrics["interp_paths_avoided"]; got == 0 {
		t.Error("interp_paths_avoided = 0, want > 0 (merging did nothing)")
	}
	if got := sum.Metrics["summary_computed"]; got == 0 {
		t.Error("summary_computed = 0, want > 0")
	}
}

// TestInterprocFingerprintToken pins the appended-token discipline: the
// default (inline) mode leaves the fingerprint byte-identical to the
// pre-summary format, so existing journals and cache entries stay
// replayable, while summary mode cannot share cache entries with it.
func TestInterprocFingerprintToken(t *testing.T) {
	base := NewScanner(Options{}).OptionsFingerprint()
	inline := NewScanner(Options{Interproc: interp.InterprocInline}).OptionsFingerprint()
	sum := NewScanner(Options{Interproc: interp.InterprocSummary}).OptionsFingerprint()
	if base != inline {
		t.Errorf("explicit inline changed the fingerprint:\n got: %s\nwant: %s", inline, base)
	}
	if strings.Contains(base, "interproc=") {
		t.Errorf("default fingerprint mentions interproc: %s", base)
	}
	if !strings.Contains(sum, " interproc=summary") {
		t.Errorf("summary fingerprint missing token: %s", sum)
	}
}

// TestInlineReportHasNoSummaryCounters pins the metric-absence
// contract: inline-mode reports must not grow summary_* /
// interp_paths_avoided keys, keeping them byte-identical to pre-summary
// reports.
func TestInlineReportHasNoSummaryCounters(t *testing.T) {
	app, _ := corpus.ByName("Foxypress 0.4.1.1-0.4.2.1")
	rep, err := NewScanner(Options{}).Scan(context.Background(), Target{Name: app.Name, Sources: app.Sources})
	if err != nil {
		t.Fatal(err)
	}
	for k := range rep.Metrics {
		if strings.HasPrefix(k, "summary_") || k == "interp_paths_avoided" {
			t.Errorf("inline report carries summary counter %s", k)
		}
	}
}

// TestSummaryReportIgnoresScanHistory pins that a summary-mode report
// depends only on its target and options: scanning target B after a
// target A that shares helper.php, through one scanner and one
// CacheDir, must report exactly what a fresh scan of B reports, its
// summary_computed included.
func TestSummaryReportIgnoresScanHistory(t *testing.T) {
	helper := `<?php
function ext_label($n) { return "." . $n; }
function up_prefix() { return "uploads/"; }
`
	plugin := func(dest string) string {
		return `<?php
function grab(&$n) { $n = $_FILES['doc']['name']; }
$name = "";
grab($name);
move_uploaded_file($_FILES['doc']['tmp_name'], up_prefix() . "` + dest + `" . $name);
`
	}
	a := Target{Name: "app", Sources: map[string]string{"helper.php": helper, "plugin.php": plugin("a/")}}
	b := Target{Name: "app", Sources: map[string]string{"helper.php": helper, "plugin.php": plugin("b/")}}
	scan := func(s *Scanner, target Target) *AppReport {
		rep, err := s.Scan(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	shared := NewScanner(Options{Interproc: interp.InterprocSummary, CacheDir: t.TempDir()})
	scan(shared, a)
	afterA := scan(shared, b)
	fresh := scan(NewScanner(Options{Interproc: interp.InterprocSummary, CacheDir: t.TempDir()}), b)
	if got, want := reportFingerprint(t, afterA), reportFingerprint(t, fresh); got != want {
		t.Errorf("B scanned after A differs from a fresh scan of B:\n got: %s\nwant: %s", got, want)
	}
	// grab (by-ref, so escaped) and up_prefix are looked up; ext_label
	// is never called.
	if got := fresh.Metrics["summary_computed"]; got != 2 {
		t.Errorf("summary_computed = %d, want 2 (the functions the scan looked up)", got)
	}
}
