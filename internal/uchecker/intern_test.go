package uchecker

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
)

// findingsFingerprint serializes the verdict-bearing portion of a report:
// the findings, the verdict, and the failure set. Metrics are excluded on
// purpose — the interning counters legitimately differ between the
// interned and ablated pipelines; the detector's OUTPUT must not.
func findingsFingerprint(t *testing.T, rep *AppReport) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Vulnerable bool
		Findings   []Finding
		Failures   []Failure
		Paths      int
		SinkCount  int
	}{rep.Vulnerable, rep.Findings, rep.Failures, rep.Paths, rep.SinkCount})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestInternAblationByteIdentical is the ablation guarantee behind
// Options.DisableIntern: with and without the hash-consing factory,
// across worker counts, the scanner's findings are byte-identical on
// corpus apps (including the true-negative Cimy miss) and synthetic
// multi-root apps.
func TestInternAblationByteIdentical(t *testing.T) {
	var targets []Target
	for _, name := range []string{
		"Foxypress 0.4.1.1-0.4.2.1",    // vulnerable, Table III
		"Cimy User Extra Fields 2.3.8", // the paper's known miss — must stay a miss
		"Avatar Uploader 6.x-1.2",
	} {
		app, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("missing corpus app %s", name)
		}
		targets = append(targets, Target{Name: app.Name, Sources: app.Sources})
	}
	targets = append(targets, multiRootTarget("ablate-multi", 7))

	for _, target := range targets {
		var want string
		for _, disable := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				rep, err := NewScanner(Options{Workers: workers, DisableIntern: disable}).
					Scan(context.Background(), target)
				if err != nil {
					t.Fatalf("%s (intern=%t w=%d): %v", target.Name, !disable, workers, err)
				}
				got := findingsFingerprint(t, rep)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s: findings diverge at intern=%t workers=%d:\n got: %s\nwant: %s",
						target.Name, !disable, workers, got, want)
				}
			}
		}
	}
}

// reuseTarget returns an app built to light up every sharing counter:
//
//   - reuse.php forks the path condition on an unrelated symbolic branch
//     (COW fork → interp_pathcond_shared_nodes), then guards its sink with
//     a condition that contradicts the executable-extension constraint on
//     every path. The first path's check is Unsat, so the second path
//     re-asserts the structurally identical extension term — a fixpoint
//     memo hit, counted as smt_incremental_reuse. The two paths' dst
//     concat objects are distinct heap labels, so the reuse exists only
//     because interning collapses their translations to one pointer.
//   - vuln.php keeps the app's verdict vulnerable.
func reuseTarget(name string) Target {
	return Target{Name: name, Sources: map[string]string{
		"reuse.php": `<?php
$name = $_FILES['f']['name'];
if ($_POST['m'] == "x") {
	$tag = "a";
} else {
	$tag = "b";
}
if ($name == "safe.gif") {
	move_uploaded_file($_FILES['f']['tmp_name'], "/up/" . $name);
}
`,
		"vuln.php": `<?php
$n = $_FILES['g']['name'];
if (strlen($n) > 3) {
	move_uploaded_file($_FILES['g']['tmp_name'], "/uploads/" . $n);
}
`,
	}}
}

// TestInternCountersExported asserts the new sharing counters appear in
// AppReport.Metrics and in the rendered Prometheus exposition, and that
// the ablated pipeline reports none of the factory counters (nil factory
// = no interning work to count).
func TestInternCountersExported(t *testing.T) {
	target := reuseTarget("intern-counters")
	rep, err := NewScanner(Options{Workers: 2}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable {
		t.Fatal("expected vulnerable verdict (vuln.php)")
	}
	m := rep.Metrics
	// Every sharing counter must be live on this workload: misses count
	// distinct nodes, hits need structural sharing, incremental reuse needs
	// a re-asserted extension constraint, and the COW counter needs a
	// symbolic fork. Zero-valued counters are not exported (repo-wide
	// convention), so > 0 doubles as a presence check.
	for _, key := range []string{
		"smt_intern_misses", "smt_intern_hits", "smt_simplify_memo_hits",
		"smt_incremental_reuse", "interp_pathcond_shared_nodes",
	} {
		if m[key] <= 0 {
			t.Errorf("%s = %d, want > 0 (metrics: %v)", key, m[key], m)
		}
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, "uchecker", []obs.LabeledMetrics{
		{Labels: map[string]string{"app": rep.Name}, Metrics: m},
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, metric := range []string{
		"uchecker_smt_intern_hits",
		"uchecker_smt_intern_misses",
		"uchecker_smt_simplify_memo_hits",
		"uchecker_smt_incremental_reuse",
		"uchecker_interp_pathcond_shared_nodes",
	} {
		if !strings.Contains(out, "# TYPE "+metric+" counter") || !strings.Contains(out, metric+"{") {
			t.Errorf("Prometheus exposition missing %s:\n%s", metric, out)
		}
	}

	// Ablated scan: factory counters are absent, not zero-but-misleading.
	ablated, err := NewScanner(Options{Workers: 2, DisableIntern: true}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"smt_intern_hits", "smt_intern_misses", "smt_simplify_memo_hits", "smt_incremental_reuse"} {
		if _, ok := ablated.Metrics[key]; ok {
			t.Errorf("ablated scan exports factory counter %s", key)
		}
	}
	// The COW fork counter is independent of the factory and stays.
	if _, ok := ablated.Metrics["interp_pathcond_shared_nodes"]; !ok {
		t.Error("ablated scan lost interp_pathcond_shared_nodes")
	}
}

// TestInternCountersDeterministicAcrossWorkers pins the determinism
// contract for the new counters specifically: one factory per root,
// single-goroutine construction, canonical-order merge — so Workers must
// not leak into any sharing counter.
func TestInternCountersDeterministicAcrossWorkers(t *testing.T) {
	target := reuseTarget("intern-det")
	for k, v := range multiRootTarget("", 9).Sources {
		target.Sources[k] = v
	}
	counters := []string{
		"smt_intern_hits", "smt_intern_misses",
		"smt_simplify_memo_hits", "smt_incremental_reuse",
		"interp_pathcond_shared_nodes",
	}
	want := map[string]int64{}
	for i, workers := range []int{1, 2, 8} {
		rep, err := NewScanner(Options{Workers: workers}).Scan(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range counters {
			got, ok := rep.Metrics[key]
			if !ok {
				t.Fatalf("Workers=%d: metric %s missing", workers, key)
			}
			if i == 0 {
				want[key] = got
				continue
			}
			if got != want[key] {
				t.Errorf("Workers=%d: %s = %d, want %d", workers, key, got, want[key])
			}
		}
	}
}

// TestInternFullReportParityAcrossWorkersWithAblation is the stronger
// cross-product: the full deterministic report fingerprint (everything
// but wall-clock and memory) matches across Workers=1,2,8 within each
// intern mode.
func TestInternFullReportParityAcrossWorkersWithAblation(t *testing.T) {
	target := multiRootTarget("intern-parity", 6)
	for _, disable := range []bool{false, true} {
		var want string
		for _, workers := range []int{1, 2, 8} {
			rep, err := NewScanner(Options{Workers: workers, DisableIntern: disable}).
				Scan(context.Background(), target)
			if err != nil {
				t.Fatal(err)
			}
			got := reportFingerprint(t, rep)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("intern=%t Workers=%d: report fingerprint differs", !disable, workers)
			}
		}
	}
}
