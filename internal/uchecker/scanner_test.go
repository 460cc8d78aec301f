package uchecker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
)

// multiRootTarget builds a synthetic app with n independent upload
// handlers in separate files, so the locality analysis selects n roots —
// the workload the per-root worker pool fans out.
func multiRootTarget(name string, n int) Target {
	sources := map[string]string{}
	for i := 0; i < n; i++ {
		f := fmt.Sprintf("handler%02d.php", i)
		sources[f] = fmt.Sprintf(`<?php
$dir = "/uploads/%02d";
$name = $_FILES['f%d']['name'];
if (strlen($name) > 3) {
	move_uploaded_file($_FILES['f%d']['tmp_name'], $dir . "/" . $name);
}
`, i, i, i)
	}
	return Target{Name: name, Sources: sources}
}

// reportFingerprint serializes the deterministic portion of a report —
// everything except the wall-clock and memory measurements.
func reportFingerprint(t *testing.T, rep *AppReport) string {
	t.Helper()
	clone := *rep
	clone.Seconds = 0
	clone.MemoryMB = 0
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sharedHelperTarget is a multi-root app whose n handler files all call
// the same two helpers: under -interproc summary every root looks both
// up, so roots on different workers race to compute the same summary.
func sharedHelperTarget(n int) Target {
	sources := map[string]string{"helper.php": `<?php
function keep($x) { return $x; }
function dest_dir($d) { if ($alt) { $tmp = 1; } return "/uploads/" . $d; }
function unused($y) { return $y . $y; }
`}
	for i := 0; i < n; i++ {
		sources[fmt.Sprintf("handler%02d.php", i)] = fmt.Sprintf(`<?php
$name = keep($_FILES['f%d']['name']);
move_uploaded_file($_FILES['f%d']['tmp_name'], dest_dir("%02d") . "/" . $name);
`, i, i, i)
	}
	return Target{Name: "shared-helper", Sources: sources}
}

// TestScanDeterministicAcrossWorkers asserts byte-identical reports for
// Workers=1,2,8 under both interprocedural strategies on corpus apps
// (single-root), synthetic multi-root apps, and a whole-program
// (DisableLocality) multi-root configuration. Under summary mode that
// includes summary_computed, which counts the distinct functions the
// scan looked up however the roots were scheduled.
func TestScanDeterministicAcrossWorkers(t *testing.T) {
	corpusApps := []string{
		"Foxypress 0.4.1.1-0.4.2.1",
		"Avatar Uploader 6.x-1.2",
		"Simple Ad Manager 2.5.94",
		"WooCommerce Catalog Enquiry 3.0.1",
	}
	type tc struct {
		name    string
		target  Target
		opts    Options
		minRoot int
		// computed is the summary_computed a summary-mode scan must
		// report; checked when non-zero.
		computed int64
	}
	var cases []tc
	for _, name := range corpusApps {
		app, ok := corpus.ByName(name)
		if !ok {
			t.Fatalf("missing corpus app %q", name)
		}
		cases = append(cases, tc{
			name:   name,
			target: Target{Name: app.Name, Sources: app.Sources},
			opts:   Options{Budgets: Budgets{MaxPaths: 20000}},
		})
	}
	cases = append(cases, tc{
		name:    "synthetic-multi-root",
		target:  multiRootTarget("multi-root", 9),
		opts:    Options{},
		minRoot: 9,
	})
	cases = append(cases, tc{
		name:     "shared-helper-multi-root",
		target:   sharedHelperTarget(9),
		opts:     Options{},
		minRoot:  9,
		computed: 2,
	})
	foxy, _ := corpus.ByName("Foxypress 0.4.1.1-0.4.2.1")
	cases = append(cases, tc{
		name:    "whole-program-multi-root",
		target:  Target{Name: foxy.Name, Sources: foxy.Sources},
		opts:    Options{DisableLocality: true, Budgets: Budgets{MaxPaths: 20000}},
		minRoot: 2,
	})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []interp.InterprocKind{interp.InterprocInline, interp.InterprocSummary} {
				t.Run(string(mode), func(t *testing.T) {
					var want string
					var wantRep *AppReport
					for _, workers := range []int{1, 2, 8} {
						opts := c.opts
						opts.Interproc = mode
						opts.Workers = workers
						rep, err := NewScanner(opts).Scan(context.Background(), c.target)
						if err != nil {
							t.Fatalf("Workers=%d: %v", workers, err)
						}
						got := reportFingerprint(t, rep)
						if want == "" {
							want, wantRep = got, rep
							if len(rep.Roots) < c.minRoot {
								t.Fatalf("roots = %d, want >= %d (not a multi-root workload)", len(rep.Roots), c.minRoot)
							}
							if mode == interp.InterprocSummary && c.computed != 0 && rep.Metrics["summary_computed"] != c.computed {
								t.Errorf("summary_computed = %d, want %d", rep.Metrics["summary_computed"], c.computed)
							}
							continue
						}
						if got != want {
							t.Errorf("Workers=%d: report differs from Workers=1\n got: %s\nwant: %s", workers, got, want)
						}
						if rep.Vulnerable != wantRep.Vulnerable || rep.Paths != wantRep.Paths || len(rep.Findings) != len(wantRep.Findings) {
							t.Errorf("Workers=%d: verdict/paths/findings drift", workers)
						}
					}
				})
			}
		})
	}
}

// TestScanMultiRootFindings asserts the synthetic multi-root app yields
// one finding per handler, sorted by file:line, under a parallel scan.
func TestScanMultiRootFindings(t *testing.T) {
	target := multiRootTarget("multi-root", 6)
	rep, err := NewScanner(Options{Workers: 4}).Scan(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Vulnerable {
		t.Fatal("multi-root app not flagged")
	}
	if len(rep.Findings) != 6 {
		t.Fatalf("findings = %d, want 6", len(rep.Findings))
	}
	for i, f := range rep.Findings {
		wantFile := fmt.Sprintf("handler%02d.php", i)
		if f.File != wantFile {
			t.Errorf("finding %d in %s, want %s (sorted by file)", i, f.File, wantFile)
		}
	}
}

// TestScanBatch asserts batch reports are aligned with their targets and
// identical to individual Scan calls.
func TestScanBatch(t *testing.T) {
	names := []string{
		"Uploadify 1.0.0",
		"Adblock Blocker 0.0.1",
		"MailCWP 1.100",
	}
	var targets []Target
	for _, n := range names {
		app, ok := corpus.ByName(n)
		if !ok {
			t.Fatalf("missing corpus app %q", n)
		}
		targets = append(targets, Target{Name: app.Name, Sources: app.Sources})
	}
	scanner := NewScanner(Options{Workers: 3})
	reports := scanner.ScanBatch(context.Background(), targets)
	if len(reports) != len(targets) {
		t.Fatalf("reports = %d, want %d", len(reports), len(targets))
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("report %d is nil", i)
		}
		if rep.Name != targets[i].Name {
			t.Errorf("report %d = %q, want %q (alignment)", i, rep.Name, targets[i].Name)
		}
		solo, err := scanner.Scan(context.Background(), targets[i])
		if err != nil {
			t.Fatal(err)
		}
		if reportFingerprint(t, rep) != reportFingerprint(t, solo) {
			t.Errorf("%s: batch report differs from solo scan", rep.Name)
		}
	}
	if got := scanner.ScanBatch(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch = %d reports", len(got))
	}
}

// TestScanCancellation asserts Scan returns promptly with ctx.Err() on an
// app whose path exploration would otherwise exceed the budget — the Cimy
// blow-up with the budget lifted far beyond its 248832 paths.
func TestScanCancellation(t *testing.T) {
	app, ok := corpus.ByName("Cimy User Extra Fields 2.3.8")
	if !ok {
		t.Fatal("missing Cimy corpus app")
	}
	target := Target{Name: app.Name, Sources: app.Sources}
	opts := Options{Budgets: Budgets{MaxPaths: 100000000, MaxObjects: 1 << 30}}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := NewScanner(opts).Scan(ctx, target)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Scan took %v after cancellation, want prompt return", elapsed)
	}
	if rep == nil {
		t.Fatal("nil report on cancellation; want partial results")
	}
	// Cancellation is classified, not stringly recorded: it must appear
	// as FailCancelled in Failures, and must NOT pollute the per-class
	// failure counts — a timed-out batch does not report every pending
	// root as errored.
	found := false
	for _, fl := range rep.Failures {
		if fl.Class == FailCancelled {
			found = true
		} else if fl.Countable() {
			t.Errorf("unexpected countable failure on cancellation: %+v", fl)
		}
	}
	if !found {
		t.Errorf("Failures = %v, want a %s entry", rep.Failures, FailCancelled)
	}
	if n := rep.FailureCounts[FailCancelled]; n != 0 {
		t.Errorf("FailureCounts[%s] = %d, want 0 (excluded)", FailCancelled, n)
	}

	// A context canceled before the call returns immediately.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := NewScanner(opts).Scan(done, target); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v", err)
	}
}

// TestScanDeadline asserts deadline expiry behaves like cancellation.
func TestScanDeadline(t *testing.T) {
	app, _ := corpus.ByName("Cimy User Extra Fields 2.3.8")
	opts := Options{Budgets: Budgets{MaxPaths: 100000000, MaxObjects: 1 << 30}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := NewScanner(opts).Scan(ctx, Target{Name: app.Name, Sources: app.Sources})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSpanAppAttribution asserts every span delivered to Trace.OnEnd
// carries the scanned app's name as the "app" attribute — including
// per-root and per-attempt spans, which is what lets span consumers
// attribute work in a concurrent batch without reconstructing the parent
// chain.
func TestSpanAppAttribution(t *testing.T) {
	seen := map[string]int{}
	rec := obs.NewRecorder()
	rec.OnEnd = func(sp obs.Span) {
		if sp.Attr("app") != "phased" {
			t.Errorf("span %q app attr = %q, want %q", sp.Name, sp.Attr("app"), "phased")
		}
		seen[sp.Name]++
	}
	opts := Options{Workers: 2, Trace: rec}
	target := multiRootTarget("phased", 4)
	if _, err := NewScanner(opts).Scan(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parse", "locality", "root", "attempt", "interp", "scan"} {
		if seen[name] == 0 {
			t.Errorf("no %q span delivered; got %v", name, seen)
		}
	}
}

// TestScanMemoryRepeats: three solo scans of one app in one process
// each report as MemoryMB the bytes the process allocated around the
// scan, as an exact outside count reads them. MemoryMB may read low by
// the spans the processors still cache when the scan ends: up to 2% of
// this app's scan with 2 to 8 processors and under the race detector,
// so the bound allows 10%. The scans are not compared with each other:
// the scan's own allocation varies by up to about 5% from run to run,
// because a large map's table layout follows its per-map random hash
// seed.
func TestScanMemoryRepeats(t *testing.T) {
	app, ok := corpus.ByName("Avatar Uploader 6.x-1.2")
	if !ok {
		t.Fatal("corpus: no Avatar Uploader")
	}
	s := NewScanner(Options{Workers: 1})
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := s.Scan(context.Background(), Target{Name: app.Name, Sources: app.Sources})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		outside := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if rep.MemoryMB < 0.9*outside || rep.MemoryMB > outside {
			t.Errorf("scan %d: MemoryMB %.3f, want within 10%% below the %.3f MB allocated around the scan", i, rep.MemoryMB, outside)
		}
	}
}
