package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/uchecker"
)

func TestSplitExts(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{".php,.php5", []string{".php", ".php5"}},
		{"php, phtml", []string{".php", ".phtml"}},
		{"", nil},
		{" .asa ,, swf ", []string{".asa", ".swf"}},
	}
	for _, tt := range tests {
		if got := splitExts(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("splitExts(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestLoadTarget(t *testing.T) {
	exts := []string{".php", ".php5"}
	dir := t.TempDir()
	sub := filepath.Join(dir, "inc")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "main.php"):   "<?php echo 1;",
		filepath.Join(sub, "lib.php"):    "<?php echo 2;",
		filepath.Join(dir, "old.php5"):   "<?php echo 3;", // configured extension, not just .php
		filepath.Join(dir, "common.inc"): "<?php echo 4;", // .inc always accepted
		filepath.Join(dir, "README.md"):  "not php",
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tgt, err := loadTarget(dir, exts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.Sources) != 4 {
		t.Errorf("sources = %d files, want 4 (.php, .php5, .inc; README excluded): %v", len(tgt.Sources), tgt.Sources)
	}
	if tgt.Name != filepath.Base(dir) {
		t.Errorf("name = %q, want %q", tgt.Name, filepath.Base(dir))
	}

	// Narrower -ext still excludes unconfigured extensions.
	narrow, err := loadTarget(dir, []string{".php"})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Sources) != 3 {
		t.Errorf("narrow sources = %d files, want 3 (.php5 excluded)", len(narrow.Sources))
	}

	// Single file.
	one, err := loadTarget(filepath.Join(dir, "main.php"), exts)
	if err != nil || len(one.Sources) != 1 {
		t.Errorf("single file: %v, %d", err, len(one.Sources))
	}
	if one.Name != "main" {
		t.Errorf("single-file name = %q, want \"main\"", one.Name)
	}

	// Missing path.
	if _, err := loadTarget(filepath.Join(dir, "nope"), exts); err == nil {
		t.Error("missing path should error")
	}

	// Directory without PHP.
	empty := t.TempDir()
	if _, err := loadTarget(empty, exts); err == nil {
		t.Error("no-php dir should error")
	}
}

// TestLoadTargetCaseInsensitiveExtensions is the regression test for
// extension matching on case-preserving filesystems: real plugin zips
// ship UPLOAD.PHP and Common.Inc, and both the on-disk extension and the
// -ext flag values must match case-insensitively.
func TestLoadTargetCaseInsensitiveExtensions(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		filepath.Join(dir, "UPLOAD.PHP"): "<?php echo 1;",
		filepath.Join(dir, "Admin.PhP"):  "<?php echo 2;",
		filepath.Join(dir, "Common.Inc"): "<?php echo 3;", // .inc is always accepted
		filepath.Join(dir, "old.PHP5"):   "<?php echo 4;",
		filepath.Join(dir, "notes.TXT"):  "not php",
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tgt, err := loadTarget(dir, []string{".php", ".php5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.Sources) != 4 {
		t.Errorf("sources = %d files, want 4 (UPLOAD.PHP, Admin.PhP, Common.Inc, old.PHP5): %v",
			len(tgt.Sources), tgt.Sources)
	}

	// Configured extensions are themselves case-normalized: -ext .PHP
	// must accept upload.php and UPLOAD.PHP alike.
	upper, err := loadTarget(dir, []string{".PHP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(upper.Sources) != 3 {
		t.Errorf("upper-ext sources = %d files, want 3 (.PHP5 excluded): %v",
			len(upper.Sources), upper.Sources)
	}

	// Single file with uppercase extension: name trimming still applies.
	one, err := loadTarget(filepath.Join(dir, "UPLOAD.PHP"), []string{".php"})
	if err != nil || len(one.Sources) != 1 {
		t.Fatalf("single file: %v, %d", err, len(one.Sources))
	}
	if one.Name != "UPLOAD" {
		t.Errorf("single-file name = %q, want \"UPLOAD\"", one.Name)
	}
}

// TestTraceAndMetricsExport covers the -trace/-metrics plumbing end to
// end: a traced scan must export parseable Chrome trace-event JSON and
// well-formed Prometheus text with the expected metric lines.
func TestTraceAndMetricsExport(t *testing.T) {
	rec := obs.NewRecorder()
	rep, err := uchecker.NewScanner(uchecker.Options{Trace: rec}).Scan(
		context.Background(), uchecker.Target{
			Name: "export-demo",
			Sources: map[string]string{
				"demo.php": `<?php
move_uploaded_file($_FILES['f']['tmp_name'], "/up/" . $_FILES['f']['name']);
`,
			},
		})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeTo(tracePath, func(w io.Writer) error {
		return obs.WriteChromeTrace(w, rec.Snapshot())
	}); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceData, &events); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("malformed trace event: %v", ev)
		}
	}

	metricsPath := filepath.Join(dir, "metrics.txt")
	if err := writeTo(metricsPath, func(w io.Writer) error {
		return obs.WritePrometheus(w, "uchecker", []obs.LabeledMetrics{
			{Labels: map[string]string{"app": rep.Name}, Metrics: rep.Metrics},
		})
	}); err != nil {
		t.Fatal(err)
	}
	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(metricsData)
	for _, want := range []string{
		"# TYPE uchecker_scan_findings counter",
		`uchecker_scan_findings{app="export-demo"} 1`,
		"# TYPE uchecker_interp_live_envs_peak gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestPrintReport(t *testing.T) {
	rep, err := uchecker.NewScanner(uchecker.Options{KeepSMT: true}).Scan(context.Background(), uchecker.Target{
		Name: "demo",
		Sources: map[string]string{
			"demo.php": `<?php
move_uploaded_file($_FILES['f']['tmp_name'], "/up/" . $_FILES['f']['name']);
`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printReport(&sb, rep, true, true)
	out := sb.String()
	for _, want := range []string{
		"VULNERABLE",
		"move_uploaded_file at demo.php:2",
		"exploit lands at",
		"se_dst",
		"witness:",
		"SMT-LIB2:",
		"str.suffixof",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPrintReportBenign(t *testing.T) {
	rep, err := uchecker.NewScanner(uchecker.Options{}).Scan(context.Background(), uchecker.Target{
		Name:    "safe",
		Sources: map[string]string{"safe.php": `<?php echo "hello";`},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printReport(&sb, rep, false, false)
	if !strings.Contains(sb.String(), "NOT VULNERABLE") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestIndentLines(t *testing.T) {
	if got := indentLines("a\nb\n", "  "); got != "  a\n  b" {
		t.Errorf("indentLines = %q", got)
	}
}

func TestExitCode(t *testing.T) {
	clean := &uchecker.AppReport{Name: "clean"}
	vuln := &uchecker.AppReport{Name: "vuln", Vulnerable: true}
	failed := &uchecker.AppReport{
		Name:          "failed",
		FailureCounts: map[uchecker.FailureClass]int{uchecker.FailPanic: 1},
	}
	aborted := &uchecker.AppReport{Name: "aborted", Aborted: true}

	tests := []struct {
		name   string
		ctxErr error
		reps   []*uchecker.AppReport
		want   int
	}{
		{"clean", nil, []*uchecker.AppReport{clean}, 0},
		{"vulnerable", nil, []*uchecker.AppReport{clean, vuln}, 1},
		{"failures beat findings", nil, []*uchecker.AppReport{vuln, failed}, 2},
		{"aborted", nil, []*uchecker.AppReport{aborted}, 2},
		{"ctx error", context.DeadlineExceeded, []*uchecker.AppReport{clean}, 2},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		if got := exitCode(tt.ctxErr, tt.reps); got != tt.want {
			t.Errorf("%s: exitCode = %d, want %d", tt.name, got, tt.want)
		}
	}
}

// TestLoadTargetUnreadable is the loader-robustness regression: an
// unreadable file (permission denied) and a self-referential symlink
// (ELOOP) inside a target directory must not abort the load. The target
// comes back with every readable source plus one typed load-stage
// failure per broken entry, so the report is visibly partial instead of
// the whole scan dying.
func TestLoadTargetUnreadable(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.php"), []byte("<?php echo 1;"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Self-referential symlink with an accepted extension: ReadFile hits
	// ELOOP for every caller, including root.
	loop := filepath.Join(dir, "loop.php")
	if err := os.Symlink("loop.php", loop); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	// Permission-denied file: only enforceable for non-root callers
	// (root reads through mode 0).
	denied := filepath.Join(dir, "secret.php")
	if err := os.WriteFile(denied, []byte("<?php echo 2;"), 0o000); err != nil {
		t.Fatal(err)
	}

	tgt, err := loadTarget(dir, []string{".php"})
	if err != nil {
		t.Fatalf("unreadable entries must not abort the target: %v", err)
	}
	if _, ok := tgt.Sources[filepath.Join(dir, "good.php")]; !ok {
		t.Error("readable file lost")
	}
	wantFailures := 1 // the symlink loop
	if os.Getuid() != 0 {
		wantFailures = 2 // plus the permission-denied file
	} else {
		// Root reads mode-0 files; the content must then be present.
		if _, ok := tgt.Sources[denied]; !ok {
			t.Error("mode-0 file neither read nor recorded as a failure (running as root)")
		}
	}
	if len(tgt.LoadFailures) != wantFailures {
		t.Fatalf("LoadFailures = %+v, want %d entries", tgt.LoadFailures, wantFailures)
	}
	seen := map[string]bool{}
	for _, fl := range tgt.LoadFailures {
		if fl.Stage != uchecker.StageLoad || fl.Class != uchecker.FailLoad || fl.Err == "" {
			t.Errorf("malformed load failure: %+v", fl)
		}
		seen[fl.Root] = true
	}
	if !seen[loop] {
		t.Errorf("symlink loop not recorded: %+v", tgt.LoadFailures)
	}

	// The failures flow through to the report and force exit status 2.
	rep, err := uchecker.NewScanner(uchecker.Options{}).Scan(context.Background(), tgt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailureCounts[uchecker.FailLoad] != wantFailures {
		t.Errorf("FailureCounts[load] = %d, want %d", rep.FailureCounts[uchecker.FailLoad], wantFailures)
	}
	if rep.FailureCounts[uchecker.FailParse] != 0 {
		t.Errorf("I/O load failures leaked into FailureCounts[parse]: %v", rep.FailureCounts)
	}
	if got := exitCode(nil, []*uchecker.AppReport{rep}); got != 2 {
		t.Errorf("exitCode = %d, want 2 for a partially loaded target", got)
	}

	// A directory that is nothing but broken entries still loads (with
	// failures) rather than erroring as "no source files".
	broken := t.TempDir()
	if err := os.Symlink("self.php", filepath.Join(broken, "self.php")); err != nil {
		t.Fatal(err)
	}
	onlyBad, err := loadTarget(broken, []string{".php"})
	if err != nil {
		t.Fatalf("all-broken dir must load with failures: %v", err)
	}
	if len(onlyBad.Sources) != 0 || len(onlyBad.LoadFailures) != 1 {
		t.Errorf("all-broken dir: %d sources, %+v", len(onlyBad.Sources), onlyBad.LoadFailures)
	}
}

// TestWriteToAtomic: a failed -trace/-metrics export must leave the
// previous file byte-identical and no temp litter (satellite regression
// for the atomic-export path).
func TestWriteToAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	if err := writeTo(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "old\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("export exploded")
	if err := writeTo(path, func(w io.Writer) error {
		io.WriteString(w, "half-written")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the export failure", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old\n" {
		t.Fatalf("previous export clobbered: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter: %v", entries)
	}
}

// TestPrintReportFailures asserts the verbose report carries the per-class
// failure summary, individual failure records and degraded markers.
func TestPrintReportFailures(t *testing.T) {
	rep := &uchecker.AppReport{
		Name:    "broken",
		Retries: 2,
		Findings: []uchecker.Finding{
			{Sink: "move_uploaded_file", File: "a.php", Line: 3, Degraded: true},
		},
		Failures: []uchecker.Failure{
			{Root: "file:a.php", Stage: "symexec", Class: uchecker.FailPathBudget, Err: "budget exceeded"},
			{Root: "file:b.php", Stage: "symexec", Class: uchecker.FailPanic, Err: "boom"},
		},
		FailureCounts: map[uchecker.FailureClass]int{
			uchecker.FailPathBudget: 1,
			uchecker.FailPanic:      1,
		},
		Aborted: true,
	}
	var sb strings.Builder
	printReport(&sb, rep, true, false)
	out := sb.String()
	for _, want := range []string{
		"scan aborted: too many root failures",
		"degradation-ladder retries: 2",
		"failures: panic=1 path-budget=1",
		"failure: file:a.php: [symexec/path-budget] budget exceeded",
		"failure: file:b.php: [symexec/panic] boom",
		"[degraded]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
