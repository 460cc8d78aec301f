package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// allMetrics is the default -metrics list.
var allMetrics = strings.Split(defaultMetrics, ",")

func mkDoc(results ...result) *doc {
	return &doc{Env: map[string]string{}, Results: results}
}

func res(name string, ns, allocs float64) result {
	return result{
		Name:       name,
		Iterations: 10,
		Metrics:    map[string]float64{"ns/op": ns, "allocs/op": allocs, "B/op": 1 << 20},
	}
}

func TestParseBench(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: repro
cpu: test-cpu
BenchmarkEngineSymbolicExecution/vm-8   16   129412136 ns/op   74034659 B/op   265257 allocs/op
PASS
`
	d, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(d.Results))
	}
	r := d.Results[0]
	if r.Name != "BenchmarkEngineSymbolicExecution/vm-8" || r.Iterations != 16 {
		t.Errorf("bad result header: %+v", r)
	}
	if r.Metrics["ns/op"] != 129412136 || r.Metrics["allocs/op"] != 265257 {
		t.Errorf("bad metrics: %v", r.Metrics)
	}
	if d.Env["goos"] != "linux" || d.Env["pkg"] != "repro" {
		t.Errorf("bad env: %v", d.Env)
	}
}

func TestDiffWithinThreshold(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 114, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &sb); n != 0 {
		t.Fatalf("14%% drift flagged as regression:\n%s", sb.String())
	}
}

func TestDiffNsRegression(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 120, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &sb); n != 1 {
		t.Fatalf("got %d regressions, want 1 (ns/op +20%%):\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Errorf("report lacks FAIL line:\n%s", sb.String())
	}
}

func TestDiffAllocRegression(t *testing.T) {
	base := mkDoc(res("b", 100, 1000))
	fresh := mkDoc(res("b", 100, 1200))
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &strings.Builder{}); n != 1 {
		t.Fatalf("got %d regressions, want 1 (allocs/op +20%%)", n)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	base := mkDoc(res("b", 100, 1000))
	fresh := mkDoc(res("b", 50, 500))
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &strings.Builder{}); n != 0 {
		t.Fatalf("improvement flagged as regression")
	}
}

func TestDiffMissingBenchFails(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000))
	fresh := mkDoc()
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &strings.Builder{}); n != 1 {
		t.Fatalf("dropped benchmark not flagged")
	}
}

// TestDiffMissingMetricFails: a fresh run that lost -benchmem reports
// ns/op alone. Each metric the baseline holds and the run lacks is a
// regression, so the allocation gate cannot pass with nothing checked.
func TestDiffMissingMetricFails(t *testing.T) {
	base := mkDoc(res("BenchmarkRunCimyAbort-2", 100, 1000))
	fresh := mkDoc(res("BenchmarkRunCimyAbort-2", 100, 1000))
	delete(fresh.Results[0].Metrics, "B/op")
	delete(fresh.Results[0].Metrics, "allocs/op")
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), []string{"allocs/op", "B/op"}, 15, &sb); n != 2 {
		t.Fatalf("got %d regressions, want 2 (allocs/op and B/op missing):\n%s", n, sb.String())
	}
	for _, m := range []string{"allocs/op", "B/op"} {
		if !strings.Contains(sb.String(), "FAIL BenchmarkRunCimyAbort-2 "+m+": present in baseline, missing from fresh run") {
			t.Errorf("report lacks the %s FAIL line:\n%s", m, sb.String())
		}
	}
	// A metric the baseline never recorded is not checked.
	delete(base.Results[0].Metrics, "B/op")
	delete(base.Results[0].Metrics, "allocs/op")
	if n := diff(base, fresh, regexp.MustCompile(""), []string{"allocs/op", "B/op"}, 15, &strings.Builder{}); n != 0 {
		t.Fatalf("got %d regressions for metrics the baseline lacks, want 0", n)
	}
}

func TestDiffMatchFilter(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000), res("BenchmarkOther-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000), res("BenchmarkOther-8", 500, 1000))
	re := regexp.MustCompile("^BenchmarkEngine")
	if n := diff(base, fresh, re, allMetrics, 15, &strings.Builder{}); n != 0 {
		t.Fatalf("-match did not exclude non-engine regression")
	}
}

// TestDiffBytesRegression: bringing back a whole-input token slice
// costs a few large allocations, so B/op quadruples while allocs/op
// moves 0.3%. The gate must fail on B/op alone.
func TestDiffBytesRegression(t *testing.T) {
	base := mkDoc(res("BenchmarkPhaseParse-2", 100, 455864))
	fresh := mkDoc(res("BenchmarkPhaseParse-2", 100, 457450))
	base.Results[0].Metrics["B/op"] = 28.3e6
	fresh.Results[0].Metrics["B/op"] = 128.2e6
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), allMetrics, 15, &sb); n != 1 {
		t.Fatalf("got %d regressions, want 1 (B/op +353%%):\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL BenchmarkPhaseParse-2 B/op") {
		t.Errorf("report lacks the B/op FAIL line:\n%s", sb.String())
	}
}

// TestDiffMetricsSubset: the BENCH_smt.json gate runs with -metrics
// allocs/op,B/op. It must pass a run that is only slower, and fail one
// that allocates more bytes.
func TestDiffMetricsSubset(t *testing.T) {
	allocs := []string{"allocs/op", "B/op"}
	base := mkDoc(res("BenchmarkSolverSearch-2", 100, 235))
	slower := mkDoc(res("BenchmarkSolverSearch-2", 280, 235))
	var sb strings.Builder
	if n := diff(base, slower, regexp.MustCompile(""), allocs, 15, &sb); n != 0 {
		t.Fatalf("ns/op regression flagged outside -metrics:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "ns/op") {
		t.Errorf("report lists a metric outside -metrics:\n%s", sb.String())
	}
	bigger := mkDoc(res("BenchmarkSolverSearch-2", 100, 235))
	bigger.Results[0].Metrics["B/op"] = 2 << 20
	if n := diff(base, bigger, regexp.MustCompile(""), allocs, 15, &strings.Builder{}); n != 1 {
		t.Fatalf("got %d regressions, want 1 (B/op +100%%)", n)
	}
}

// TestWriteDocReportsFile: -out writes the document to the named file,
// closed and complete when writeDoc returns, and an unwritable path is
// an error rather than a silent success.
func TestWriteDocReportsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := writeDoc(path, mkDoc(res("b", 1, 2))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := json.Unmarshal(data, &got); err != nil || len(got.Results) != 1 || got.Results[0].Name != "b" {
		t.Fatalf("out file = %q (%v)", data, err)
	}
	if err := writeDoc(filepath.Join(t.TempDir(), "missing", "out.json"), mkDoc()); err == nil {
		t.Fatal("writeDoc into a missing directory succeeded")
	}
}

// TestPairedReport: the k-th run of a benchmark pairs with the k-th run
// on the other side; the report gives both medians, the parent's
// interquartile spread and the pairs the change won, ties counting for
// neither, and names a benchmark the change's runs lack.
func TestPairedReport(t *testing.T) {
	parent := mkDoc(
		res("BenchmarkA-2", 100, 10), res("BenchmarkGone-2", 5, 1),
		res("BenchmarkA-2", 140, 10),
		res("BenchmarkA-2", 120, 10),
		res("BenchmarkA-2", 110, 10),
		res("BenchmarkA-2", 130, 10),
	)
	change := mkDoc(
		res("BenchmarkA-2", 90, 10),
		res("BenchmarkA-2", 150, 10),
		res("BenchmarkA-2", 100, 10),
		res("BenchmarkA-2", 110, 10),
		res("BenchmarkA-2", 95, 10),
	)
	var sb strings.Builder
	if err := paired(parent, change, []string{"ns/op", "allocs/op"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []*regexp.Regexp{
		// Parent 100..140: median 120, quartiles 110 and 130. Change
		// median 100; it won pairs 1, 3 and 5 and tied pair 4.
		regexp.MustCompile(`BenchmarkA-2\s+ns/op\s+120\s+100\s+-16\.7%\s+20\s+3/5`),
		regexp.MustCompile(`BenchmarkA-2\s+allocs/op\s+10\s+10\s+\+0\.0%\s+0\s+0/5`),
		regexp.MustCompile(`BenchmarkGone-2\s+missing from the change's runs`),
	} {
		if !want.MatchString(out) {
			t.Errorf("report does not match %s:\n%s", want, out)
		}
	}
}
