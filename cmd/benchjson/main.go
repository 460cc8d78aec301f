// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so benchmark numbers can be archived and
// diffed across commits (e.g. make bench-smt > BENCH_smt.json).
//
//	go test -run '^$' -bench . -benchmem ./internal/smt | go run ./cmd/benchjson
//
// The output is an object with the benchmarking environment (goos,
// goarch, cpu, pkg lines as emitted by the test binary) and one entry per
// benchmark result line: name, iterations, and every "value unit" metric
// pair (ns/op, B/op, allocs/op, custom ReportMetric units, …).
//
// With -baseline, benchjson additionally diffs the fresh run against a
// previously archived JSON document and exits non-zero when a gated
// metric (-metrics; ns/op, allocs/op and B/op by default) regresses by
// more than -max-regress percent on any benchmark (optionally filtered
// by -match). This is the CI regression gate for the parse, call-graph
// and symbolic-execution benchmarks, and, on allocations only, for the
// constraint-engine benchmarks:
//
//	go test -run '^$' -bench '^Benchmark(PhaseParse|PhaseCallgraphLocality|PhaseSymbolicExecution|ScanRoots|ScanSerial)$' -benchmem . |
//	  go run ./cmd/benchjson -baseline BENCH_interp.json -out BENCH_interp.new.json
//	go test -run '^$' -bench . -benchmem ./internal/smt |
//	  go run ./cmd/benchjson -baseline BENCH_smt.json -metrics allocs/op,B/op
//
// With -paired, benchjson reads no stdin. Its two arguments hold the
// `go test -bench` output of a parent commit and of a change, one run of
// the suite per pair, in pair order. For every benchmark and each of
// -metrics it prints both medians, the parent's interquartile spread and
// the number of pairs the change won (a lower value wins; ties count for
// neither). It gates nothing (make bench-interp-paired):
//
//	go run ./cmd/benchjson -paired parent.txt change.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

type result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type doc struct {
	Env     map[string]string `json:"env"`
	Results []result          `json:"results"`
}

// defaultMetrics are the metrics the -baseline diff gates unless
// -metrics names others. Allocation count and allocated bytes move
// independently: a few large allocations (a whole-input buffer grown by
// append) can change B/op severalfold while allocs/op barely moves, so
// both are gated. ns/op follows the host's speed; -metrics
// allocs/op,B/op leaves it out.
const defaultMetrics = "ns/op,allocs/op,B/op"

func main() {
	baseline := flag.String("baseline", "", "archived benchjson JSON to diff the fresh run against; exit 1 on regression")
	maxRegress := flag.Float64("max-regress", 15, "maximum allowed regression in percent of each gated metric")
	match := flag.String("match", "", "regexp restricting which benchmarks the -baseline diff gates (default: all)")
	metrics := flag.String("metrics", defaultMetrics, "comma-separated metrics the -baseline diff gates and -paired reports")
	out := flag.String("out", "", "write the fresh JSON document to this file instead of stdout")
	pairedRuns := flag.Bool("paired", false, "compare the paired runs in the two file arguments (parent, change) instead of reading stdin")
	flag.Parse()

	if *pairedRuns {
		if flag.NArg() != 2 {
			fatalf("-paired takes two files: the parent's runs and the change's runs")
		}
		var docs [2]*doc
		for i, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fatalf("%v", err)
			}
			docs[i], err = parseBench(f)
			f.Close()
			if err != nil {
				fatalf("parse %s: %v", path, err)
			}
		}
		if err := paired(docs[0], docs[1], strings.Split(*metrics, ","), os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fresh, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("%v", err)
	}
	if err := writeDoc(*out, fresh); err != nil {
		fatalf("%v", err)
	}

	if *baseline == "" {
		return
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatalf("%v", err)
	}
	var base doc
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("parse baseline %s: %v", *baseline, err)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatalf("bad -match: %v", err)
	}
	regressions := diff(&base, fresh, re, strings.Split(*metrics, ","), *maxRegress, os.Stderr)
	if regressions > 0 {
		fatalf("%d benchmark regression(s) beyond %.0f%% vs %s", regressions, *maxRegress, *baseline)
	}
}

// writeDoc writes d as indented JSON to the file at path, or to stdout
// when path is empty. A file is closed before writeDoc returns, and an
// error from the close is returned: the caller may exit right after.
func writeDoc(path string, d *doc) error {
	if path == "" {
		return encode(os.Stdout, d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encode(w io.Writer, d *doc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// diff compares every baseline benchmark whose name matches re against
// the fresh run on each of metrics, writes a per-metric report to w, and
// returns the number of metrics that regressed by more than maxRegress
// percent. A matching baseline benchmark missing from the fresh run, or
// a metric the baseline holds that the fresh run lacks, counts as a
// regression: the gate must not silently pass because a bench was
// renamed or dropped, or because a recipe stopped reporting a metric
// (a run without -benchmem reports no B/op or allocs/op).
func diff(base, fresh *doc, re *regexp.Regexp, metrics []string, maxRegress float64, w io.Writer) int {
	byName := make(map[string]result, len(fresh.Results))
	for _, r := range fresh.Results {
		byName[r.Name] = r
	}
	regressions := 0
	for _, b := range base.Results {
		if !re.MatchString(b.Name) {
			continue
		}
		f, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: present in baseline, missing from fresh run\n", b.Name)
			regressions++
			continue
		}
		for _, m := range metrics {
			bv, bok := b.Metrics[m]
			fv, fok := f.Metrics[m]
			if bok && !fok {
				fmt.Fprintf(w, "FAIL %s %s: present in baseline, missing from fresh run\n", b.Name, m)
				regressions++
				continue
			}
			if !bok || bv == 0 {
				continue
			}
			pct := (fv - bv) / bv * 100
			status := "ok  "
			if pct > maxRegress {
				status = "FAIL"
				regressions++
			}
			fmt.Fprintf(w, "%s %s %s: %.0f -> %.0f (%+.1f%%)\n", status, b.Name, m, bv, fv, pct)
		}
	}
	return regressions
}

// paired writes, for every benchmark of the parent's runs and each of
// metrics, the parent's and the change's medians, the parent's
// interquartile spread and how many pairs the change won. The k-th result
// of a benchmark on one side pairs with its k-th result on the other.
func paired(parent, change *doc, metrics []string, w io.Writer) error {
	runs := func(d *doc) (names []string, byName map[string][]result) {
		byName = map[string][]result{}
		for _, r := range d.Results {
			if byName[r.Name] == nil {
				names = append(names, r.Name)
			}
			byName[r.Name] = append(byName[r.Name], r)
		}
		return names, byName
	}
	names, pruns := runs(parent)
	_, cruns := runs(change)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\tparent median\tchange median\tchange\tparent IQR\tchange won\t")
	for _, name := range names {
		p, c := pruns[name], cruns[name]
		n := min(len(p), len(c))
		if n == 0 {
			fmt.Fprintf(tw, "%s\t\tmissing from the change's runs\t\t\t\t\t\n", name)
			continue
		}
		for _, m := range metrics {
			var pv, cv []float64
			won := 0
			for k := 0; k < n; k++ {
				pv = append(pv, p[k].Metrics[m])
				cv = append(cv, c[k].Metrics[m])
				if cv[k] < pv[k] {
					won++
				}
			}
			pmed, cmed := quantile(pv, 0.5), quantile(cv, 0.5)
			pct := 0.0
			if pmed != 0 {
				pct = (cmed - pmed) / pmed * 100
			}
			fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%+.1f%%\t%.0f\t%d/%d\t\n",
				name, m, pmed, cmed, pct, quantile(pv, 0.75)-quantile(pv, 0.25), won, n)
		}
	}
	return tw.Flush()
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// parseBench reads `go test -bench` text output into a doc.
func parseBench(r io.Reader) (*doc, error) {
	out := &doc{Env: map[string]string{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			out.Env[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "pkg:"):
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
			out.Env["pkg"] = appendPkg(out.Env["pkg"], pkg)
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseResult(line, pkg); ok {
				out.Results = append(out.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func appendPkg(cur, pkg string) string {
	if cur == "" {
		return pkg
	}
	return cur + " " + pkg
}

// parseResult parses one benchmark line:
//
//	BenchmarkName/sub-8   100  11111 ns/op  2222 B/op  33 allocs/op
func parseResult(line, pkg string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{
		Name:       fields[0],
		Package:    pkg,
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return result{}, false
	}
	return r, true
}
