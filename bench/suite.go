package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suiteFile is the results file: every run of every workload.
type suiteFile struct {
	Seconds int                 `json:"seconds"`
	Trace   int                 `json:"trace"`
	Runs    map[string][]result `json:"runs"`
}

// runSuite runs every workload repeat times, each run in its own
// process so peak RSS is per run, prints every run's metrics and each
// metric's median and spread, and writes the runs to out. It fails if
// any run failed or produced a wrong output.
func runSuite(seed int64, seconds, trace, repeat int, dir, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := suiteFile{Seconds: seconds, Trace: trace, Runs: map[string][]result{}}
	ok := true
	for _, w := range workloads {
		for r := 0; r < repeat; r++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed+int64(r), 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--dir", dir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: no result line (%v)\n", w.name, r+1, runErr)
				ok = false
				continue
			}
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if runErr != nil || !res.Correct || res.Failed > 0 {
				ok = false
			}
			file.Runs[w.name] = append(file.Runs[w.name], res)
		}
	}

	if repeat > 1 {
		fmt.Printf("\n%-15s %-34s %14s %-7s %12s %9s %10s %4s\n", "workload", "metric", "median", "unit", "iqr", "iqr_frac", "range_frac", "runs")
		for _, w := range workloads {
			runs := file.Runs[w.name]
			for _, name := range metricNames(runs) {
				sp, err := spreadOf(values(runs, name))
				if err != nil {
					continue
				}
				fmt.Printf("%-15s %-34s %14.6g %-7s %12.6g %9.4f %10.4f %4d\n", w.name, name, sp.Median, runs[0].Metrics[name].Unit, sp.IQR, sp.IQRFrac, sp.RangeFrac, len(runs))
			}
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(out), 0o755)
	}
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: results written to %s\n", out)
	if !ok {
		return 1
	}
	return 0
}

// metricNames lists the metrics the runs report, sorted.
func metricNames(runs []result) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range runs {
		for name := range r.Metrics {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// values collects one metric over the runs that report it.
func values(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles checks results file b against results file a: for every
// workload both hold and every end-to-end metric, b's median may be
// worse than a's by at most the metric's bound. It prints one row per
// (workload, metric) and fails if any row regressed.
func compareFiles(specPath, aPath, bPath string) int {
	var spec benchSpec
	var a, b suiteFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	regressed, compared := false, 0
	fmt.Printf("%-15s %-22s %14s %14s %8s %6s %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloadNames() {
		ra, rb := a.Runs[w], b.Runs[w]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-15s %-22s missing\n", w, m.Name)
				regressed = true
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			compared++
			fmt.Printf("%-15s %-22s %14.6g %14.6g %+7.2f%% %5.0f%% %s\n", w, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two files share no workload")
		return 1
	}
	if regressed {
		return 1
	}
	return 0
}
