// Command bench is the repository benchmark. It drives the UChecker
// pipeline's public API from outside, in four closed-loop workloads
// with one or two clients each, and checks every verdict it gets back.
//
// Run one workload:
//
//	bash bench/run.sh --workload screening --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-runs the workload's apps one public layer call at a time and
// reports per-layer metrics, writing the spans as a Chrome trace. Every
// metric is printed as "workload metric value unit", and the last line
// of standard output is one JSON object:
//
//	{"correct":true,"attempted":132,"failed":0,"metrics":{"setup_s":{"value":0.41,"unit":"s"}, ...}}
//
// Without --workload it runs every workload, each in its own process,
// --repeat times (seeds seed, seed+1, ...), prints each metric's median
// and spread and writes the runs to a results file. --compare a.json
// b.json checks two results files against the bounds in BENCHMARK.json.
// See bench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the benchmark's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string
	wrong []string
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// fill records the requests a run made and whether every output was
// correct.
func (r *result) fill(l clientLog) {
	r.Attempted = l.attempted
	r.Failed = l.failed
	r.wrong = l.wrong
	r.Correct = len(l.wrong) == 0
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+"; empty runs every workload, each in its own process")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 15, "length of a run's timed region, in seconds")
		trace    = flag.Int("trace", 0, "0 for end-to-end metrics, 1 for the per-layer traced run")
		repeat   = flag.Int("repeat", 1, "runs per workload when running every workload, with seeds seed, seed+1, ...")
		dir      = flag.String("dir", ".bench_build", "directory for scratch state, traces and results")
		out      = flag.String("out", "", "results file when running every workload (default <dir>/results.json)")
		compare  = flag.Bool("compare", false, "compare the two results files given as arguments against the bounds in -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(*spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(*dir, "results.json")
		}
		return runSuite(*seed, *seconds, *trace, *repeat, *dir, *out)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	work := filepath.Join(*dir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx := context.Background()
	limit := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		err = runTraced(ctx, w, *seed, limit, work, filepath.Join(*dir, "traces"), &res)
	} else {
		err = runUntraced(ctx, w, *seed, limit, work, &res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range res.wrong {
		fmt.Fprintf(os.Stderr, "bench: %s: wrong output: %s\n", w.name, msg)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s is %v\n", w.name, name, m.Value)
			return 1
		}
		fmt.Printf("%s %s %v %s\n", w.name, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
