package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

// probeApps bounds how many of the traced apps go through the daemon
// probe (three jobs each).
const probeApps = 60

// journalSamples is how many journal appends the scanjournal probe
// times: enough for a p99 with more than ten samples beyond it.
const journalSamples = 1200

// runTraced is the per-layer run. On one goroutine, app by app until
// the run's time is up (the corpus workloads always complete their one
// round, so every corpus app is traced), it drives each app through
// every layer call with a span around each, and scans it with an
// untraced single-worker Scanner whose report the driver must
// reproduce; the two alternate which goes first, so drift in machine
// speed does not land on one side. It then runs the first apps through
// an in-process daemon and times the scan journal's durable writes on
// daemon-shaped records. Spans are written to traceDir.
func runTraced(ctx context.Context, w workload, seed int64, seconds time.Duration, dir, traceDir string, res *result) error {
	items := w.inputs(seed, int(seconds/time.Second))
	rec := obs.NewRecorder()
	drv := newDriver(ctx, rec, w.opts.Interproc)
	opts := w.opts
	opts.Workers = 1
	scanner := uchecker.NewScanner(opts)

	var log clientLog
	var reps []*uchecker.AppReport
	var driverWall, scannerWall time.Duration
	start := time.Now()
	for i, it := range items {
		if w.stop != wholeRounds && i > 0 && time.Since(start) >= seconds {
			items = items[:i]
			break
		}
		var out outcome
		var rep *uchecker.AppReport
		for k := 0; k < 2; k++ {
			t := time.Now()
			if (i+k)%2 == 0 {
				out = drv.app(it)
				driverWall += time.Since(t)
			} else {
				rep = scanOnce(ctx, scanner, it, &log)
				scannerWall += time.Since(t)
			}
		}
		reps = append(reps, rep)
		if out.vulnerable != it.want {
			log.mismatch("%s: driver verdict %v, want %v", it.name, out.vulnerable, it.want)
		}
		if rep == nil {
			continue
		}
		if d := out.diff(outcomeOf(rep)); d != "" {
			log.mismatch("%s: driver differs from Scanner: %s", it.name, d)
		}
	}

	layers := layerMetrics(rec.Snapshot(), drv.n, driverWall, scannerWall)

	probe := items[:min(len(items), probeApps)]
	svc, err := probeDaemon(ctx, filepath.Join(dir, "daemon"), w.opts, probe, &log)
	if err != nil {
		return err
	}
	jrn, err := probeJournal(filepath.Join(dir, "journal"), probe, reps)
	if err != nil {
		return err
	}

	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := writeTrace(tracePath, rec.Snapshot()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans written to %s\n", w.name, rec.Len(), tracePath)

	res.fill(log)
	for _, m := range append(append(layers, svc...), jrn...) {
		res.add(m.name, m.value, m.unit)
	}
	return nil
}

// namedMetric is one reported value.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// layerMetrics turns the driver's spans and counts into the per-layer
// metrics. Shares are of the driver's wall time, so they sum to
// trace.accounted_frac.
func layerMetrics(spans []obs.Span, n layerCounts, driverWall, scannerWall time.Duration) []namedMetric {
	dur := map[string]time.Duration{}
	alloc := map[string]float64{}
	for _, sp := range spans {
		if sp.Name == "app" {
			continue
		}
		dur[sp.Name] += sp.Dur()
		b, _ := strconv.ParseFloat(sp.Attr(allocAttr), 64)
		alloc[sp.Name] += b
	}
	verdicts := float64(max(n.verdicts, 1))
	msPer := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += dur[name]
		}
		return float64(d) / float64(time.Millisecond) / verdicts
	}
	mbPer := func(names ...string) float64 {
		var b float64
		for _, name := range names {
			b += alloc[name]
		}
		return b / (1 << 20) / verdicts
	}
	share := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += dur[name]
		}
		return ratio(float64(d), float64(driverWall))
	}
	var accounted time.Duration
	for _, d := range dur {
		accounted += d
	}
	checks := float64(n.checks)
	return []namedMetric{
		{"phpparser.self_ms_per_verdict", msPer(spanParse), "ms"},
		{"phpparser.alloc_mb_per_verdict", mbPer(spanParse), "MB"},
		{"phpparser.kloc_per_s", ratio(float64(n.linesParsed)/1000, dur[spanParse].Seconds()), "kloc/s"},
		{"phpparser.share", share(spanParse), "frac"},
		{"callgraph.self_ms_per_verdict", msPer(spanCallgraph), "ms"},
		{"callgraph.share", share(spanCallgraph), "frac"},
		{"locality.self_ms_per_verdict", msPer(spanLocality), "ms"},
		{"locality.share", share(spanLocality), "frac"},
		{"locality.loc_analyzed_frac", ratio(float64(n.analyzedLoC), float64(n.totalLoC)), "frac"},
		{"locality.roots_per_verdict", float64(n.roots) / verdicts, "count"},
		{"summary.local_ms_per_verdict", msPer(spanSummaryLocal), "ms"},
		{"summary.compose_ms_per_verdict", msPer(spanSummaryCompose), "ms"},
		{"summary.alloc_mb_per_verdict", mbPer(spanSummaryLocal, spanSummaryCompose), "MB"},
		{"summary.share", share(spanSummaryLocal, spanSummaryCompose), "frac"},
		{"summary.escaped_frac", ratio(float64(n.escaped), float64(n.escaped+n.instantiated)), "frac"},
		{"interp.self_ms_per_verdict", msPer(spanInterp), "ms"},
		{"interp.alloc_mb_per_verdict", mbPer(spanInterp), "MB"},
		{"interp.share", share(spanInterp), "frac"},
		{"interp.paths_per_verdict", float64(n.paths) / verdicts, "count"},
		{"interp.paths_per_s", ratio(float64(n.paths), dur[spanInterp].Seconds()), "1/s"},
		{"interp.budget_aborts", float64(n.budgetAborts), "count"},
		{"interp.merged_frac", ratio(float64(n.pathsAvoided), float64(n.paths+n.pathsAvoided)), "frac"},
		{"vulnmodel.self_ms_per_verdict", msPer(spanModel), "ms"},
		{"vulnmodel.share", share(spanModel), "frac"},
		{"vulnmodel.tainted_frac", ratio(float64(n.tainted), float64(n.modeled)), "frac"},
		{"smt.self_ms_per_verdict", msPer(spanSMT), "ms"},
		{"smt.alloc_mb_per_verdict", mbPer(spanSMT), "MB"},
		{"smt.share", share(spanSMT), "frac"},
		{"smt.checks_per_verdict", checks / verdicts, "count"},
		{"smt.sat_frac", ratio(float64(n.sat), checks), "frac"},
		{"smt.quick_unsat_frac", ratio(float64(n.quick), checks), "frac"},
		{"smt.unknown", float64(n.unknown), "count"},
		{"uchecker.retries", float64(n.retries), "count"},
		// The whole pipeline, from the untraced single-worker Scanner.
		{"uchecker.scan_ms_per_verdict", float64(scannerWall) / float64(time.Millisecond) / verdicts, "ms"},
		{"baseline.self_ms_per_verdict", msPer(spanBaseline), "ms"},
		{"trace.accounted_frac", ratio(float64(accounted), float64(driverWall)), "frac"},
		{"trace.overhead_frac", ratio(float64(driverWall-scannerWall), float64(scannerWall)), "frac"},
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeDaemon runs each app through an in-process daemon scanning with
// opts, as one cold and two warm jobs from a single client, and reports
// the client-side latency splits and the daemon's own cache hit rate.
func probeDaemon(ctx context.Context, dir string, opts uchecker.Options, items []item, log *clientLog) (ms []namedMetric, err error) {
	h, err := openDaemon(dir, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := h.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close daemon: %w", cerr)
		}
	}()
	var submit, queue, run, result []float64
	timing := func(tm jobTiming) {
		submit = append(submit, msOf(tm.submit))
		result = append(result, msOf(tm.result))
		if tm.sawRunning {
			queue = append(queue, msOf(tm.queueWait))
			run = append(run, msOf(tm.run))
		}
	}
	for _, it := range items {
		h.submitThrice(ctx, it, log, timing)
	}
	frac, err := h.cacheHitFrac()
	if err != nil {
		return nil, err
	}
	return []namedMetric{
		{"scand.submit_p50_ms", median0(submit), "ms"},
		{"scand.queue_wait_p50_ms", median0(queue), "ms"},
		{"scand.run_p50_ms", median0(run), "ms"},
		{"scand.result_p50_ms", median0(result), "ms"},
		{"scand.hit_p50_ms", median0(log.hitMs), "ms"},
		{"scand.miss_p50_ms", median0(log.missMs), "ms"},
		{"scand.cache_hit_frac", frac, "frac"},
	}, nil
}

// probeJournal times the daemon's durable writes on daemon-shaped data:
// each app's submit, start and finish records (the finish carrying the
// app's report) appended and fsynced to a job journal, its sources
// written to a spool file, and its report read back from the result
// cache. It cycles over the apps until journalSamples appends are timed.
func probeJournal(dir string, items []item, reps []*uchecker.AppReport) (ms []namedMetric, err error) {
	if err := os.MkdirAll(filepath.Join(dir, "spool"), 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	w, err := scanjournal.OpenWriter(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	cache, err := scanjournal.OpenCache(filepath.Join(dir, "cache"), nil)
	if err != nil {
		return nil, err
	}
	// The daemon spools a job's submit body, framed, and journals its
	// canonical report in the finish record.
	reports := make([][]byte, len(items))
	spools := make([][]byte, len(items))
	for i, it := range items {
		if reports[i], err = json.Marshal(reps[i]); err != nil {
			return nil, err
		}
		body, err := submitBody(it)
		if err != nil {
			return nil, err
		}
		spools[i] = scanjournal.Frame(body)
	}
	var appendUs, spoolUs, getUs []float64
	timed := func(dst *[]float64, f func() error) error {
		t := time.Now()
		err := f()
		*dst = append(*dst, float64(time.Since(t))/float64(time.Microsecond))
		return err
	}
	for seq := 0; len(appendUs) < journalSamples; seq++ {
		i := seq % len(items)
		id := fmt.Sprintf("j%08d", seq)
		key := scanjournal.CacheKey(items[i].sources, items[i].name)
		spoolPath := filepath.Join(dir, "spool", id+".src")
		err := timed(&spoolUs, func() error {
			return scanjournal.AtomicWrite(spoolPath, func(w io.Writer) error {
				_, err := w.Write(spools[i])
				return err
			})
		})
		rec := scanjournal.Record{Job: id, Tenant: "bench", Name: items[i].name, Key: key, At: time.Now()}
		for _, typ := range []string{scanjournal.TypeJobSubmit, scanjournal.TypeJobStart, scanjournal.TypeJobFinish} {
			if err != nil {
				break
			}
			rec.Type = typ
			if typ == scanjournal.TypeJobFinish {
				rec.Report = reports[i]
			}
			err = timed(&appendUs, func() error { return w.Append(rec) })
		}
		if err == nil {
			err = cache.Put(key, reports[i])
		}
		if err == nil {
			err = timed(&getUs, func() error {
				if _, ok := cache.Get(key); !ok {
					return fmt.Errorf("cache entry %s missing", key)
				}
				return nil
			})
		}
		if err == nil {
			err = os.Remove(spoolPath)
		}
		if err != nil {
			return nil, err
		}
	}
	p99, err := percentile(appendUs, 99)
	if err != nil {
		return nil, err
	}
	return []namedMetric{
		{"scanjournal.append_p50_us", median(appendUs), "us"},
		{"scanjournal.append_p99_us", p99, "us"},
		{"scanjournal.spool_write_p50_us", median(spoolUs), "us"},
		{"scanjournal.cache_get_p50_us", median(getUs), "us"},
	}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median0 is the median, or 0 for no samples (JSON has no NaN).
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func writeTrace(path string, spans []obs.Span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return obs.WriteChromeTrace(f, spans)
}
