package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/uchecker"
)

// A run sets its workload up at least setupMinReps times, and more
// while under setupBudget, up to setupMaxReps; setup_s is the median,
// and the last set-up is the one measured. One process's set-ups of a
// workload varied by up to 2x (a corpus set-up takes ~20 ms, a
// screening one ~150 ms), so a fixed five left the median to a few
// noisy samples.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupBudget  = 2 * time.Second
)

// warmupItems is how many apps the untimed warm-up pass runs before
// the timed region (the whole list when it is shorter, so a corpus run
// warms up with one full round). It brings the process to a steady
// state — heap grown and paged in, code and data caches filled — which
// a long-running scanner or daemon is in after its first few apps.
const warmupItems = 200

// session is a set-up workload ready for its timed closed loop.
type session struct {
	items []item
	// warm are the warm-up pass's apps.
	warm  []item
	do    func(item, *clientLog)
	close func() error
}

// setup builds a workload's inputs and its scanner or daemon, and runs
// one warm-up app through it.
func setup(ctx context.Context, w workload, seed int64, seconds time.Duration, dir string) (*session, error) {
	items := w.inputs(seed, int(seconds/time.Second))
	if len(items) == 0 {
		return nil, errors.New("workload has no inputs")
	}
	warm := items[:min(len(items), warmupItems)]
	var log clientLog
	if !w.daemon {
		s := uchecker.NewScanner(w.opts)
		scanOnce(ctx, s, items[0], &log)
		if log.failed > 0 || len(log.wrong) > 0 {
			return nil, fmt.Errorf("warm-up scan of %s failed: %v", items[0].name, log.wrong)
		}
		return &session{
			items: items,
			warm:  warm,
			do:    func(it item, l *clientLog) { scanOnce(ctx, s, it, l) },
			close: func() error { return nil },
		}, nil
	}
	h, err := openDaemon(dir, w.opts)
	if err != nil {
		return nil, err
	}
	// Warm-up jobs carry names no timed job uses: the job key includes
	// the name, so the timed jobs still find the result cache cold.
	renamed := make([]item, len(warm))
	for i, it := range warm {
		it.name = "warm-up/" + it.name
		renamed[i] = it
	}
	body, err := submitBody(renamed[0])
	if err == nil {
		_, _, err = h.job(ctx, body)
	}
	if err != nil {
		h.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return &session{
		items: items,
		warm:  renamed,
		do:    func(it item, l *clientLog) { h.submitThrice(ctx, it, l, nil) },
		close: h.close,
	}, nil
}

// runUntraced is the end-to-end run: set up (timed, repeatedly), run
// the untimed warm-up pass, then the timed closed loop with every
// client, tracing off.
func runUntraced(ctx context.Context, w workload, seed int64, seconds time.Duration, dir string, res *result) (err error) {
	var setups []float64
	var spent time.Duration
	var sess *session
	for i := 0; i < setupMinReps || (i < setupMaxReps && spent < setupBudget); i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return err
			}
			sess = nil
			// Start each set-up from a collected heap, as the first one in
			// a fresh process does, so none pays for an earlier one's
			// garbage.
			runtime.GC()
		}
		start := time.Now()
		sess, err = setup(ctx, w, seed, seconds, filepath.Join(dir, fmt.Sprintf("daemon-%d", i)))
		if err != nil {
			return err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if cerr := sess.close(); err == nil {
			err = cerr
		}
	}()

	if l := closedLoop(w.clients, feed(sess.warm, onePass, 0, sess.do)); l.failed > 0 || len(l.wrong) > 0 {
		return fmt.Errorf("warm-up pass: %d failed, wrong outputs %v", l.failed, l.wrong)
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()
	start := time.Now()
	log := closedLoop(w.clients, feed(sess.items, w.stop, seconds, sess.do))
	wall := time.Since(start)
	metrics.Read(allocs)
	allocated := float64(allocs[0].Value.Uint64() - alloc0)

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	verdicts := float64(log.attempted - log.failed)
	if verdicts == 0 {
		return errors.New("no verdict completed")
	}
	// Speed and latency are printed, not reported as metrics: on the
	// shared 2-vCPU VM the benchmark was sized on, the host moved them by
	// up to 2x within minutes, wider than any regression bound could be
	// (bench/README.md has the measurements). The tail percentile is the
	// highest one with enough samples beyond it.
	fmt.Printf("# %s: %d verdicts (%d failed) in %.2f s from %d clients: %.4g verdicts/s, p50 %.3f ms\n",
		w.name, log.attempted, log.failed, wall.Seconds(), w.clients, verdicts/wall.Seconds(), median(log.latMs))
	for _, p := range []float64{99, 90} {
		if v, err := percentile(log.latMs, p); err == nil {
			fmt.Printf("# %s: verdict p%g %.3f ms over %d verdicts\n", w.name, p, v, len(log.latMs))
			break
		}
	}
	if len(log.missMs) > 0 {
		hit, miss := sum(log.hitMs), sum(log.missMs)
		fmt.Printf("# %s: %d cache-hit jobs (%.1f%%), p50 %.3f ms; %d cold jobs, p50 %.3f ms; cold jobs took %.1f%% of client time\n",
			w.name, len(log.hitMs), 100*ratio(float64(len(log.hitMs)), float64(len(log.hitMs)+len(log.missMs))), median0(log.hitMs),
			len(log.missMs), median0(log.missMs), 100*ratio(miss, hit+miss))
	}
	res.fill(log)
	res.add("peak_rss_mb", rss, "MB")
	res.add("alloc_mb_per_verdict", allocated/(1<<20)/verdicts, "MB")
	res.add("setup_s", median(setups), "s")
	return nil
}

// closedLoop runs n clients, each taking its next request from next
// only once its previous one completed, until next says the loop is
// over. It returns the merged client logs once every client is done.
func closedLoop(n int, next func(elapsed time.Duration) (request, bool)) clientLog {
	var mu sync.Mutex
	logs := make([]clientLog, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			for {
				mu.Lock()
				req, ok := next(time.Since(start))
				mu.Unlock()
				if !ok {
					return
				}
				req(l)
			}
		}(&logs[c])
	}
	wg.Wait()
	var all clientLog
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

// peakRSSMB is the process's peak resident set size (VmHWM), in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
