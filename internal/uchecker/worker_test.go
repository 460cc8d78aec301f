package uchecker

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/scanjournal"
	"repro/internal/shardcoord"
)

// simTargets builds the registry-sim corpus: n deterministic generated
// plugins, every 5th with a planted unrestricted upload.
func simTargets(n int) []Target {
	apps := corpus.RandomPlugins(7, n, 5)
	targets := make([]Target, len(apps))
	for i, a := range apps {
		targets[i] = Target{Name: a.Name, Sources: a.Sources}
	}
	return targets
}

func simOpts(workers int) Options {
	return Options{Workers: workers, Budgets: Budgets{MaxPaths: 20000}}
}

// simWorkerOpts are the fast-heartbeat settings of the in-process fleet:
// renew every 10ms, presume death after a 60ms unchanged observation.
func simWorkerOpts(dir, id string, shardSize int) WorkerOptions {
	return WorkerOptions{
		CoordDir:           dir,
		WorkerID:           id,
		ShardSize:          shardSize,
		RenewInterval:      10 * time.Millisecond,
		LeaseCheckInterval: 60 * time.Millisecond,
	}
}

// baselineMerged is the uninterrupted single-process sweep's canonical
// merged bytes — the byte-identity oracle for every fleet scenario.
func baselineMerged(t *testing.T, targets []Target, opts Options) []byte {
	t.Helper()
	s := NewScanner(opts)
	reports, _, err := s.ScanBatchJournaled(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MergedBaseline(reports)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runFleet runs workers concurrently against one coordination directory.
// hooks[i] (may be nil) is worker i's fault hook; a worker returning an
// injected error modls kill -9 — no cleanup ran. Returns per-worker
// stats and errors.
func runFleet(t *testing.T, targets []Target, opts Options, dir string, shardSize int, hooks []faultinject.Hook) ([]*WorkerStats, []error) {
	t.Helper()
	stats := make([]*WorkerStats, len(hooks))
	errs := make([]error, len(hooks))
	var wg sync.WaitGroup
	for i, hook := range hooks {
		wg.Add(1)
		go func(i int, hook faultinject.Hook) {
			defer wg.Done()
			o := opts
			o.FaultHook = hook
			s := NewScanner(o)
			stats[i], errs[i] = s.RunWorker(context.Background(),
				targets, simWorkerOpts(dir, fmt.Sprintf("w%d", i), shardSize))
		}(i, hook)
	}
	wg.Wait()
	return stats, errs
}

// finishFleet runs one clean worker to completion — the "restart after
// the crash" step that drains any shards a killed worker left behind
// and guarantees the merged report exists.
func finishFleet(t *testing.T, targets []Target, opts Options, dir string, shardSize int) *WorkerStats {
	t.Helper()
	s := NewScanner(opts)
	st, err := s.RunWorker(context.Background(), targets, simWorkerOpts(dir, "finisher", shardSize))
	if err != nil {
		t.Fatalf("finisher worker: %v", err)
	}
	return st
}

func readMerged(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, shardcoord.MergedFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerFleetMergesIdentical: the happy path — 4 workers, no
// faults, merged report byte-identical to the single-process baseline.
func TestWorkerFleetMergesIdentical(t *testing.T) {
	targets := simTargets(20)
	opts := simOpts(2)
	want := baselineMerged(t, targets, opts)

	dir := filepath.Join(t.TempDir(), "coord")
	stats, errs := runFleet(t, targets, opts, dir, 3, make([]faultinject.Hook, 4))
	merged := ""
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if stats[i].MergedPath != "" {
			merged = stats[i].MergedPath
		}
	}
	if merged == "" {
		t.Fatal("no worker folded the merged report")
	}
	if got := readMerged(t, dir); !bytes.Equal(got, want) {
		t.Error("fleet merge differs from single-process baseline")
	}
	// The work was actually distributed: with 7 shards and 4 workers
	// racing fast heartbeats, at least two workers must have published.
	publishers := 0
	for _, st := range stats {
		if st.ShardsScanned > 0 {
			publishers++
		}
	}
	if publishers < 2 {
		t.Errorf("only %d worker(s) published shards", publishers)
	}
}

// TestRegistrySimCrashMatrix is the distributed kill-matrix acceptance:
// 4 workers over a 40-target corpus; one worker is killed (persistent
// injected fault — no cleanup, no release, exactly kill -9) at every
// lease/journal boundary type and at several occurrence counts; the
// fleet reclaims its leases and a restarted worker completes the sweep.
// Every scenario's merged report must be byte-identical to the
// uninterrupted single-process baseline.
func TestRegistrySimCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-sim matrix is long; run via make registry-sim")
	}
	targets := simTargets(40)
	opts := simOpts(2)
	want := baselineMerged(t, targets, opts)

	points := []faultinject.Point{
		faultinject.LeaseClaim,
		faultinject.LeaseRenew,
		faultinject.ShardPublish,
		faultinject.JournalWrite,
		faultinject.CoordFold,
		faultinject.AtomicRename,
	}
	kills := 0
	for _, point := range points {
		for _, n := range []int{0, 2} {
			name := fmt.Sprintf("%s/after-%d", point, n)
			t.Run(name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "coord")
				hooks := make([]faultinject.Hook, 4)
				hooks[0] = faultinject.FailAfter(point, "", n)
				stats, errs := runFleet(t, targets, opts, dir, 4, hooks)
				for i := 1; i < 4; i++ {
					if errs[i] != nil {
						t.Fatalf("surviving worker %d: %v", i, errs[i])
					}
				}
				if errs[0] != nil {
					kills++
				} else if stats[0] == nil {
					t.Fatal("victim returned no stats")
				}
				// Restart: a clean worker drains whatever the victim held
				// and guarantees the fold ran.
				finishFleet(t, targets, opts, dir, 4)
				if got := readMerged(t, dir); !bytes.Equal(got, want) {
					t.Error("resumed merge differs from uninterrupted baseline")
				}
			})
		}
	}
	if kills == 0 {
		t.Error("no matrix scenario actually killed the victim worker")
	}
	// Archive the last merged report when the harness asks for it.
	if out := os.Getenv("REGISTRY_SIM_OUT"); out != "" {
		dir := filepath.Join(t.TempDir(), "coord")
		runFleet(t, targets, opts, dir, 4, make([]faultinject.Hook, 4))
		finishFleet(t, targets, opts, dir, 4)
		if err := os.WriteFile(out, readMerged(t, dir), 0o644); err != nil {
			t.Errorf("archive merged report: %v", err)
		}
	}
}

// TestWorkerZombieFencedEndToEnd: the paused-then-resumed zombie
// acceptance. Worker A claims a shard and never heartbeats (its renew
// interval is an hour); it pauses at the publish boundary long enough
// for worker B to observe the lease stale and reclaim. A's resumed
// publish must be fenced — and the merged report must be byte-identical
// to the baseline, proving the zombie's stale work never leaked in.
func TestWorkerZombieFencedEndToEnd(t *testing.T) {
	targets := simTargets(8)
	opts := simOpts(1)
	want := baselineMerged(t, targets, opts)
	dir := filepath.Join(t.TempDir(), "coord")

	var wg sync.WaitGroup
	var zombieStats, survivorStats *WorkerStats
	var zombieErr, survivorErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		o := opts
		// Pause the zombie at every publish attempt: long enough for the
		// survivor's 60ms observation window to expire and reclaim.
		o.FaultHook = faultinject.SleepOn(faultinject.ShardPublish, "", 400*time.Millisecond)
		s := NewScanner(o)
		wo := simWorkerOpts(dir, "zombie", 4)
		wo.RenewInterval = time.Hour // no heartbeats, ever
		zombieStats, zombieErr = s.RunWorker(context.Background(), targets, wo)
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // let the zombie claim first
		s := NewScanner(opts)
		survivorStats, survivorErr = s.RunWorker(context.Background(), targets, simWorkerOpts(dir, "survivor", 4))
	}()
	wg.Wait()

	if zombieErr != nil {
		t.Fatalf("zombie: %v", zombieErr)
	}
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}
	if zombieStats.Fenced == 0 {
		t.Error("zombie was never fenced — the stale publish went through")
	}
	if survivorStats.ShardsReclaimed == 0 {
		t.Error("survivor reclaimed nothing")
	}
	if got := readMerged(t, dir); !bytes.Equal(got, want) {
		t.Error("zombie scenario merge differs from baseline")
	}
}

// TestWorkerHeartbeatJoinOnJournalCrash asserts the lease-heartbeat
// goroutine does not outlive RunWorker when the shard scan aborts on a
// journal-append failure: the crash-semantics return path must still
// join the heartbeat (close hbStop, wait) before returning, or a renew
// tick could race the caller's teardown of the coordination directory.
// The goroutine count is sampled before and after with a settle loop, so
// the assertion is a leak check, not a scheduling race.
func TestWorkerHeartbeatJoinOnJournalCrash(t *testing.T) {
	targets := simTargets(6)
	opts := simOpts(1)
	dir := filepath.Join(t.TempDir(), "coord")

	before := runtime.NumGoroutine()

	o := opts
	// Fail the very first shard-journal append: the sub-scan aborts with
	// crash semantics while the heartbeat ticker is live.
	o.FaultHook = faultinject.FailAfter(faultinject.JournalWrite, "", 0)
	s := NewScanner(o)
	_, err := s.RunWorker(context.Background(), targets, simWorkerOpts(dir, "victim", 3))
	if err == nil {
		t.Fatal("want the injected journal-append failure to surface, got nil")
	}

	// The heartbeat must already be joined when RunWorker returns: no
	// goroutine may still be executing RunWorker frames. The tiny settle
	// window only absorbs a goroutine's post-Done wind-down, not a missed
	// join (an unjoined heartbeat would sit in its ticker select).
	workerFrames := func() string {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		if strings.Contains(buf.String(), "RunWorker") {
			return buf.String()
		}
		return ""
	}
	var stacks string
	for i := 0; i < 10; i++ {
		if stacks = workerFrames(); stacks == "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stacks != "" {
		t.Errorf("heartbeat goroutine outlived RunWorker's crash return:\n%s", stacks)
	}

	// And the total goroutine count returns to its pre-call level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		t.Errorf("goroutines leaked across RunWorker crash: before=%d after=%d\n%s",
			before, after, buf.String())
	}
}

// TestBatchDrainSemantics is the satellite graceful-drain table: drain
// fires mid-batch (from a journal-write boundary hook); every finished
// target must be journaled, unstarted targets must get FailCancelled
// schedule reports with nothing journaled, and the journal must stay
// compactable and resumable — at Workers=1 and Workers=4.
func TestBatchDrainSemantics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			targets := simTargets(12)
			dir := t.TempDir()
			journal := filepath.Join(dir, "scan.journal")

			drain := make(chan struct{})
			var once sync.Once
			opts := simOpts(workers)
			opts.Journal = journal
			opts.Drain = drain
			// Close the drain signal at the 3rd finish-record boundary:
			// some targets are done, some in flight, some unstarted.
			var finishes int
			var mu sync.Mutex
			opts.FaultHook = func(p faultinject.Point, detail string) error {
				if p == faultinject.JournalWrite && strings.HasPrefix(detail, scanjournal.TypeFinish+":") {
					mu.Lock()
					finishes++
					hit := finishes == 3
					mu.Unlock()
					if hit {
						once.Do(func() { close(drain) })
					}
				}
				return nil
			}
			s := NewScanner(opts)
			reports, _, err := s.ScanBatchJournaled(context.Background(), targets)
			if err != nil {
				t.Fatalf("drain must not be an error: %v", err)
			}

			cancelled, finished := 0, 0
			for i, rep := range reports {
				if rep == nil {
					t.Fatalf("slot %d nil", i)
				}
				if isDrainCancelled(rep) {
					cancelled++
				} else {
					finished++
				}
			}
			if cancelled == 0 {
				t.Fatal("drain cancelled nothing — the signal fired too late")
			}
			if finished < 3 {
				t.Fatalf("only %d finished, want >= 3 (the boundary that triggered drain)", finished)
			}

			// Journal: exactly the finished targets have finish records;
			// fold is clean (compactable — no dangling starts, since drain
			// lets in-flight targets complete).
			rec, err := scanjournal.Read(journal)
			if err != nil {
				t.Fatal(err)
			}
			rp := scanjournal.Fold(rec)
			if rp.Corrupt != nil {
				t.Fatalf("drained journal not compactable: %v", rp.Corrupt)
			}
			if len(rp.Finished) != finished {
				t.Errorf("journaled finishes = %d, want %d", len(rp.Finished), finished)
			}
			for i, rep := range reports {
				_, journaled := rp.Finished[scanjournal.TargetKey(i, targets[i].Name)]
				if isDrainCancelled(rep) && journaled {
					t.Errorf("drain-cancelled target %d was journaled", i)
				}
				if !isDrainCancelled(rep) && !journaled {
					t.Errorf("finished target %d missing from journal", i)
				}
			}

			// Resume completes the remainder and the union is the full
			// uninterrupted result.
			resume := simOpts(workers)
			resume.Journal = journal
			resume.ResumeFrom = journal
			reports2, bs2, err := NewScanner(resume).ScanBatchJournaled(context.Background(), targets)
			if err != nil {
				t.Fatal(err)
			}
			if bs2.Replayed != finished {
				t.Errorf("resume replayed %d, want %d", bs2.Replayed, finished)
			}
			want := baselineMerged(t, targets, simOpts(workers))
			got, err := MergedBaseline(reports2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("drained+resumed merge differs from uninterrupted run")
			}
		})
	}
}

// TestBatchCancelSemantics: hard ctx cancellation mid-batch — unstarted
// targets get FailCancelled, in-flight targets are NOT journaled (their
// start records dangle), and the journal still folds clean for resume.
func TestBatchCancelSemantics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			targets := simTargets(12)
			journal := filepath.Join(t.TempDir(), "scan.journal")
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			opts := simOpts(workers)
			opts.Journal = journal
			opts.FaultHook = func(p faultinject.Point, detail string) error {
				if p == faultinject.JournalWrite && strings.HasPrefix(detail, scanjournal.TypeFinish+":") {
					once.Do(cancel)
				}
				return nil
			}
			reports, _, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			cancelled := 0
			for i, rep := range reports {
				if rep == nil {
					t.Fatalf("slot %d nil", i)
				}
				for _, f := range rep.Failures {
					if f.Class == FailCancelled {
						cancelled++
						break
					}
				}
			}
			if cancelled == 0 {
				t.Error("cancellation produced no FailCancelled reports")
			}
			rec, err := scanjournal.Read(journal)
			if err != nil {
				t.Fatal(err)
			}
			if rp := scanjournal.Fold(rec); rp.Corrupt != nil {
				t.Errorf("cancelled journal not resumable: %v", rp.Corrupt)
			}
		})
	}
}

// TestWorkerDrainReleasesLease: fleet-level drain — a draining worker
// journals its finished targets, releases its lease (shard back to
// Free), and the next worker resumes the shard from its journal.
func TestWorkerDrainReleasesLease(t *testing.T) {
	targets := simTargets(8)
	opts := simOpts(1)
	want := baselineMerged(t, targets, opts)
	dir := filepath.Join(t.TempDir(), "coord")

	drain := make(chan struct{})
	var once sync.Once
	o := opts
	// Drain at the second finish boundary: mid-shard, some work done.
	var finishes int
	var mu sync.Mutex
	o.FaultHook = func(p faultinject.Point, detail string) error {
		if p == faultinject.JournalWrite && strings.HasPrefix(detail, scanjournal.TypeFinish+":") {
			mu.Lock()
			finishes++
			hit := finishes == 2
			mu.Unlock()
			if hit {
				once.Do(func() { close(drain) })
			}
		}
		return nil
	}
	s := NewScanner(o)
	wo := simWorkerOpts(dir, "drainer", 8) // one shard holds everything
	wo.Drain = drain
	st, err := s.RunWorker(context.Background(), targets, wo)
	if err != nil {
		t.Fatalf("drain must not be an error: %v", err)
	}
	if !st.Drained {
		t.Fatal("worker did not report drain")
	}
	if st.ShardsScanned != 0 {
		t.Fatalf("drained worker published %d shards", st.ShardsScanned)
	}

	// The lease is back to Free — with work journaled under token 1.
	c, err := shardcoord.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := view.Shards[0]; got.State != shardcoord.Free || got.Token != 1 {
		t.Fatalf("shard after drain: %+v, want Free at token 1", got)
	}

	// A fresh worker resumes the shard and replays the drained work.
	fin := finishFleet(t, targets, opts, dir, 8)
	if fin.ShardsScanned != 1 {
		t.Fatalf("finisher published %d shards", fin.ShardsScanned)
	}
	if got := readMerged(t, dir); !bytes.Equal(got, want) {
		t.Error("drained+resumed fleet merge differs from baseline")
	}
}

// TestSubprocessWorkerHelper is not a test: it is the body of a real
// worker process for TestSubprocessKillNine, entered via the re-exec
// idiom when UCHECKER_SIM_COORD is set. It slows each root slightly so
// the parent can SIGKILL it mid-shard.
func TestSubprocessWorkerHelper(t *testing.T) {
	dir := os.Getenv("UCHECKER_SIM_COORD")
	if dir == "" {
		t.Skip("re-exec helper, not a test")
	}
	opts := simOpts(1)
	opts.FaultHook = faultinject.SleepOn(faultinject.RootStart, "", 3*time.Millisecond)
	s := NewScanner(opts)
	wo := simWorkerOpts(dir, os.Getenv("UCHECKER_SIM_WORKER"), 4)
	if _, err := s.RunWorker(context.Background(), simTargets(24), wo); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(3)
	}
	os.Exit(0)
}

// TestSubprocessKillNine is the real-process half of the registry sim:
// three OS processes coordinate over one directory, one is SIGKILL'd
// mid-shard (a genuine kill -9 — the kernel drops its flock, its lease
// goes stale), the survivors reclaim and finish, and the merged report
// is byte-identical to the single-process baseline.
func TestSubprocessKillNine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	targets := simTargets(24)
	opts := simOpts(1)
	want := baselineMerged(t, targets, opts)
	dir := filepath.Join(t.TempDir(), "coord")

	procs := make([]*exec.Cmd, 3)
	for i := range procs {
		cmd := exec.Command(os.Args[0], "-test.run=TestSubprocessWorkerHelper$")
		cmd.Env = append(os.Environ(),
			"UCHECKER_SIM_COORD="+dir,
			fmt.Sprintf("UCHECKER_SIM_WORKER=sub%d", i))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
	}
	time.Sleep(120 * time.Millisecond)
	// kill -9: no drain, no release, no deferred cleanup of any kind.
	if err := procs[0].Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	procs[0].Wait()
	for i := 1; i < 3; i++ {
		if err := procs[i].Wait(); err != nil {
			t.Fatalf("surviving worker %d: %v", i, err)
		}
	}
	// A restarted worker drains anything the victim still held.
	finishFleet(t, targets, opts, dir, 4)
	if got := readMerged(t, dir); !bytes.Equal(got, want) {
		t.Error("kill -9 merge differs from single-process baseline")
	}
}

func isDrainCancelled(rep *AppReport) bool {
	for _, f := range rep.Failures {
		if f.Class == FailCancelled && f.Stage == StageSchedule {
			return true
		}
	}
	return false
}
