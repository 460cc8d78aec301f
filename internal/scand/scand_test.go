package scand

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

// simApps returns a deterministic corpus slice: every 5th app carries a
// planted unrestricted upload, the rest are benign upload plugins.
func simApps(n int) []corpus.ScreeningApp {
	return corpus.RandomPlugins(7, n, 5)
}

// vulnApps returns apps that are all planted-vulnerable — guaranteed to
// have symbolic-execution roots, which the gate-based tests rely on
// (the gate blocks scans at the RootStart seam).
func vulnApps(n int) []corpus.ScreeningApp {
	return corpus.RandomPlugins(11, n, 1)
}

func testConfig(dir string, scanWorkers int) Config {
	return Config{
		Dir:         dir,
		Scan:        uchecker.Options{Workers: 2, Budgets: uchecker.Budgets{MaxPaths: 20000}},
		ScanWorkers: scanWorkers,
	}
}

func mustOpen(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func submitAll(t *testing.T, d *Daemon, tenant string, apps []corpus.ScreeningApp) []string {
	t.Helper()
	ids := make([]string, 0, len(apps))
	for _, app := range apps {
		job, err := d.Submit(tenant, app.Name, app.Sources)
		if err != nil {
			t.Fatalf("submit %s: %v", app.Name, err)
		}
		ids = append(ids, job.ID)
	}
	return ids
}

// waitTerminal polls until every listed job is terminal (or the daemon
// goes fatal with fatalOK set), returning the final snapshots.
func waitTerminal(t *testing.T, d *Daemon, ids []string, timeout time.Duration, fatalOK bool) map[string]Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		out := map[string]Job{}
		done := true
		for _, id := range ids {
			j, err := d.Get(id)
			if err != nil {
				t.Fatalf("get %s: %v", id, err)
			}
			out[id] = j
			if !j.State.Terminal() {
				done = false
			}
		}
		if done {
			return out
		}
		if fatalOK && d.Fatal() != nil {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not terminal after %v: %+v", timeout, out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls one job until it reaches the wanted state.
func waitState(t *testing.T, d *Daemon, id string, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := d.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if j.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// counter reads one metric from the registry snapshot.
func counter(reg *obs.Registry, labels map[string]string, key string) int64 {
	for _, s := range reg.Snapshot() {
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Metrics[key]
		}
	}
	return 0
}

// scanGate blocks every scan at its first RootStart until released, so
// tests can pin jobs in the Running state deterministically.
type scanGate struct {
	ch   chan struct{}
	once sync.Once
}

func newScanGate() *scanGate { return &scanGate{ch: make(chan struct{})} }

func (g *scanGate) hook(p faultinject.Point, detail string) error {
	if p == faultinject.RootStart {
		<-g.ch
	}
	return nil
}

func (g *scanGate) release() { g.once.Do(func() { close(g.ch) }) }

func TestDaemonLifecycleAndRestart(t *testing.T) {
	dir := t.TempDir()
	apps := simApps(5)
	cfg := testConfig(dir, 2)
	d := mustOpen(t, cfg)
	ids := submitAll(t, d, "acme", apps)
	jobs := waitTerminal(t, d, ids, 60*time.Second, false)

	results := map[string]json.RawMessage{}
	vulnerable := 0
	for i, id := range ids {
		j := jobs[id]
		if j.State != JobFinished {
			t.Fatalf("job %s (%s) state = %s (%s)", id, j.Name, j.State, j.Error)
		}
		raw, err := d.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var rep uchecker.AppReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("result %s does not parse: %v", id, err)
		}
		if rep.Name != apps[i].Name {
			t.Fatalf("result name = %q, want %q", rep.Name, apps[i].Name)
		}
		if rep.Seconds != 0 || rep.MemoryMB != 0 {
			t.Fatalf("report of %s not canonicalized: Seconds=%v MemoryMB=%v", id, rep.Seconds, rep.MemoryMB)
		}
		if rep.Vulnerable {
			vulnerable++
		}
		results[id] = raw
	}
	if vulnerable == 0 {
		t.Fatal("planted app not detected — scans did not really run")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Restart: every terminal job is served from the journal without
	// re-scanning, byte-identically.
	d2 := mustOpen(t, cfg)
	defer d2.Close()
	if got := counter(d2.Registry(), daemonLabels, "jobs_requeued_total"); got != 0 {
		t.Fatalf("restart re-enqueued %d terminal jobs", got)
	}
	for _, id := range ids {
		j, err := d2.Get(id)
		if err != nil || j.State != JobFinished {
			t.Fatalf("restarted job %s: state=%v err=%v", id, j.State, err)
		}
		raw, err := d2.Result(id)
		if err != nil {
			t.Fatalf("restarted result %s: %v", id, err)
		}
		if string(raw) != string(results[id]) {
			t.Fatalf("restarted result of %s differs from pre-restart bytes", id)
		}
	}
	// Submitting the same sources again is served by the result cache —
	// no second scan of identical content under an identical fingerprint.
	job, err := d2.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	waitTerminal(t, d2, []string{job.ID}, 30*time.Second, false)
	raw, err := d2.Result(job.ID)
	if err != nil {
		t.Fatalf("resubmit result: %v", err)
	}
	if string(raw) != string(results[ids[0]]) {
		t.Fatal("cache-served resubmit differs from original result")
	}
	if got := counter(d2.Registry(), daemonLabels, "cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %d, want 1", got)
	}
}

// TestDaemonCacheKeyIncludesName: identical sources submitted under two
// different names must NOT share a content address — the canonical
// report embeds the name, so a shared key would serve the first
// submitter's report (wrong Name) to the second.
func TestDaemonCacheKeyIncludesName(t *testing.T) {
	app := vulnApps(1)[0]
	d := mustOpen(t, testConfig(t.TempDir(), 2))
	defer d.Close()

	first, err := d.Submit("acme", app.Name, app.Sources)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	renamed, err := d.Submit("acme", app.Name+"-renamed", app.Sources)
	if err != nil {
		t.Fatalf("submit renamed: %v", err)
	}
	if first.Key == renamed.Key {
		t.Fatal("identical sources under different names share a cache key")
	}
	waitTerminal(t, d, []string{first.ID, renamed.ID}, 60*time.Second, false)
	for id, want := range map[string]string{first.ID: app.Name, renamed.ID: app.Name + "-renamed"} {
		raw, err := d.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var rep uchecker.AppReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("result %s does not parse: %v", id, err)
		}
		if rep.Name != want {
			t.Fatalf("report of %s carries name %q, want %q", id, rep.Name, want)
		}
	}
	if got := counter(d.Registry(), daemonLabels, "cache_hits_total"); got != 0 {
		t.Fatalf("cache_hits_total = %d, want 0 (distinct names are distinct addresses)", got)
	}
}

func TestDaemonFingerprintChangeReKeysPendingJobs(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(2)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	ids := submitAll(t, d, "acme", apps)
	waitState(t, d, ids[0], JobRunning, 10*time.Second)
	oldKey, _ := d.Get(ids[1])
	// Hard stop with ids[0] mid-scan and ids[1] queued. Close marks the
	// stop before waiting for the worker, so releasing the gate after
	// starting it lets the blocked scan unwind into the discard path.
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	time.Sleep(10 * time.Millisecond)
	gate.release()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen with a different path budget: new fingerprint, pending jobs
	// re-keyed so the old cache entries cannot serve stale reports.
	cfg2 := testConfig(dir, 1)
	cfg2.Scan.Budgets.MaxPaths = 19999
	d2 := mustOpen(t, cfg2)
	defer d2.Close()
	if d2.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint did not change with the budget")
	}
	j1, err := d2.Get(ids[1])
	if err != nil {
		t.Fatalf("get requeued job: %v", err)
	}
	if j1.Key == oldKey.Key {
		t.Fatal("pending job kept its stale cache key across an options change")
	}
	jobs := waitTerminal(t, d2, ids, 60*time.Second, false)
	for _, id := range ids {
		if jobs[id].State != JobFinished {
			t.Fatalf("job %s = %s (%s)", id, jobs[id].State, jobs[id].Error)
		}
	}
}

func TestDaemonQueueShedWhileOtherTenantCompletes(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(6)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	cfg.Tenants = map[string]TenantPolicy{
		"greedy": {MaxQueue: 2},
		"modest": {MaxQueue: 10},
	}
	d := mustOpen(t, cfg)
	defer d.Close()

	// greedy's first job occupies the only scan worker (blocked at the
	// gate); its next two fill the queue bound.
	first, err := d.Submit("greedy", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, d, first.ID, JobRunning, 10*time.Second)
	var kept []string
	kept = append(kept, first.ID)
	for _, app := range apps[1:3] {
		job, err := d.Submit("greedy", app.Name, app.Sources)
		if err != nil {
			t.Fatalf("submit %s: %v", app.Name, err)
		}
		kept = append(kept, job.ID)
	}

	// The 4th greedy submit is shed with a deterministic Retry-After;
	// the overload never consumes scan work.
	var shed *ShedError
	_, err = d.Submit("greedy", apps[3].Name, apps[3].Sources)
	if !errors.As(err, &shed) {
		t.Fatalf("overloaded submit returned %v, want *ShedError", err)
	}
	if shed.Reason != "queue" || shed.Tenant != "greedy" {
		t.Fatalf("shed = %+v", shed)
	}
	if want := retryBackoff("queue:greedy", 0); shed.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want deterministic %v", shed.RetryAfter, want)
	}
	// A second consecutive shed advances the backoff schedule.
	_, err = d.Submit("greedy", apps[3].Name, apps[3].Sources)
	if !errors.As(err, &shed) {
		t.Fatalf("second overloaded submit returned %v", err)
	}
	if want := retryBackoff("queue:greedy", 1); shed.RetryAfter != want {
		t.Fatalf("second RetryAfter = %v, want %v", shed.RetryAfter, want)
	}

	// The modest tenant is not punished for greedy's overload: its
	// submits are admitted while greedy is shedding...
	modest := submitAll(t, d, "modest", apps[4:6])
	if got := counter(d.Registry(), tenantLabels("greedy"), "shed_total"); got != 2 {
		t.Fatalf("greedy shed_total = %d, want 2", got)
	}
	if got := counter(d.Registry(), tenantLabels("modest"), "shed_total"); got != 0 {
		t.Fatalf("modest shed_total = %d, want 0", got)
	}

	// ...and complete once the worker is released.
	gate.release()
	all := waitTerminal(t, d, append(kept, modest...), 120*time.Second, false)
	for id, j := range all {
		if j.State != JobFinished {
			t.Fatalf("job %s = %s (%s)", id, j.State, j.Error)
		}
	}
	// greedy's streak reset on its next accepted submit.
	if _, err := d.Submit("greedy", apps[3].Name, apps[3].Sources); err != nil {
		t.Fatalf("post-release greedy submit: %v", err)
	}
	d.mu.Lock()
	streak := d.shedStreak["greedy"]
	d.mu.Unlock()
	if streak != 0 {
		t.Fatalf("shed streak = %d after accepted submit, want 0", streak)
	}
}

func TestDaemonRateShedWithPinnedClock(t *testing.T) {
	dir := t.TempDir()
	apps := simApps(3)
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	cfg := testConfig(dir, 1)
	cfg.Clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	cfg.Tenants = map[string]TenantPolicy{"rho": {RatePerSec: 1, Burst: 1}}
	d := mustOpen(t, cfg)
	defer d.Close()

	first, err := d.Submit("rho", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatalf("burst submit: %v", err)
	}
	var shed *ShedError
	_, err = d.Submit("rho", apps[1].Name, apps[1].Sources)
	if !errors.As(err, &shed) {
		t.Fatalf("rate-limited submit returned %v", err)
	}
	if shed.Reason != "rate" {
		t.Fatalf("reason = %q", shed.Reason)
	}
	// The hint is exactly the bucket's refill time (1 token at 1/s from a
	// pinned clock) plus the deterministic jitter schedule.
	if want := time.Second + retryBackoff("rate:rho", 0); shed.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want %v", shed.RetryAfter, want)
	}
	_, err = d.Submit("rho", apps[1].Name, apps[1].Sources)
	if !errors.As(err, &shed) {
		t.Fatalf("second rate-limited submit returned %v", err)
	}
	if want := time.Second + retryBackoff("rate:rho", 1); shed.RetryAfter != want {
		t.Fatalf("second RetryAfter = %v, want %v", shed.RetryAfter, want)
	}

	// Advance the clock past the refill: admitted again.
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	second, err := d.Submit("rho", apps[2].Name, apps[2].Sources)
	if err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
	waitTerminal(t, d, []string{first.ID, second.ID}, 60*time.Second, false)
}

func TestDaemonCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(2)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	defer d.Close()
	running, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, running.ID, JobRunning, 10*time.Second)
	queued, err := d.Submit("acme", apps[1].Name, apps[1].Sources)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	j, _ := d.Get(queued.ID)
	if j.State != JobCancelled {
		t.Fatalf("queued job state = %s after cancel", j.State)
	}
	if err := d.Cancel(queued.ID); !errors.Is(err, ErrJobTerminal) {
		t.Fatalf("double cancel = %v, want ErrJobTerminal", err)
	}
	if _, err := d.Result(queued.ID); err == nil {
		t.Fatal("cancelled job served a result")
	}
	gate.release()
	jobs := waitTerminal(t, d, []string{running.ID}, 60*time.Second, false)
	if jobs[running.ID].State != JobFinished {
		t.Fatalf("running job = %s", jobs[running.ID].State)
	}
	// The journal carries the cancel as a first-class terminal record.
	rec, err := scanjournal.Read(d.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	rp := FoldJobs(rec)
	if rp.Corrupt != nil {
		t.Fatalf("journal corrupt: %+v", rp.Corrupt)
	}
	if rp.Jobs[queued.ID].State != JobCancelled {
		t.Fatalf("journaled state = %s", rp.Jobs[queued.ID].State)
	}
}

// TestDaemonTerminalJobsDropSources checks that a finished job and a
// cancelled queued job no longer pin their sources in memory: a
// long-running daemon would otherwise hold every job's source map.
func TestDaemonTerminalJobsDropSources(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(2)
	gate := newScanGate()
	defer gate.release()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	defer d.Close()
	running, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, running.ID, JobRunning, 10*time.Second)
	queued, err := d.Submit("acme", apps[1].Name, apps[1].Sources)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := d.Get(queued.ID); j.sources == nil {
		t.Fatal("queued job lost its sources before running")
	}
	if err := d.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if j, _ := d.Get(queued.ID); j.State != JobCancelled || j.sources != nil {
		t.Fatalf("cancelled queued job: state=%s, sources kept=%v", j.State, j.sources != nil)
	}
	gate.release()
	jobs := waitTerminal(t, d, []string{running.ID}, 60*time.Second, false)
	if j := jobs[running.ID]; j.State != JobFinished || j.sources != nil {
		t.Fatalf("finished job: state=%s, sources kept=%v", j.State, j.sources != nil)
	}
}

func TestDaemonCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(1)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	defer d.Close()
	job, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, job.ID, JobRunning, 10*time.Second)
	if err := d.Cancel(job.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	gate.release() // let the scan observe its cancelled context
	waitTerminal(t, d, []string{job.ID}, 60*time.Second, false)
	j, _ := d.Get(job.ID)
	if j.State != JobCancelled {
		t.Fatalf("state = %s (%s), want cancelled", j.State, j.Error)
	}
	if got := counter(d.Registry(), daemonLabels, "jobs_cancelled_total"); got != 1 {
		t.Fatalf("jobs_cancelled_total = %d", got)
	}
}

func TestDaemonWatchdogFailsWedgedScan(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(1)
	gate := newScanGate() // never released until cleanup: the scan ignores cancellation
	defer gate.release()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	cfg.JobTimeout = 50 * time.Millisecond
	cfg.WatchdogGrace = 100 * time.Millisecond
	d := mustOpen(t, cfg)
	defer d.Close()
	job, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	jobs := waitTerminal(t, d, []string{job.ID}, 30*time.Second, false)
	j := jobs[job.ID]
	if j.State != JobFailed {
		t.Fatalf("state = %s, want failed", j.State)
	}
	if !strings.Contains(j.Error, "watchdog") {
		t.Fatalf("error = %q, want watchdog", j.Error)
	}
	if j.sources != nil {
		t.Fatal("failed job kept its sources")
	}
	if got := counter(d.Registry(), daemonLabels, "watchdog_fired_total"); got != 1 {
		t.Fatalf("watchdog_fired_total = %d", got)
	}
}

func TestDaemonJobTimeoutFailsTyped(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(1)
	cfg := testConfig(dir, 1)
	// A scan that honors cancellation: slow every root a bit so the
	// deadline lapses mid-scan, then let ctx cancellation propagate.
	cfg.Scan.FaultHook = faultinject.SleepOn(faultinject.RootStart, "", 30*time.Millisecond)
	cfg.JobTimeout = 10 * time.Millisecond
	cfg.WatchdogGrace = 30 * time.Second // watchdog out of the picture
	d := mustOpen(t, cfg)
	defer d.Close()
	job, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	jobs := waitTerminal(t, d, []string{job.ID}, 60*time.Second, false)
	j := jobs[job.ID]
	if j.State != JobFailed || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("job = %s (%q), want deadline failure", j.State, j.Error)
	}
}

func TestDaemonDrainFinishesInFlightKeepsQueued(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(3)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	inflight, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, inflight.ID, JobRunning, 10*time.Second)
	queued := submitAll(t, d, "acme", apps[1:])

	drained := make(chan error, 1)
	go func() { drained <- d.Drain() }()
	// Once the drain flag is up, new submits are rejected typed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		dr := d.draining
		d.mu.Unlock()
		if dr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never raised")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := d.Submit("acme", "late", apps[0].Sources); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}
	gate.release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, _ := d.Get(inflight.ID)
	if j.State != JobFinished {
		t.Fatalf("in-flight job after drain = %s (%s), want finished", j.State, j.Error)
	}
	for _, id := range queued {
		if q, _ := d.Get(id); q.State != JobSubmitted {
			t.Fatalf("queued job %s after drain = %s, want submitted", id, q.State)
		}
	}

	// PR-7 semantics: the restarted daemon re-enqueues exactly the queued
	// jobs and runs them to completion.
	d2 := mustOpen(t, testConfig(dir, 2))
	defer d2.Close()
	if got := counter(d2.Registry(), daemonLabels, "jobs_requeued_total"); got != int64(len(queued)) {
		t.Fatalf("jobs_requeued_total = %d, want %d", got, len(queued))
	}
	jobs := waitTerminal(t, d2, append([]string{inflight.ID}, queued...), 120*time.Second, false)
	for id, j := range jobs {
		if j.State != JobFinished {
			t.Fatalf("job %s after restart = %s (%s)", id, j.State, j.Error)
		}
	}
}

func TestDaemonLostSpoolFailsTyped(t *testing.T) {
	dir := t.TempDir()
	apps := vulnApps(2)
	gate := newScanGate()
	cfg := testConfig(dir, 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	running, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, running.ID, JobRunning, 10*time.Second)
	queued, err := d.Submit("acme", apps[1].Name, apps[1].Sources)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	time.Sleep(10 * time.Millisecond)
	gate.release()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Remove(d.spoolPath(queued.ID)); err != nil {
		t.Fatalf("remove spool: %v", err)
	}

	d2 := mustOpen(t, testConfig(dir, 1))
	defer d2.Close()
	j, err := d2.Get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobFailed || !strings.Contains(j.Error, "spool lost") {
		t.Fatalf("job = %s (%q), want typed spool-lost failure", j.State, j.Error)
	}
	// The failure is durable: yet another restart folds it back.
	d2.Close()
	d3 := mustOpen(t, testConfig(dir, 1))
	defer d3.Close()
	if j3, _ := d3.Get(queued.ID); j3.State != JobFailed {
		t.Fatalf("spool-lost failure not durable: %s", j3.State)
	}
}

func TestDaemonFaultSeams(t *testing.T) {
	apps := simApps(1)
	t.Run("JobAccept rejects before persistence", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir, 1)
		cfg.FaultHook = faultinject.FailAfter(faultinject.JobAccept, "", 0)
		d := mustOpen(t, cfg)
		defer d.Close()
		if _, err := d.Submit("acme", apps[0].Name, apps[0].Sources); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		if d.Fatal() != nil {
			t.Fatal("accept fault must not be fatal (nothing persisted)")
		}
		ents, _ := os.ReadDir(filepath.Join(dir, "spool"))
		if len(ents) != 0 {
			t.Fatalf("spool not empty after rejected accept: %v", ents)
		}
	})
	t.Run("JobEnqueue crash leaves no journaled job", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir, 1)
		cfg.FaultHook = faultinject.FailAfter(faultinject.JobEnqueue, "", 0)
		d := mustOpen(t, cfg)
		if _, err := d.Submit("acme", apps[0].Name, apps[0].Sources); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		d.Close()
		d2 := mustOpen(t, testConfig(dir, 1))
		defer d2.Close()
		if n := len(d2.Jobs()); n != 0 {
			t.Fatalf("enqueue crash leaked %d journaled jobs", n)
		}
	})
}
