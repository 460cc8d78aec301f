// Package scand is the scan-as-a-service daemon: a long-running front
// end wrapping uchecker.Scanner behind a durable job queue.
//
// The design rule is that the journal IS the queue. A job is accepted
// only once its sources are spooled and a job-submit record is fsynced;
// every later lifecycle transition (start, finish, fail, cancel) is a
// journal record appended before the in-memory state moves. A daemon
// restart therefore recovers the exact queue the dead process held by
// folding the journal (FoldJobs): terminal jobs serve their recorded
// reports, pending jobs re-enqueue in submit order, and — because scans
// are deterministic and reports are canonicalized (wall-clock fields
// zeroed) — a daemon killed at ANY lifecycle boundary resumes to
// byte-identical results. The daemon-chaos matrix enforces exactly
// that.
//
// Crash semantics mirror the batch layer: a journal append failure
// means durability is gone, so the daemon goes fatal — submits are
// rejected, workers stop picking up jobs, in-flight scans are
// cancelled and deliberately NOT journaled (their dangling start
// records make the restarted daemon re-run them). Overload is handled
// before work is spent: per-tenant token buckets and bounded queues
// shed with typed errors carrying deterministic Retry-After hints, and
// a stride scheduler keeps one heavy tenant from starving the rest.
package scand

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

// Config configures a Daemon. Dir is required; everything else has
// serviceable defaults.
type Config struct {
	// Dir is the daemon state directory: jobs.journal (the durable
	// queue), cache/ (content-addressed results), spool/ (submitted
	// sources awaiting a terminal record). The journal is compacted only
	// to cut a corrupt tail, so it keeps every finished job's report
	// record for the life of the directory.
	Dir string
	// Scan is the scan configuration. Workers bounds per-scan
	// parallelism; persistence fields (Journal, ResumeFrom, CacheDir)
	// are ignored — the daemon owns persistence, so a job's report
	// depends only on its sources and this configuration. Trace is
	// ignored too: each job records its spans on a Recorder of its own,
	// which streams them as the job's span events.
	Scan uchecker.Options
	// ScanWorkers is the number of concurrently running jobs. Zero or
	// negative selects 1.
	ScanWorkers int
	// JobTimeout bounds one job's scan wall clock; the scan is cancelled
	// at the deadline and the job fails typed. Zero disables.
	JobTimeout time.Duration
	// WatchdogGrace is how long past JobTimeout a cancelled scan may
	// take to acknowledge cancellation before the watchdog declares it
	// wedged, fails the job, and abandons the scan goroutine. Zero
	// selects DefaultWatchdogGrace. Only meaningful with JobTimeout set.
	WatchdogGrace time.Duration
	// Tenants maps tenant name → admission policy; absent tenants get
	// Default.
	Tenants map[string]TenantPolicy
	// Default is the policy for tenants not in Tenants.
	Default TenantPolicy
	// Ingest caps HTTP submits, tarball and JSON alike. Zero value
	// selects DefaultIngestLimits.
	Ingest IngestLimits
	// FaultHook, when non-nil, fires at the daemon's faultinject seams
	// (JobAccept/JobEnqueue/JobDequeue/JobCheckpoint/JobDrain and the
	// journal's JournalWrite/JournalSync). Production daemons leave it
	// nil.
	FaultHook faultinject.Hook
	// Clock is the admission-control clock, swappable in tests. Nil
	// selects time.Now.
	Clock func() time.Time
}

// DefaultWatchdogGrace is the wedge-detection window past JobTimeout.
const DefaultWatchdogGrace = 5 * time.Second

// Typed submit-rejection errors.
var (
	// ErrDraining rejects submits while the daemon drains.
	ErrDraining = errors.New("scand: daemon draining")
	// ErrJournalDown rejects submits after a journal append failure put
	// the daemon into crash semantics.
	ErrJournalDown = errors.New("scand: job journal down")
	// ErrUnknownJob is returned for operations on a job ID the daemon
	// has no record of.
	ErrUnknownJob = errors.New("scand: unknown job")
	// ErrJobTerminal rejects cancelling an already-terminal job.
	ErrJobTerminal = errors.New("scand: job already terminal")
	// ErrJobPending is returned for the result of a job that is still
	// submitted or running.
	ErrJobPending = errors.New("scand: job not terminal")
)

// ShedError is a load-shed rejection: the submit was refused before any
// work was spent on it, and RetryAfter is the daemon's backoff hint
// (deterministic jitter, see retryBackoff).
type ShedError struct {
	// Reason is "rate" (token bucket empty) or "queue" (tenant queue
	// full).
	Reason string
	// Tenant is the shed tenant.
	Tenant string
	// RetryAfter is the advertised backoff.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("scand: tenant %q shed (%s), retry after %v", e.Tenant, e.Reason, e.RetryAfter)
}

// Daemon is the scan-as-a-service front end. Open one with Open; serve
// its Handler; stop it with Drain (graceful) or Close (hard).
type Daemon struct {
	cfg   Config
	fp    string
	cache *scanjournal.Cache
	jw    *scanjournal.Writer
	reg   *obs.Registry
	hub   *eventHub
	now   func() time.Time

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	queue      *fairQueue
	buckets    map[string]*tokenBucket
	shedStreak map[string]int
	seq        int
	fatal      error
	draining   bool

	wake    chan struct{}
	stop    chan struct{} // closed by Close/Drain: workers exit when idle
	drainCh chan struct{} // closed by Drain: batch-layer drain signal
	wg      sync.WaitGroup

	closeOnce sync.Once
}

// Open recovers daemon state from dir and starts the scan workers.
func Open(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, errors.New("scand: Config.Dir required")
	}
	for _, sub := range []string{"", "spool", "cache"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("scand: mkdir: %w", err)
		}
	}
	reg := obs.NewRegistry()
	d := &Daemon{
		cfg:        cfg,
		fp:         uchecker.NewScanner(cfg.Scan).OptionsFingerprint(),
		reg:        reg,
		hub:        newEventHub(reg),
		now:        cfg.Clock,
		jobs:       map[string]*Job{},
		queue:      newFairQueue(),
		buckets:    map[string]*tokenBucket{},
		shedStreak: map[string]int{},
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		drainCh:    make(chan struct{}),
	}
	if d.now == nil {
		d.now = time.Now
	}

	cache, err := scanjournal.OpenCache(filepath.Join(cfg.Dir, "cache"), cfg.FaultHook)
	if err != nil {
		return nil, err
	}
	d.cache = cache

	if err := d.recover(); err != nil {
		return nil, err
	}

	workers := cfg.ScanWorkers
	if workers < 1 {
		workers = 1
	}
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.workerLoop()
	}
	return d, nil
}

// journalPath is the job journal inside the state directory.
func (d *Daemon) journalPath() string { return filepath.Join(d.cfg.Dir, "jobs.journal") }

func (d *Daemon) spoolPath(id string) string {
	return filepath.Join(d.cfg.Dir, "spool", id+".src")
}

// recover folds the job journal into daemon state and opens the writer.
func (d *Daemon) recover() error {
	path := d.journalPath()
	var rp *JobReplay
	rec, err := scanjournal.Read(path)
	switch {
	case err != nil && os.IsNotExist(err):
		// Fresh daemon: no journal yet.
	case err != nil:
		return fmt.Errorf("scand: read job journal: %w", err)
	default:
		rp = FoldJobs(rec)
		if rp.Corrupt != nil {
			// Salvage-and-compact before appending after garbage, exactly
			// like same-file batch resume: the valid prefix is the state.
			salvaged := rec.Records[:rp.Salvaged]
			if err := scanjournal.Compact(path, d.cfg.FaultHook, salvaged); err != nil {
				return fmt.Errorf("scand: compact corrupt job journal: %w", err)
			}
			d.reg.Add(daemonLabels, "journal_corrupt_recoveries_total", 1)
		}
	}

	jw, err := scanjournal.OpenWriter(path, d.cfg.FaultHook)
	if err != nil {
		return err
	}
	d.jw = jw

	if rp == nil || rp.Fingerprint != d.fp {
		// First open, or the scan options changed across the restart: a
		// fresh manifest records the fingerprint every later record is
		// accountable to. Terminal jobs keep their reports (immutable
		// history); pending jobs are re-keyed below.
		if err := d.jw.Append(scanjournal.Record{
			Type: scanjournal.TypeManifest, Fingerprint: d.fp, At: time.Now(),
		}); err != nil {
			jw.Close()
			return err
		}
	}
	if rp == nil {
		return nil
	}

	// Rebuild in-memory state; re-enqueue pending jobs in submit order.
	d.jobs = rp.Jobs
	d.order = rp.Order
	for _, id := range rp.Order {
		if n := jobSeq(id); n > d.seq {
			d.seq = n
		}
		job := rp.Jobs[id]
		if job.State.Terminal() {
			d.removeSpool(id)
			continue
		}
		sources, err := d.loadSpool(id)
		if err != nil {
			// The submit record survived but its sources did not: the job
			// cannot run. Fail it typed rather than wedging the queue.
			job.State = JobFailed
			job.Error = "spool lost: " + err.Error()
			if aerr := d.jw.Append(scanjournal.Record{
				Type: scanjournal.TypeJobFail, Job: id, Tenant: job.Tenant,
				Name: job.Name, Key: job.Key, Error: job.Error, At: time.Now(),
			}); aerr != nil {
				jw.Close()
				return aerr
			}
			d.reg.Add(daemonLabels, "jobs_failed_total", 1)
			continue
		}
		job.sources = sources
		// Re-key under the current fingerprint: if the options changed,
		// the old key would serve a stale report.
		job.Key = d.jobKey(job.Name, sources)
		job.State = JobSubmitted
		d.queue.push(job.Tenant, d.policy(job.Tenant).weight(), id)
		d.reg.Add(daemonLabels, "jobs_requeued_total", 1)
	}
	d.updateQueueGauges()
	return nil
}

// jobKey derives a job's content address: the scan-options fingerprint
// qualified by the job's target name, over the sources. The name is
// part of the address because the canonical report embeds it — two
// tenants submitting identical sources under different names must each
// get a report carrying their own name, never the other's bytes.
func (d *Daemon) jobKey(name string, sources map[string]string) string {
	return scanjournal.CacheKey(sources, d.fp+"\x00name\x00"+name)
}

// jobSeq parses the numeric tail of a "j%08d" job ID (0 on mismatch).
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// policy resolves a tenant's admission policy.
func (d *Daemon) policy(tenant string) TenantPolicy {
	if p, ok := d.cfg.Tenants[tenant]; ok {
		return p
	}
	return d.cfg.Default
}

// goFatal puts the daemon into crash semantics: the journal can no
// longer record state, so no state may change. Submits are rejected,
// idle workers stop, and in-flight scans are cancelled WITHOUT terminal
// records — their dangling starts make the restarted daemon re-run
// them.
func (d *Daemon) goFatal(err error) {
	d.mu.Lock()
	if d.fatal == nil {
		d.fatal = err
		for _, job := range d.jobs {
			if job.State == JobRunning && job.cancelScan != nil {
				job.cancelScan()
			}
		}
	}
	d.mu.Unlock()
	d.reg.Add(daemonLabels, "journal_fatal_total", 1)
	d.wakeWorkers()
}

// Fatal reports the crash-semantics error, if the daemon has one.
func (d *Daemon) Fatal() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fatal
}

func (d *Daemon) wakeWorkers() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// daemonLabels is the label set of daemon-level metrics.
var daemonLabels = map[string]string{"scope": "daemon"}

// scanLabels is the label set scan counters merge under.
var scanLabels = map[string]string{"scope": "scans"}

func tenantLabels(tenant string) map[string]string {
	return map[string]string{"tenant": tenant}
}

func (d *Daemon) updateQueueGauges() {
	for tenant, depth := range d.queue.depths() {
		d.reg.Set(tenantLabels(tenant), "queue_depth_now", int64(depth))
	}
}

// --- Spool ---

// writeSpool persists a job's sources before the submit record lands: a
// JSON submit document (submitBody), framed (checksummed) behind an
// atomic write, so a torn spool is detected on restart instead of
// silently scanning garbage. payload, when non-nil, is that document as
// a client sent it, already decoded to these sources; otherwise it is
// encoded here. A restart reads only the sources back: the job's name
// comes from its submit record.
func (d *Daemon) writeSpool(id, name string, sources map[string]string, payload []byte) error {
	if payload == nil {
		var err error
		if payload, err = json.Marshal(submitBody{Name: name, Sources: sources}); err != nil {
			return err
		}
	}
	return scanjournal.AtomicWrite(d.spoolPath(id), func(w io.Writer) error {
		return scanjournal.WriteFrame(w, payload)
	})
}

func (d *Daemon) loadSpool(id string) (map[string]string, error) {
	data, err := os.ReadFile(d.spoolPath(id))
	if err != nil {
		return nil, err
	}
	payload, err := scanjournal.Unframe(data)
	if err != nil {
		return nil, err
	}
	var e submitBody
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, err
	}
	return e.Sources, nil
}

func (d *Daemon) removeSpool(id string) {
	os.Remove(d.spoolPath(id)) // best-effort: an orphan spool is garbage, not state
}

// --- Submit / query / cancel ---

// Submit admits one job. On success the job is durable (spooled +
// journaled) and queued. Rejections are typed: *ShedError (admission),
// ErrDraining, ErrJournalDown, or an injected JobAccept/JobEnqueue
// fault.
func (d *Daemon) Submit(tenant, name string, sources map[string]string) (Job, error) {
	return d.submit(tenant, name, sources, nil)
}

// submit is Submit with the spool payload writeSpool takes: a JSON
// submit's body, or nil.
func (d *Daemon) submit(tenant, name string, sources map[string]string, spool []byte) (Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	if name == "" {
		return Job{}, errors.New("scand: job name required")
	}
	if len(sources) == 0 {
		return Job{}, errors.New("scand: job has no sources")
	}

	d.mu.Lock()
	if d.fatal != nil {
		err := d.fatal
		d.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %v", ErrJournalDown, err)
	}
	if d.draining {
		d.mu.Unlock()
		return Job{}, ErrDraining
	}
	pol := d.policy(tenant)
	bucket, ok := d.buckets[tenant]
	if !ok {
		bucket = newTokenBucket(pol, d.now())
		d.buckets[tenant] = bucket
	}
	if ok, wait := bucket.take(d.now()); !ok {
		streak := d.shedStreak[tenant]
		d.shedStreak[tenant] = streak + 1
		d.mu.Unlock()
		d.shedMetrics(tenant)
		return Job{}, &ShedError{
			Reason: "rate", Tenant: tenant,
			RetryAfter: wait + retryBackoff("rate:"+tenant, min(streak, 6)),
		}
	}
	if d.queue.depth(tenant) >= pol.maxQueue() {
		streak := d.shedStreak[tenant]
		d.shedStreak[tenant] = streak + 1
		d.mu.Unlock()
		d.shedMetrics(tenant)
		return Job{}, &ShedError{
			Reason: "queue", Tenant: tenant,
			RetryAfter: retryBackoff("queue:"+tenant, min(streak, 6)),
		}
	}
	d.shedStreak[tenant] = 0
	if d.cfg.FaultHook != nil {
		if err := d.cfg.FaultHook(faultinject.JobAccept, tenant+":"+name); err != nil {
			d.mu.Unlock()
			return Job{}, err
		}
	}
	d.seq++
	id := fmt.Sprintf("j%08d", d.seq)
	d.mu.Unlock()
	// Hashed after the unlock: status reads, worker pops and Jobs() all
	// wait on d.mu.
	key := d.jobKey(name, sources)

	// Durability, in crash-safe order: spool first, then the submit
	// record. A crash between the two leaves an orphan spool file (cheap
	// garbage) — never a journaled job without sources.
	if err := d.writeSpool(id, name, sources, spool); err != nil {
		return Job{}, fmt.Errorf("scand: spool: %w", err)
	}
	if d.cfg.FaultHook != nil {
		if err := d.cfg.FaultHook(faultinject.JobEnqueue, id); err != nil {
			d.removeSpool(id)
			return Job{}, err
		}
	}
	if err := d.jw.Append(scanjournal.Record{
		Type: scanjournal.TypeJobSubmit, Job: id, Tenant: tenant,
		Name: name, Key: key, At: time.Now(),
	}); err != nil {
		d.goFatal(err)
		return Job{}, fmt.Errorf("%w: %v", ErrJournalDown, err)
	}

	job := &Job{ID: id, Tenant: tenant, Name: name, Key: key, State: JobSubmitted, sources: sources}
	d.mu.Lock()
	d.jobs[id] = job
	d.order = append(d.order, id)
	d.queue.push(tenant, pol.weight(), id)
	d.updateQueueGauges()
	snapshot := *job
	d.mu.Unlock()

	d.reg.Add(daemonLabels, "jobs_submitted_total", 1)
	d.hub.publishState(id, JobSubmitted, "")
	d.wakeWorkers()
	return snapshot, nil
}

func (d *Daemon) shedMetrics(tenant string) {
	d.reg.Add(daemonLabels, "jobs_shed_total", 1)
	d.reg.Add(tenantLabels(tenant), "shed_total", 1)
}

// Get returns a snapshot of one job.
func (d *Daemon) Get(id string) (Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	job, ok := d.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return *job, nil
}

// Jobs returns snapshots of all jobs in submit order.
func (d *Daemon) Jobs() []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Job, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, *d.jobs[id])
	}
	return out
}

// Result returns a finished job's canonical report bytes. It prefers
// the journaled report and falls back to the content-addressed cache.
// The error wraps ErrUnknownJob for an unknown ID and ErrJobPending for
// a job that is still submitted or running; any other error means the
// job ended without a servable report.
func (d *Daemon) Result(id string) (json.RawMessage, error) {
	d.mu.Lock()
	job, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrUnknownJob
	}
	state, key, report := job.State, job.Key, job.Report
	jerr := job.Error
	d.mu.Unlock()
	switch state {
	case JobFinished:
		if len(report) > 0 {
			return report, nil
		}
		if raw, ok := d.cache.Get(key); ok {
			return raw, nil
		}
		return nil, fmt.Errorf("scand: job %s finished but its report is unavailable", id)
	case JobFailed, JobCancelled:
		return nil, fmt.Errorf("scand: job %s %s: %s", id, state, jerr)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrJobPending, id, state)
	}
}

// Cancel terminates a job. A queued job is cancelled immediately (this
// call writes the terminal record); a running job gets a cancellation
// request and its worker writes the terminal record — exactly one
// writer either way.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	job, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return ErrUnknownJob
	}
	switch job.State {
	case JobFinished, JobFailed, JobCancelled:
		d.mu.Unlock()
		return ErrJobTerminal
	case JobRunning:
		job.cancelRequested = true
		if job.cancelScan != nil {
			job.cancelScan()
		}
		d.mu.Unlock()
		return nil
	}
	if d.fatal != nil {
		err := d.fatal
		d.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrJournalDown, err)
	}
	// Queued (or popped-but-unstarted): this call owns the terminal
	// record. The state flips under the lock, so a worker that popped
	// the job observes Cancelled and skips it.
	job.State = JobCancelled
	job.Error = "cancelled by client"
	job.sources = nil
	d.queue.remove(job.Tenant, id)
	d.updateQueueGauges()
	rec := scanjournal.Record{
		Type: scanjournal.TypeJobCancel, Job: id, Tenant: job.Tenant,
		Name: job.Name, Key: job.Key, Error: job.Error, At: time.Now(),
	}
	d.mu.Unlock()
	if err := d.jw.Append(rec); err != nil {
		d.goFatal(err)
		return fmt.Errorf("%w: %v", ErrJournalDown, err)
	}
	d.removeSpool(id)
	d.reg.Add(daemonLabels, "jobs_cancelled_total", 1)
	d.hub.publishState(id, JobCancelled, "cancelled by client")
	return nil
}

// --- Workers ---

func (d *Daemon) workerLoop() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		if d.fatal != nil || d.draining {
			d.mu.Unlock()
			return
		}
		_, id, ok := d.queue.pop()
		if ok {
			d.updateQueueGauges()
			job := d.jobs[id]
			if job.State != JobSubmitted {
				// Cancelled between enqueue and pop: its terminal record is
				// already owned elsewhere.
				d.mu.Unlock()
				continue
			}
			job.State = JobRunning
			d.mu.Unlock()
			// One buffered wake token can absorb several submits: re-signal
			// so idle siblings check the queue instead of sleeping while
			// work remains.
			d.wakeWorkers()
			d.runJob(job)
			continue
		}
		d.mu.Unlock()
		select {
		case <-d.wake:
		case <-d.stop:
			return
		}
	}
}

// runJob executes one dequeued job end to end. The job's in-memory
// state is already Running; the journal still says submitted until the
// start record lands.
func (d *Daemon) runJob(job *Job) {
	if d.cfg.FaultHook != nil {
		if err := d.cfg.FaultHook(faultinject.JobDequeue, job.ID); err != nil {
			d.goFatal(err)
			return
		}
	}
	if err := d.jw.Append(scanjournal.Record{
		Type: scanjournal.TypeJobStart, Job: job.ID, Tenant: job.Tenant,
		Name: job.Name, Key: job.Key, At: time.Now(),
	}); err != nil {
		d.goFatal(err)
		return
	}
	d.reg.Add(daemonLabels, "jobs_running_now", 1)
	d.hub.publishState(job.ID, JobRunning, "")

	// Content-addressed fast path: unchanged sources + unchanged options
	// = a previous run's canonical bytes (often the daemon's own pre-crash
	// run of this very job). Byte-identical by construction.
	if raw, ok := d.cache.Get(job.Key); ok {
		d.reg.Add(daemonLabels, "cache_hits_total", 1)
		d.finishJob(job, scanjournal.TypeJobFinish, raw, "")
		return
	}
	d.reg.Add(daemonLabels, "cache_misses_total", 1)

	ctx, cancel := context.WithCancel(context.Background())
	if d.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), d.cfg.JobTimeout)
	}
	defer cancel()
	d.mu.Lock()
	job.cancelScan = cancel
	cancelled := job.cancelRequested // requested before the start record landed
	d.mu.Unlock()
	if cancelled {
		cancel()
	}

	rep, wedged := d.executeScan(ctx, job)
	if wedged {
		// Counted before finishJob publishes the failure (see there).
		d.reg.Add(daemonLabels, "watchdog_fired_total", 1)
		d.finishJob(job, scanjournal.TypeJobFail, nil,
			fmt.Sprintf("watchdog: scan wedged past deadline %v + grace", d.cfg.JobTimeout))
		return
	}

	d.mu.Lock()
	cancelled = job.cancelRequested
	d.mu.Unlock()
	switch {
	case cancelled:
		d.finishJob(job, scanjournal.TypeJobCancel, nil, "cancelled by client")
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		d.finishJob(job, scanjournal.TypeJobFail, nil,
			fmt.Sprintf("job deadline %v exceeded", d.cfg.JobTimeout))
	case d.Fatal() != nil:
		// The journal died while this scan ran (goFatal cancelled the
		// ctx): the result CANNOT be persisted, so it is discarded — the
		// dangling start re-runs the job on restart.
		return
	default:
		if d.cfg.FaultHook != nil {
			if err := d.cfg.FaultHook(faultinject.JobCheckpoint, job.ID); err != nil {
				d.goFatal(err)
				return
			}
		}
		raw, err := uchecker.CanonicalReport(rep)
		if err != nil {
			d.finishJob(job, scanjournal.TypeJobFail, nil, "encode report: "+err.Error())
			return
		}
		// Cache before the finish record: a crash between the two costs a
		// redundant cache entry, never a finish record whose report bytes
		// were lost.
		if err := d.cache.Put(job.Key, raw); err != nil {
			d.reg.Add(daemonLabels, "cache_put_failures_total", 1)
		}
		// Merged before finishJob publishes the result (see there).
		d.reg.Merge(scanLabels, rep.Metrics)
		d.finishJob(job, scanjournal.TypeJobFinish, raw, "")
	}
}

// executeScan runs the scan with the watchdog. It returns the report,
// or wedged=true when the scan failed to acknowledge cancellation
// within JobTimeout+WatchdogGrace — the goroutine is then abandoned
// (its late result is discarded because the job is already terminal).
func (d *Daemon) executeScan(ctx context.Context, job *Job) (rep *uchecker.AppReport, wedged bool) {
	scanner := d.jobScanner(job.ID)
	// The target is built before the scan goroutine starts: an abandoned
	// goroutine outlives finishJob, which drops job.sources.
	target := uchecker.Target{Name: job.Name, Sources: job.sources}
	resCh := make(chan *uchecker.AppReport, 1)
	go func() {
		reports := scanner.ScanBatch(ctx, []uchecker.Target{target})
		resCh <- reports[0]
	}()
	if d.cfg.JobTimeout <= 0 {
		return <-resCh, false
	}
	grace := d.cfg.WatchdogGrace
	if grace <= 0 {
		grace = DefaultWatchdogGrace
	}
	timer := time.NewTimer(d.cfg.JobTimeout + grace)
	defer timer.Stop()
	select {
	case rep = <-resCh:
		return rep, false
	case <-timer.C:
		return nil, true
	}
}

// jobScanner builds this job's scanner: same options without their
// persistence fields, plus a Recorder of the job's own whose OnEnd
// feeds the job's SSE stream. The scanner keeps no state between jobs,
// so a job re-run after a crash reports exactly what its first run
// would have.
func (d *Daemon) jobScanner(jobID string) *uchecker.Scanner {
	opts := d.cfg.Scan
	opts.Journal, opts.ResumeFrom, opts.CacheDir = "", "", ""
	opts.Trace = obs.NewRecorder()
	opts.Trace.OnEnd = func(sp obs.Span) { d.hub.publishSpan(jobID, sp) }
	return uchecker.NewScanner(opts)
}

// finishJob writes a job's terminal record and flips its state. Exactly
// one terminal record per job: the caller owns the transition (the
// worker for running jobs), and a journal failure here is fatal —
// the restarted daemon re-runs the job from its dangling start.
func (d *Daemon) finishJob(job *Job, typ string, report json.RawMessage, errText string) {
	rec := scanjournal.Record{
		Type: typ, Job: job.ID, Tenant: job.Tenant, Name: job.Name,
		Key: job.Key, Report: report, Error: errText, At: time.Now(),
	}
	if err := d.jw.Append(rec); err != nil {
		d.goFatal(err)
		return
	}
	var state JobState
	var metric string
	switch typ {
	case scanjournal.TypeJobFinish:
		state, metric = JobFinished, "jobs_finished_total"
	case scanjournal.TypeJobFail:
		state, metric = JobFailed, "jobs_failed_total"
	default:
		state, metric = JobCancelled, "jobs_cancelled_total"
	}
	// Counters move before the state flips, so a client that sees the
	// terminal job also sees them.
	d.reg.Add(daemonLabels, metric, 1)
	d.reg.Add(daemonLabels, "jobs_running_now", -1)
	d.mu.Lock()
	job.State = state
	job.Report = report
	job.Error = errText
	job.cancelScan = nil
	job.sources = nil // the spool file goes below; a terminal job never rescans
	d.mu.Unlock()
	d.removeSpool(job.ID)
	d.hub.publishState(job.ID, state, errText)
}

// --- Drain / Close ---

// Drain is the graceful SIGTERM path: stop admitting submits, let
// in-flight jobs finish and journal, leave queued jobs submitted in the
// journal (the restarted daemon re-enqueues them), then close the
// journal. Safe to call once; returns when every worker has exited.
func (d *Daemon) Drain() error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.draining = true
	var inflight []string
	for _, id := range d.order {
		if d.jobs[id].State == JobRunning {
			inflight = append(inflight, id)
		}
	}
	d.mu.Unlock()
	d.reg.Add(daemonLabels, "drain_total", 1)
	for _, id := range inflight {
		if d.cfg.FaultHook != nil {
			if err := d.cfg.FaultHook(faultinject.JobDrain, id); err != nil {
				// A drain-seam fault models a crash mid-drain: stop waiting
				// politely and go fatal — the restarted daemon recovers the
				// same state either way.
				d.goFatal(err)
				break
			}
		}
	}
	close(d.drainCh)
	d.wakeAll()
	d.wg.Wait()
	return d.closeJournal()
}

// Close hard-stops the daemon: cancel in-flight scans (their results
// are NOT journaled — dangling starts re-run on restart), stop workers,
// close the journal. The "kill" of the in-process chaos matrix.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.draining = true
	if d.fatal == nil {
		// Suppress terminal records for scans that now return cancelled:
		// mark fatal so workers discard results, exactly like a crash.
		d.fatal = errors.New("scand: daemon closed")
	}
	for _, job := range d.jobs {
		if job.State == JobRunning && job.cancelScan != nil {
			job.cancelRequested = false // a hard stop is a crash, not a client cancel
			job.cancelScan()
		}
	}
	d.mu.Unlock()
	d.wakeAll()
	d.wg.Wait()
	return d.closeJournal()
}

func (d *Daemon) wakeAll() {
	d.closeOnce.Do(func() { close(d.stop) })
	d.wakeWorkers()
}

func (d *Daemon) closeJournal() error {
	if d.jw != nil {
		return d.jw.Close()
	}
	return nil
}

// Registry exposes the daemon's metric registry (the /metrics source).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// Fingerprint exposes the scan-options fingerprint (manifest identity).
func (d *Daemon) Fingerprint() string { return d.fp }
