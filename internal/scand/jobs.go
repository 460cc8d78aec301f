// Job state machine and journal fold: the scand side of the
// journal-is-the-queue design.
//
// Every accepted job is durable before its submitter hears "accepted":
// the sources are spooled, then a job-submit record lands in the job
// journal. The journal's fold is therefore the daemon's entire recovery
// story — on restart FoldJobs replays the lifecycle records into the
// exact queue state the dead process held: terminal jobs serve their
// recorded reports, submitted and in-flight jobs re-enqueue in submit
// order (scans are deterministic, so a re-run reproduces the same
// report), and a duplicate terminal record is corruption, never a
// double-report.
package scand

import (
	"encoding/json"
	"fmt"

	"repro/internal/scanjournal"
)

// JobState is one node of the job lifecycle.
type JobState string

const (
	// JobSubmitted: durable, queued, not yet picked up by a worker.
	JobSubmitted JobState = "submitted"
	// JobRunning: picked up by a worker; a job-start record is journaled.
	JobRunning JobState = "running"
	// JobFinished: terminal; the canonical report is journaled and cached.
	JobFinished JobState = "finished"
	// JobFailed: terminal with a typed error (watchdog, lost spool, …).
	JobFailed JobState = "failed"
	// JobCancelled: terminal on client request.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether s is a terminal state.
func (s JobState) Terminal() bool {
	return s == JobFinished || s == JobFailed || s == JobCancelled
}

// Job is one unit of scan-as-a-service work.
type Job struct {
	// ID is the daemon-assigned job identity ("j%08d", monotone across
	// restarts — the fold recovers the high-water mark).
	ID string `json:"id"`
	// Tenant is the submitting tenant, the admission-control identity.
	Tenant string `json:"tenant"`
	// Name is the target name the report will carry.
	Name string `json:"name"`
	// Key is the content address of the result in the shared cache.
	Key string `json:"key,omitempty"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Error is the terminal error text (failed/cancelled jobs).
	Error string `json:"error,omitempty"`
	// Report is the canonical report (finished jobs).
	Report json.RawMessage `json:"-"`

	// Runtime-only fields, never serialized: the in-memory sources
	// (loaded from the spool on restart, dropped once the job is
	// terminal), the in-flight scan's cancel function, and whether a
	// client asked to cancel a running job (the worker owns the
	// terminal record of a running job, so Cancel only requests).
	sources         map[string]string
	cancelScan      func()
	cancelRequested bool
}

// JobReplay is the daemon state folded out of a salvaged job journal.
type JobReplay struct {
	// Fingerprint is the latest manifest's options fingerprint.
	Fingerprint string
	// Jobs maps ID → folded job.
	Jobs map[string]*Job
	// Order lists job IDs in first-appearance (submit) order; restart
	// re-enqueues pending jobs in exactly this order.
	Order []string
	// Salvaged is the number of records folded in.
	Salvaged int
	// Corrupt is non-nil when the journal was corrupt — byte-level
	// (carried from Recovery) or semantically (missing manifest,
	// duplicate submit, duplicate terminal record, start of an unknown
	// job). Records before the corruption are salvaged.
	Corrupt *scanjournal.Corruption
}

// FoldJobs validates and folds a salvaged job journal into daemon
// state, mirroring scanjournal.Fold's prefix-salvage discipline: the
// first semantically invalid record stops the fold and everything
// before it is kept.
//
// Semantics per record type:
//
//   - manifest: updates the fingerprint. Unlike batch-sweep epochs a
//     fingerprint change does NOT discard prior state — a finished
//     job's report is immutable history served by ID, and pending jobs
//     are simply re-keyed under the new fingerprint by the daemon.
//   - job-submit: creates the job. A second submit for a live ID is
//     corruption.
//   - job-start: marks an existing non-terminal job running. Several
//     starts per job are legal (one per crash-and-resume cycle); a
//     start for an unknown or terminal job is corruption.
//   - job-finish / job-fail / job-cancel: terminal and self-contained —
//     an unknown ID creates the job directly (compaction drops the
//     submit/start of terminal jobs). A second terminal record for the
//     same job is corruption: the no-double-report invariant.
func FoldJobs(rec *scanjournal.Recovery) *JobReplay {
	rp := &JobReplay{Jobs: map[string]*Job{}, Corrupt: rec.Corrupt}
	if len(rec.Records) == 0 && rp.Corrupt == nil {
		rp.Corrupt = &scanjournal.Corruption{Reason: "empty job journal: no manifest record"}
		return rp
	}
	corrupt := func(i int, format string, args ...any) *JobReplay {
		rp.Corrupt = &scanjournal.Corruption{Record: i, Reason: fmt.Sprintf(format, args...)}
		return rp
	}
	for i, r := range rec.Records {
		if i == 0 && r.Type != scanjournal.TypeManifest {
			return corrupt(0, "job journal does not begin with a manifest record (got %q)", r.Type)
		}
		switch r.Type {
		case scanjournal.TypeManifest:
			rp.Fingerprint = r.Fingerprint
		case scanjournal.TypeJobSubmit:
			if _, dup := rp.Jobs[r.Job]; dup {
				return corrupt(i, "duplicate submit record for job %q", r.Job)
			}
			rp.Jobs[r.Job] = &Job{ID: r.Job, Tenant: r.Tenant, Name: r.Name, Key: r.Key, State: JobSubmitted}
			rp.Order = append(rp.Order, r.Job)
		case scanjournal.TypeJobStart:
			j, ok := rp.Jobs[r.Job]
			if !ok {
				return corrupt(i, "start record for unknown job %q", r.Job)
			}
			if j.State.Terminal() {
				return corrupt(i, "start record for terminal job %q", r.Job)
			}
			j.State = JobRunning
		case scanjournal.TypeJobFinish, scanjournal.TypeJobFail, scanjournal.TypeJobCancel:
			j, ok := rp.Jobs[r.Job]
			if !ok {
				// Self-contained terminal after compaction dropped the
				// submit: materialize the job directly.
				j = &Job{ID: r.Job, Tenant: r.Tenant, Name: r.Name}
				rp.Jobs[r.Job] = j
				rp.Order = append(rp.Order, r.Job)
			}
			if j.State.Terminal() {
				return corrupt(i, "duplicate terminal record for job %q", r.Job)
			}
			j.Key = r.Key
			switch r.Type {
			case scanjournal.TypeJobFinish:
				j.State = JobFinished
				j.Report = r.Report
			case scanjournal.TypeJobFail:
				j.State = JobFailed
				j.Error = r.Error
			case scanjournal.TypeJobCancel:
				j.State = JobCancelled
				j.Error = r.Error
			}
		default:
			return corrupt(i, "foreign record %q in a job journal", r.Type)
		}
		rp.Salvaged++
	}
	return rp
}

// foldJobRecords is the auto-compaction fold for a job journal: keep
// the latest manifest, the self-contained terminal record of every
// terminal job, and the submit plus latest start of every pending job
// — exactly the records FoldJobs needs to reconstruct current state.
// Relative append order is preserved, so submit order (and therefore
// restart re-enqueue order) survives compaction.
func foldJobRecords(records []scanjournal.Record) []scanjournal.Record {
	terminal := map[string]bool{}
	lastStart := map[string]int{}
	lastManifest := -1
	for i, r := range records {
		switch r.Type {
		case scanjournal.TypeManifest:
			lastManifest = i
		case scanjournal.TypeJobStart:
			lastStart[r.Job] = i
		case scanjournal.TypeJobFinish, scanjournal.TypeJobFail, scanjournal.TypeJobCancel:
			terminal[r.Job] = true
		}
	}
	var out []scanjournal.Record
	// The manifest goes first regardless of where the latest one sits in
	// append order (a restarted daemon appends a fresh manifest after
	// existing job records): FoldJobs requires record 0 to be a manifest.
	if lastManifest >= 0 {
		out = append(out, records[lastManifest])
	}
	for i, r := range records {
		switch r.Type {
		case scanjournal.TypeManifest:
			continue
		case scanjournal.TypeJobSubmit:
			if terminal[r.Job] {
				continue
			}
		case scanjournal.TypeJobStart:
			if terminal[r.Job] || i != lastStart[r.Job] {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}
