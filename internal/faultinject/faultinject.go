// Package faultinject defines the scanner pipeline's fault-injection
// seams. The scanner calls an installed Hook at well-known Points; tests
// use hooks to inject panics (crash containment), sleeps (per-root
// deadlines) and forced solver failures (budget degradation) at each
// stage, proving end-to-end fault containment without touching
// production code paths.
//
// A nil Hook is free: every call site guards with `if hook != nil`.
// Production binaries never install one.
package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Point identifies one instrumentation site in the scanner pipeline.
type Point string

const (
	// ParseFile fires before each source file is parsed. Detail is the
	// file name. A panicking hook simulates a parser crash on that file; a
	// returned error marks the file unparseable.
	ParseFile Point = "parse-file"
	// RootStart fires at the start of every per-root attempt (including
	// ladder retries). Detail is the root's name. A panicking hook
	// simulates an interpreter crash; a sleeping hook simulates a
	// pathological root (tripping Options.RootTimeout); a returned error
	// aborts the root with an internal failure.
	RootStart Point = "root-start"
	// SolverCheck fires before each SMT check of a modeled sink. Detail is
	// "file:line" of the candidate. A returned error forces the check to
	// resolve Unknown (a solver-budget failure); a panicking hook
	// simulates a solver crash.
	SolverCheck Point = "solver-check"
	// Fallback fires before the degraded taint-only fallback runs for a
	// root. Detail is the root's name. A panicking hook proves the last
	// ladder rung is itself contained.
	Fallback Point = "fallback"
	// JournalWrite fires before each scan-journal record is written.
	// Detail is "<type>:<target>". A returned error simulates a crash at
	// that write boundary: the record (and everything after it) never
	// reaches disk, and the batch aborts — the crash-matrix resume tests
	// kill the pipeline here after every N.
	JournalWrite Point = "journal-write"
	// JournalSync fires after a journal record is written but before it
	// is fsynced. Detail is "<type>:<target>". A returned error simulates
	// a failed fsync: the record is on disk but the append reports
	// failure, so the caller must treat the journal as crashed — never
	// append the record again, which would duplicate it.
	JournalSync Point = "journal-sync"
	// CacheRead fires before each result-cache lookup. Detail is the
	// content-address key. A returned error forces a cache miss, proving
	// a broken cache degrades to a re-scan, never to a wrong report.
	CacheRead Point = "cache-read"
	// AtomicWriteBody fires inside scanjournal.AtomicWrite after the
	// temporary file is created, before the payload is streamed into it.
	// Detail is the destination path. A returned error simulates a write
	// failure mid-replacement: the destination must stay untouched and
	// the temp file must not survive.
	AtomicWriteBody Point = "atomic-write"
	// AtomicRename fires inside scanjournal.AtomicWrite after the temp
	// file is written and fsynced, before the rename. Detail is the
	// destination path. A returned error simulates a rename failure: same
	// cleanup contract as AtomicWriteBody.
	AtomicRename Point = "atomic-rename"
	// LeaseClaim fires before a shard-lease claim record is appended to
	// the coordination journal. Detail is "shard-<n>.t<token>:<worker>".
	// A returned error simulates a worker crashing at the claim boundary:
	// the lease is never recorded and the worker dies without cleanup.
	LeaseClaim Point = "lease-claim"
	// LeaseRenew fires before a lease heartbeat record is appended.
	// Detail is "shard-<n>.t<token>:<worker>". A returned error simulates
	// a worker crashing mid-heartbeat: the lease goes stale and must be
	// reclaimed by a surviving worker.
	LeaseRenew Point = "lease-renew"
	// ShardPublish fires before a worker publishes a finished shard
	// (appending the shard-finish record that makes its per-target
	// reports authoritative). Detail is "shard-<n>.t<token>:<worker>". A
	// returned error simulates a crash between scanning a shard and
	// publishing it: the shard's lease goes stale, the work is reclaimed,
	// and the re-scan must merge byte-identically.
	ShardPublish Point = "shard-publish"
	// CoordFold fires before the coordinator folds all finished shards
	// into the merged report file. Detail is the merged-report path. A
	// returned error simulates a crash mid-fold: the previous merged
	// report (if any) must stay intact and a later fold must succeed.
	CoordFold Point = "coord-fold"

	// Daemon job-lifecycle seams (internal/scand). Each fires at one
	// boundary of the scan-as-a-service state machine; the daemon-chaos
	// matrix kills the daemon at every one of them and proves the
	// restarted daemon resumes to byte-identical results.

	// JobAccept fires inside the submit handler after admission control
	// passes, before anything about the job is persisted. Detail is
	// "<tenant>:<name>". A returned error rejects the submit (the client
	// sees a 5xx and nothing was recorded — safe to retry).
	JobAccept Point = "job-accept"
	// JobEnqueue fires after the job's sources are spooled, before the
	// job-submit record is journaled. Detail is the job ID. A returned
	// error simulates a crash between spool and journal: the spool file
	// is an orphan and the job was never accepted.
	JobEnqueue Point = "job-enqueue"
	// JobDequeue fires when a worker picks the job up, before the
	// job-start record is journaled. Detail is the job ID. A returned
	// error simulates a crash at dispatch: the job stays submitted and a
	// restarted daemon re-enqueues it.
	JobDequeue Point = "job-dequeue"
	// JobCheckpoint fires after a job's scan completes, before its
	// result is cached and its terminal record journaled. Detail is the
	// job ID. A returned error simulates a crash between computing a
	// result and persisting it: the re-run must reproduce the same
	// report (scans are deterministic) and exactly one terminal record
	// may ever land.
	JobCheckpoint Point = "job-checkpoint"
	// JobDrain fires once per in-flight job during graceful drain,
	// before the daemon waits for it. Detail is the job ID. A returned
	// error simulates a crash mid-drain: drained state must be
	// indistinguishable from a plain crash to the restarted daemon.
	JobDrain Point = "job-drain"
)

// Hook receives fault-injection callbacks. Hooks may panic, sleep, or
// return a non-nil error; the meaning of each is documented per Point.
// Hooks run on scanner worker goroutines and must be safe for concurrent
// use.
type Hook func(p Point, detail string) error

// ErrInjected is the base error returned by the helper constructors, so
// tests can assert provenance with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// matches reports whether detail matches the target spec: empty target
// matches everything, otherwise substring match.
func matches(target, detail string) bool {
	return target == "" || strings.Contains(detail, target)
}

// PanicOn returns a Hook that panics at the given point when detail
// contains target (empty target: always).
func PanicOn(p Point, target string) Hook {
	return func(point Point, detail string) error {
		if point == p && matches(target, detail) {
			panic(fmt.Sprintf("faultinject: injected panic at %s (%s)", point, detail))
		}
		return nil
	}
}

// SleepOn returns a Hook that sleeps d at the given point when detail
// contains target — the "pathological root" simulator.
func SleepOn(p Point, target string, d time.Duration) Hook {
	return func(point Point, detail string) error {
		if point == p && matches(target, detail) {
			time.Sleep(d)
		}
		return nil
	}
}

// ErrorOn returns a Hook that returns an ErrInjected-wrapped error at the
// given point when detail contains target. At SolverCheck this forces an
// Unknown verdict; at RootStart it aborts the root; at ParseFile it marks
// the file unparseable.
func ErrorOn(p Point, target string) Hook {
	return func(point Point, detail string) error {
		if point == p && matches(target, detail) {
			return fmt.Errorf("%w at %s (%s)", ErrInjected, point, detail)
		}
		return nil
	}
}

// ErrorN returns a Hook that returns an ErrInjected-wrapped error for the
// first n matching calls and succeeds from the (n+1)th on — the
// one-shot complement of FailAfter. The crash-contract tests use it to
// fail one journal append and then reopen or resume without a fault.
// Safe for concurrent use.
func ErrorN(p Point, target string, n int) Hook {
	var calls atomic.Int64
	return func(point Point, detail string) error {
		if point != p || !matches(target, detail) {
			return nil
		}
		if calls.Add(1) <= int64(n) {
			return fmt.Errorf("%w: transient fault %d at %s (%s)", ErrInjected, n, point, detail)
		}
		return nil
	}
}

// FailAfter returns a Hook that lets the first n matching calls succeed
// and returns an ErrInjected-wrapped error from the (n+1)th on — the
// "crash after N records" knob of the crash-matrix resume tests. Safe
// for concurrent use.
func FailAfter(p Point, target string, n int) Hook {
	var calls atomic.Int64
	return func(point Point, detail string) error {
		if point != p || !matches(target, detail) {
			return nil
		}
		if calls.Add(1) > int64(n) {
			return fmt.Errorf("%w: crash after %d records at %s (%s)", ErrInjected, n, point, detail)
		}
		return nil
	}
}

// Chain combines hooks; the first non-nil error wins (later hooks still
// do not run after an error, preserving injection ordering).
func Chain(hooks ...Hook) Hook {
	return func(point Point, detail string) error {
		for _, h := range hooks {
			if h == nil {
				continue
			}
			if err := h(point, detail); err != nil {
				return err
			}
		}
		return nil
	}
}
