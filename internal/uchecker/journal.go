// Crash-safe batch scanning: the Scanner-side integration of the
// internal/scanjournal layer.
//
// A corpus sweep (Section IV-B screens thousands of plugins; the
// production target is millions) outlives the patience of any single
// process: OOM kills, node preemptions and plain SIGKILLs are routine.
// ScanBatchJournaled makes each completed per-target report durable the
// moment it exists — an append-only, checksummed, fsynced journal — so a
// killed sweep resumes by replaying finished targets byte-identically
// and re-scanning only the in-flight ones. A content-addressed result
// cache additionally skips targets whose sources and scan options are
// unchanged since a previous run.
//
// Determinism under resume: replayed reports are the recorded bytes of
// the original scan, re-scanned targets are deterministic given the same
// options (see the Workers determinism contract), and the returned
// slice is index-aligned with targets — so a crashed-and-resumed sweep
// merges to reports byte-identical (modulo wall-clock fields) to an
// uninterrupted run, at any worker count. The crash-matrix acceptance
// test kills the pipeline at every journal-write boundary to enforce
// exactly that.
package uchecker

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/scanjournal"
)

// BatchStats summarizes the crash-safety layer's work for one
// ScanBatchJournaled call. It is deliberately separate from the per-app
// AppReports: replayed and cached reports must stay byte-identical to
// their original scans, so batch-level accounting cannot live inside
// them.
type BatchStats struct {
	// Targets is the batch size.
	Targets int
	// Scanned counts targets that ran the full pipeline this call.
	Scanned int
	// Replayed counts targets served from the resume journal.
	Replayed int
	// CacheHits / CacheMisses count content-addressed cache lookups
	// (only targets not already replayed consult the cache).
	CacheHits   int
	CacheMisses int
	// SalvagedRecords is the number of valid journal records recovered
	// from Options.ResumeFrom.
	SalvagedRecords int
	// Failures are batch-layer failures: FailJournalCorrupt when
	// recovery salvaged a corrupt journal, FailInternal for non-fatal
	// cache write errors. Per-target failures stay on their AppReports.
	Failures []Failure
	// Metrics are the batch-layer counters (cache_hits, cache_misses,
	// journal_records_salvaged, journal_records_corrupt,
	// journal_replayed, batch_scanned, …), kept separate from the
	// deterministic per-app AppReport.Metrics.
	Metrics obs.Metrics
}

// optionsFingerprint is the configuration identity used by both the
// journal manifest and the cache key: any option that can alter a
// report's content participates (budgets, retries, extensions, the
// degradation ladder, admin gating), while options that provably cannot
// (Workers — reports are byte-identical at any worker count — and the
// observability hooks) do not. The scanjournal format version is
// included so a format bump invalidates everything at once.
func (s *Scanner) optionsFingerprint() string {
	o := s.opts
	// The budget set is fingerprinted through the materialized per-layer
	// option structs, byte-identically to the pre-Budgets format, so
	// journals and cache entries written before the consolidation stay
	// replayable. The interpreter slice is printed through a budget-field
	// projection rather than interp.Options directly: Options also carries
	// the summary set, which is identified by the interproc token below.
	iop := o.Budgets.interpOptions()
	ifp := struct{ MaxPaths, MaxObjects, LoopUnroll, MaxCallDepth int }{
		iop.MaxPaths, iop.MaxObjects, iop.LoopUnroll, iop.MaxCallDepth,
	}
	fp := fmt.Sprintf("v%d ext=%v interp=%+v solver=%+v noloc=%t admin=%t keepsmt=%t retries=%d root-timeout=%v max-root-failures=%d nodeg=%t nointern=%t",
		scanjournal.FormatVersion, o.Extensions, ifp, o.Budgets.solverOptions(),
		o.DisableLocality, o.ModelAdminGating, o.KeepSMT, o.MaxRetries,
		o.RootTimeout, o.MaxRootFailures, o.DisableDegraded, o.DisableIntern)
	// Appended-token discipline: inline mode (the default) omits the
	// token so pre-summary journals stay replayable, while summary mode
	// gets its own identity — its reports differ in path counters, so a
	// cross-mode cache hit must be impossible.
	if o.Interproc != "" && o.Interproc != interp.InterprocInline {
		fp += fmt.Sprintf(" interproc=%s", o.Interproc)
	}
	return fp
}

// OptionsFingerprint exposes the configuration identity to other
// persistence layers built on the same discipline — the scan daemon
// keys its job-result cache and its job journal's manifest with exactly
// this fingerprint, so a daemon restart under changed options re-scans
// instead of serving a stale report, and a daemon and a batch sweep
// sharing one cache directory share hits.
func (s *Scanner) OptionsFingerprint() string { return s.optionsFingerprint() }

// decodeReport unmarshals a journaled/cached report. The JSON round trip
// is stable: re-marshaling the decoded report reproduces the recorded
// bytes, which is what makes replayed reports byte-identical.
func decodeReport(raw json.RawMessage) (*AppReport, error) {
	rep := &AppReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// scheduleCancelledReport is the report of a target that never started:
// visible, typed, excluded from failure accounting — never a nil slot.
func scheduleCancelledReport(name, msg string) *AppReport {
	return &AppReport{
		Name:     name,
		Failures: []Failure{{Root: name, Stage: StageSchedule, Class: FailCancelled, Err: msg}},
	}
}

// ScanBatchJournaled is ScanBatch plus the crash-safety layer's summary
// and error. The reports slice is always fully populated and
// index-aligned with targets, even on abort.
//
// Error semantics are crash semantics: a journal open/append/sync
// failure means durability is gone, so the batch stops admitting new
// targets — completed reports are kept, unstarted targets get
// FailCancelled schedule reports, and the journal error is returned.
// (Recovery of a corrupt ResumeFrom journal is NOT an error: the valid
// prefix is salvaged, the rest re-scanned, and the corruption surfaces
// as a FailJournalCorrupt entry in BatchStats.Failures.) When the
// journal is healthy the returned error is ctx.Err(), mirroring Scan.
// Budgets that Budgets.Validate rejects abort the batch the same way
// before any target is scanned or journaled.
func (s *Scanner) ScanBatchJournaled(ctx context.Context, targets []Target) ([]*AppReport, *BatchStats, error) {
	reports := make([]*AppReport, len(targets))
	stats := &BatchStats{Targets: len(targets), Metrics: obs.NewMetrics()}
	if len(targets) == 0 {
		return reports, stats, nil
	}
	fp := s.optionsFingerprint()

	var (
		mu       sync.Mutex
		abortErr error
	)
	abort := func(err error) {
		mu.Lock()
		if abortErr == nil {
			abortErr = err
		}
		mu.Unlock()
	}
	aborted := func() error {
		mu.Lock()
		defer mu.Unlock()
		return abortErr
	}
	// abortAll cancels every unfilled slot and finalizes stats — the
	// "process crashed" epilogue for fatal setup errors.
	abortAll := func(err error) ([]*AppReport, *BatchStats, error) {
		abort(err)
		for i := range reports {
			if reports[i] == nil {
				reports[i] = scheduleCancelledReport(targets[i].Name, "batch aborted: "+err.Error())
			}
		}
		s.finishBatchStats(stats)
		return reports, stats, err
	}
	if err := s.opts.Budgets.Validate(); err != nil {
		return abortAll(err)
	}

	// --- Recovery: salvage the resume journal, if any ---
	var replayed map[string]json.RawMessage
	var salvaged []scanjournal.Record
	resumeCorrupt := false
	if s.opts.ResumeFrom != "" {
		rec, err := scanjournal.Read(s.opts.ResumeFrom)
		switch {
		case err != nil && os.IsNotExist(err):
			// First run of the sweep: nothing to resume.
		case err != nil:
			return abortAll(fmt.Errorf("resume journal: %w", err))
		default:
			rp := scanjournal.Fold(rec)
			salvaged = rec.Records[:rp.Salvaged]
			// Byte-level (torn tail, bad checksum) and semantic
			// (duplicate finish, unknown type, missing manifest)
			// corruption are handled identically: both leave an
			// untrusted region that same-file resume must compact away —
			// otherwise every later resume's Fold stops at the same
			// offending record and all subsequently appended work stays
			// permanently invisible.
			resumeCorrupt = rp.Corrupt != nil
			stats.SalvagedRecords = rp.Salvaged
			stats.Metrics.Add("journal_records_salvaged", int64(rp.Salvaged))
			if rp.Corrupt != nil {
				// Corruption never aborts recovery: salvage the prefix,
				// surface exactly one typed failure, re-scan the rest.
				stats.Metrics.Add("journal_records_corrupt", 1)
				stats.Failures = append(stats.Failures, Failure{
					Root:  s.opts.ResumeFrom,
					Stage: StageJournal,
					Class: FailJournalCorrupt,
					Err:   rp.Corrupt.String(),
				})
			}
			if rp.Fingerprint == fp {
				replayed = rp.Finished
			} else if len(rp.Finished) > 0 {
				// The journal was written under different options: its
				// reports are not this configuration's reports. Re-scan
				// everything (the cache is keyed the same way, so it
				// misses too).
				stats.Metrics.Add("journal_fingerprint_mismatch", 1)
			}
		}
	}

	// --- Cache ---
	var cache *scanjournal.Cache
	if s.opts.CacheDir != "" {
		c, err := scanjournal.OpenCache(s.opts.CacheDir, s.opts.FaultHook)
		if err != nil {
			return abortAll(err)
		}
		cache = c
	}

	// --- Journal writer ---
	var jw *scanjournal.Writer
	sameFile := s.opts.Journal != "" && s.opts.Journal == s.opts.ResumeFrom
	if s.opts.Journal != "" {
		if sameFile && resumeCorrupt {
			// New appends must not land after garbage — byte-level OR
			// semantic: atomically compact the journal down to its
			// salvaged (semantically valid) prefix first. A crash
			// mid-compaction leaves the original file intact (temp-file +
			// rename).
			if err := scanjournal.CompactHook(s.opts.Journal, s.opts.FaultHook, salvaged); err != nil {
				return abortAll(fmt.Errorf("journal compaction: %w", err))
			}
		}
		w, err := scanjournal.OpenWriter(s.opts.Journal, s.opts.FaultHook)
		if err != nil {
			return abortAll(err)
		}
		jw = w
		defer jw.Close()
	}
	// All appends absorb transient write faults with a bounded
	// deterministic-jitter retry before declaring crash semantics: a
	// single flaky O_APPEND no longer costs the whole batch. Persistent
	// faults still exhaust the budget and abort — the crash matrix
	// depends on that.
	appendRec := func(rec scanjournal.Record) error {
		retries, err := scanjournal.DefaultRetry.Do(rec.Type+":"+rec.Name, func() error {
			return jw.Append(rec)
		})
		if retries > 0 {
			mu.Lock()
			stats.Metrics.Add("journal_append_retries", int64(retries))
			mu.Unlock()
		}
		return err
	}
	if jw != nil {
		names := make([]string, len(targets))
		for i, t := range targets {
			names[i] = t.Name
		}
		if err := appendRec(scanjournal.Record{
			Type:        scanjournal.TypeManifest,
			Fingerprint: fp,
			Targets:     names,
			At:          time.Now(),
		}); err != nil {
			return abortAll(err)
		}
	}
	appendFinish := func(i int, name string, raw json.RawMessage) error {
		if jw == nil {
			return nil
		}
		return appendRec(scanjournal.Record{
			Type: scanjournal.TypeFinish, Name: name, Index: i, At: time.Now(), Report: raw,
		})
	}
	// drained reports whether the graceful-drain signal has fired. Unlike
	// ctx cancellation it only gates target admission: in-flight scans
	// finish and journal.
	drained := func() bool {
		if s.opts.Drain == nil {
			return false
		}
		select {
		case <-s.opts.Drain:
			return true
		default:
			return false
		}
	}

	// --- The sweep ---
	runTarget := func(i int) {
		name := targets[i].Name
		if err := aborted(); err != nil {
			reports[i] = scheduleCancelledReport(name, "batch aborted: "+err.Error())
			return
		}
		if ctx.Err() != nil {
			// The operator cancelled mid-batch: unstarted targets are
			// still accounted for — a typed FailCancelled report each,
			// never a silent drop from the returned slice.
			reports[i] = scheduleCancelledReport(name, "batch cancelled before target started")
			return
		}
		if drained() {
			// Graceful drain: this target never started, so it gets a
			// schedule report and — critically — NO journal record: the
			// next resume (or the shard's next lease holder) re-scans it.
			reports[i] = scheduleCancelledReport(name, "batch draining: target not started")
			return
		}
		// 1. Journal replay: a finish record from the resumed sweep is
		// the report, byte-identical. Replay is keyed by (index, name)
		// — never name alone — so two batch targets that share a name
		// (loadTarget derives names from base names) each replay their
		// own slot's report.
		if raw, ok := replayed[scanjournal.TargetKey(i, name)]; ok {
			if rep, err := decodeReport(raw); err == nil {
				reports[i] = rep
				mu.Lock()
				stats.Replayed++
				mu.Unlock()
				if !sameFile {
					// Resuming into a different journal file: re-journal
					// the replayed report so the new journal is
					// self-contained for the next resume.
					if err := appendFinish(i, name, raw); err != nil {
						abort(err)
					}
				}
				return
			}
			// A finish record that passed its checksum but does not decode
			// is treated as absent: fall through and re-scan.
		}
		// 2. Content-addressed cache: unchanged sources + unchanged
		// options = the previous run's bytes.
		var key string
		if cache != nil {
			key = scanjournal.CacheKey(targets[i].Sources, fp)
			if raw, ok := cache.Get(key); ok {
				if rep, err := decodeReport(raw); err == nil {
					reports[i] = rep
					mu.Lock()
					stats.CacheHits++
					mu.Unlock()
					if err := appendFinish(i, name, raw); err != nil {
						abort(err)
					}
					return
				}
			}
			mu.Lock()
			stats.CacheMisses++
			mu.Unlock()
		}
		// 3. Scan. The start record marks the target in-flight: if the
		// process dies before the finish record lands, resume re-scans it.
		if jw != nil {
			if err := appendRec(scanjournal.Record{
				Type: scanjournal.TypeStart, Name: name, Index: i, At: time.Now(),
			}); err != nil {
				abort(err)
				reports[i] = scheduleCancelledReport(name, "batch aborted: "+err.Error())
				return
			}
		}
		rep, _ := s.scan(ctx, targets[i], false)
		reports[i] = rep
		mu.Lock()
		stats.Scanned++
		mu.Unlock()
		if ctx.Err() != nil {
			// An interrupted scan is partial: journaling or caching it as
			// finished would replay a wrong report on resume. Leave the
			// start record dangling — resume re-scans.
			return
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return // unreachable for AppReport; the scan result still stands
		}
		if err := appendFinish(i, name, raw); err != nil {
			abort(err)
			return
		}
		if cache != nil {
			if err := cache.Put(key, raw); err != nil {
				// A failed Put costs a future re-scan, nothing else — but
				// it is visible, not silent.
				mu.Lock()
				stats.Metrics.Add("cache_put_failures", 1)
				stats.Failures = append(stats.Failures, Failure{
					Root: name, Stage: StageJournal, Class: FailInternal,
					Err: "cache put: " + err.Error(),
				})
				mu.Unlock()
			}
		}
	}

	fanOut(s.opts.Workers, len(targets), runTarget)

	s.finishBatchStats(stats)
	if err := aborted(); err != nil {
		return reports, stats, err
	}
	return reports, stats, ctx.Err()
}

// finishBatchStats folds the counters into the batch metric set.
func (s *Scanner) finishBatchStats(stats *BatchStats) {
	stats.Metrics.Add("batch_targets", int64(stats.Targets))
	stats.Metrics.Add("batch_scanned", int64(stats.Scanned))
	stats.Metrics.Add("journal_replayed", int64(stats.Replayed))
	stats.Metrics.Add("cache_hits", int64(stats.CacheHits))
	stats.Metrics.Add("cache_misses", int64(stats.CacheMisses))
}
