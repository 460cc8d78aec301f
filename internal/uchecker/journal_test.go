package uchecker

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/scanjournal"
)

// batchTargets is the 4-app corpus sweep the crash-safety acceptance
// criteria run over.
func batchTargets(t *testing.T) []Target {
	t.Helper()
	names := []string{
		"Uploadify 1.0.0",
		"Adblock Blocker 0.0.1",
		"MailCWP 1.100",
		"Avatar Uploader 6.x-1.2",
	}
	var targets []Target
	for _, n := range names {
		app, ok := corpus.ByName(n)
		if !ok {
			t.Fatalf("missing corpus app %q", n)
		}
		targets = append(targets, Target{Name: app.Name, Sources: app.Sources})
	}
	return targets
}

func batchOpts(workers int) Options {
	return Options{Workers: workers, Budgets: Budgets{MaxPaths: 20000}}
}

// batchFingerprints is the deterministic identity of a batch result.
func batchFingerprints(t *testing.T, reps []*AppReport) []string {
	t.Helper()
	out := make([]string, len(reps))
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("report %d is nil", i)
		}
		out[i] = reportFingerprint(t, rep)
	}
	return out
}

// TestCrashResumeMatrix is the tentpole acceptance test: kill the batch
// (via the faultinject JournalWrite seam) after each of the N journal
// write boundaries, resume from the crashed journal, and require the
// merged reports to be byte-identical to an uninterrupted run — at
// Workers=1 and Workers=4.
func TestCrashResumeMatrix(t *testing.T) {
	targets := batchTargets(t)
	ctx := context.Background()

	for _, workers := range []int{1, 4} {
		opts := batchOpts(workers)

		// Uninterrupted baseline (journaled, to learn the record count).
		baseDir := t.TempDir()
		baseOpts := opts
		baseOpts.Journal = filepath.Join(baseDir, "base.journal")
		baseReps, baseStats, err := NewScanner(baseOpts).ScanBatchJournaled(ctx, targets)
		if err != nil {
			t.Fatalf("workers=%d: uninterrupted run: %v", workers, err)
		}
		if baseStats.Scanned != len(targets) {
			t.Fatalf("workers=%d: scanned = %d, want %d", workers, baseStats.Scanned, len(targets))
		}
		want := batchFingerprints(t, baseReps)
		rec, err := scanjournal.Read(baseOpts.Journal)
		if err != nil || rec.Corrupt != nil {
			t.Fatalf("workers=%d: baseline journal unreadable: %v / %v", workers, err, rec.Corrupt)
		}
		records := len(rec.Records) // 1 manifest + start/finish per target
		if wantRecords := 1 + 2*len(targets); records != wantRecords {
			t.Fatalf("workers=%d: baseline journal has %d records, want %d", workers, records, wantRecords)
		}

		for n := 0; n < records; n++ {
			dir := t.TempDir()
			journal := filepath.Join(dir, "scan.journal")

			// Crash run: the journal write seam kills the pipeline after
			// n successful records.
			crashOpts := opts
			crashOpts.Journal = journal
			crashOpts.FaultHook = faultinject.FailAfter(faultinject.JournalWrite, "", n)
			crashReps, _, crashErr := NewScanner(crashOpts).ScanBatchJournaled(ctx, targets)
			if !errors.Is(crashErr, faultinject.ErrInjected) {
				t.Fatalf("workers=%d n=%d: crash run err = %v, want injected crash", workers, n, crashErr)
			}
			if len(crashReps) != len(targets) {
				t.Fatalf("workers=%d n=%d: crash run returned %d reports", workers, n, len(crashReps))
			}
			for i, rep := range crashReps {
				if rep == nil {
					t.Fatalf("workers=%d n=%d: crash run dropped report %d", workers, n, i)
				}
			}
			// Snapshot the crashed journal before the resume mutates it.
			crashJournal, err := scanjournal.Read(journal)
			if err != nil {
				t.Fatalf("workers=%d n=%d: reading crashed journal: %v", workers, n, err)
			}

			// Resume run: same journal as both source and sink — the
			// production idiom.
			resumeOpts := opts
			resumeOpts.Journal = journal
			resumeOpts.ResumeFrom = journal
			resumeReps, stats, err := NewScanner(resumeOpts).ScanBatchJournaled(ctx, targets)
			if err != nil {
				t.Fatalf("workers=%d n=%d: resume: %v", workers, n, err)
			}
			if got := batchFingerprints(t, resumeReps); !equalStrings(got, want) {
				t.Errorf("workers=%d n=%d: resumed reports differ from uninterrupted run", workers, n)
			}
			if stats.Replayed+stats.Scanned != len(targets) {
				t.Errorf("workers=%d n=%d: replayed %d + scanned %d != %d targets",
					workers, n, stats.Replayed, stats.Scanned, len(targets))
			}
			// Every complete finish record that made it to disk must be
			// replayed, not re-scanned. With Workers=4 the start/finish
			// interleaving varies, so count the actual finish records in
			// the crashed journal rather than assuming sequential order.
			finishOnDisk := finishRecords(t, crashJournal)
			if stats.Replayed != finishOnDisk {
				t.Errorf("workers=%d n=%d: replayed = %d, want %d (finish records on disk)",
					workers, n, stats.Replayed, finishOnDisk)
			}

			// A second resume replays everything: the resumed journal is
			// itself a complete, healthy sweep record.
			again, stats2, err := NewScanner(resumeOpts).ScanBatchJournaled(ctx, targets)
			if err != nil {
				t.Fatalf("workers=%d n=%d: second resume: %v", workers, n, err)
			}
			if stats2.Replayed != len(targets) || stats2.Scanned != 0 {
				t.Errorf("workers=%d n=%d: second resume replayed %d / scanned %d, want %d / 0",
					workers, n, stats2.Replayed, stats2.Scanned, len(targets))
			}
			if got := batchFingerprints(t, again); !equalStrings(got, want) {
				t.Errorf("workers=%d n=%d: second resume drifted", workers, n)
			}
		}
	}
}

// TestBatchJournalFaultIsCrash: one failed journal append aborts the
// batch, at the write seam (nothing reached disk) and at the sync seam
// (the record reached disk but its fsync failed). The append is never
// retried, so the journal holds no duplicate finish, and a same-file
// resume reports no corruption and merges to the uninterrupted result.
func TestBatchJournalFaultIsCrash(t *testing.T) {
	targets := batchTargets(t)
	ctx := context.Background()
	opts := batchOpts(1)
	baseReps, _, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFingerprints(t, baseReps)

	for _, point := range []faultinject.Point{faultinject.JournalWrite, faultinject.JournalSync} {
		t.Run(string(point), func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "scan.journal")
			crashOpts := opts
			crashOpts.Journal = journal
			crashOpts.FaultHook = faultinject.ErrorN(point, "finish:"+targets[1].Name, 1)
			if _, _, err := NewScanner(crashOpts).ScanBatchJournaled(ctx, targets); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("batch err = %v, want the injected fault", err)
			}
			crashed, err := scanjournal.Read(journal)
			if err != nil {
				t.Fatal(err)
			}

			resumeOpts := opts
			resumeOpts.Journal = journal
			resumeOpts.ResumeFrom = journal
			reps, stats, err := NewScanner(resumeOpts).ScanBatchJournaled(ctx, targets)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(stats.Failures) != 0 {
				t.Errorf("resume failures = %+v, want none", stats.Failures)
			}
			if got := batchFingerprints(t, reps); !equalStrings(got, want) {
				t.Error("resumed reports differ from an uninterrupted run")
			}
			if finished := finishRecords(t, crashed); stats.Replayed != finished || stats.Scanned != len(targets)-finished {
				t.Errorf("resume replayed %d, scanned %d; want %d and %d",
					stats.Replayed, stats.Scanned, finished, len(targets)-finished)
			}
		})
	}
}

// finishRecords counts the complete finish records salvaged from a
// crashed journal — the exact set a resume must replay.
func finishRecords(t *testing.T, rec *scanjournal.Recovery) int {
	t.Helper()
	n := 0
	for _, r := range rec.Records {
		if r.Type == scanjournal.TypeFinish {
			n++
		}
	}
	return n
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchJournalCorruptionRecovery: a resumed sweep whose journal is
// corrupt salvages every valid prefix record, surfaces exactly one
// FailJournalCorrupt, re-scans the lost tail, and still merges to the
// uninterrupted result. The corrupt tail is compacted away, so the next
// resume is fully replayed and clean.
func TestBatchJournalCorruptionRecovery(t *testing.T) {
	targets := batchTargets(t)
	ctx := context.Background()
	opts := batchOpts(1)

	dir := t.TempDir()
	journal := filepath.Join(dir, "scan.journal")
	jopts := opts
	jopts.Journal = journal
	baseReps, _, err := NewScanner(jopts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFingerprints(t, baseReps)

	// Tear the final record (the last target's finish).
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ropts := jopts
	ropts.ResumeFrom = journal
	reps, stats, err := NewScanner(ropts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatalf("corrupt resume must not fail: %v", err)
	}
	corrupt := 0
	for _, fl := range stats.Failures {
		if fl.Class == FailJournalCorrupt {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Fatalf("FailJournalCorrupt count = %d, want exactly 1 (failures: %v)", corrupt, stats.Failures)
	}
	if stats.Replayed != len(targets)-1 || stats.Scanned != 1 {
		t.Errorf("replayed %d / scanned %d, want %d / 1", stats.Replayed, stats.Scanned, len(targets)-1)
	}
	if stats.Metrics["journal_records_corrupt"] != 1 {
		t.Errorf("journal_records_corrupt = %d, want 1", stats.Metrics["journal_records_corrupt"])
	}
	if got := batchFingerprints(t, reps); !equalStrings(got, want) {
		t.Error("corrupt-resume reports differ from uninterrupted run")
	}

	// Compaction healed the journal: the next resume is clean and fully
	// replayed.
	reps2, stats2, err := NewScanner(ropts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range stats2.Failures {
		if fl.Class == FailJournalCorrupt {
			t.Fatalf("journal still corrupt after compacting resume: %v", fl)
		}
	}
	if stats2.Replayed != len(targets) {
		t.Errorf("post-heal replayed = %d, want %d", stats2.Replayed, len(targets))
	}
	if got := batchFingerprints(t, reps2); !equalStrings(got, want) {
		t.Error("post-heal reports drifted")
	}
}

// TestBatchResumeAfterOptionsChange is the regression for the
// options-change resume bug: the same-file -journal/-resume idiom,
// re-run with different budgets, must re-scan under the new options and
// then — on the *next* resume — replay the new-options reports, not the
// stale ones, and must not misread the legitimate re-finishes as
// duplicate-finish corruption.
func TestBatchResumeAfterOptionsChange(t *testing.T) {
	targets := batchTargets(t)[:2]
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "scan.journal")

	optsA := batchOpts(1)
	optsA.Journal = journal
	optsA.ResumeFrom = journal
	if _, statsA, err := NewScanner(optsA).ScanBatchJournaled(ctx, targets); err != nil {
		t.Fatal(err)
	} else if statsA.Scanned != len(targets) {
		t.Fatalf("first run scanned %d, want %d", statsA.Scanned, len(targets))
	}

	// Options change: fingerprint shifts, everything re-scans.
	optsB := optsA
	optsB.Budgets.MaxPaths = 19999
	repsB, statsB, err := NewScanner(optsB).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Scanned != len(targets) || statsB.Replayed != 0 {
		t.Fatalf("options-change run: scanned %d / replayed %d, want %d / 0",
			statsB.Scanned, statsB.Replayed, len(targets))
	}
	wantB := batchFingerprints(t, repsB)

	// Resume under the new options: the fpB epoch's reports replay; the
	// fpA-epoch finishes are neither replayed nor mistaken for
	// duplicate-finish corruption.
	repsC, statsC, err := NewScanner(optsB).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range statsC.Failures {
		if fl.Class == FailJournalCorrupt {
			t.Fatalf("legitimate options-change resume reported corruption: %v", fl)
		}
	}
	if statsC.Replayed != len(targets) || statsC.Scanned != 0 {
		t.Errorf("post-change resume: replayed %d / scanned %d, want %d / 0",
			statsC.Replayed, statsC.Scanned, len(targets))
	}
	if got := batchFingerprints(t, repsC); !equalStrings(got, wantB) {
		t.Error("post-change resume replayed stale-options reports")
	}
}

// TestBatchSemanticCorruptionCompaction is the regression for the
// compact-only-on-byte-corruption bug: semantic corruption (here a
// well-framed duplicate finish record) must also be compacted away on a
// same-file resume, so the *next* resume folds clean instead of
// stopping at the same offending record forever.
func TestBatchSemanticCorruptionCompaction(t *testing.T) {
	targets := batchTargets(t)[:2]
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "scan.journal")
	opts := batchOpts(1)
	opts.Journal = journal
	opts.ResumeFrom = journal

	reps1, _, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFingerprints(t, reps1)

	// Append a byte-valid but semantically corrupt duplicate finish.
	payload, err := json.Marshal(scanjournal.Record{
		V: scanjournal.FormatVersion, Type: scanjournal.TypeFinish,
		Name: targets[0].Name, Index: 0, Report: json.RawMessage(`{"Name":"evil-twin"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(scanjournal.Frame(payload)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First resume: exactly one FailJournalCorrupt, full salvage.
	reps2, stats2, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := 0
	for _, fl := range stats2.Failures {
		if fl.Class == FailJournalCorrupt {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Fatalf("FailJournalCorrupt count = %d, want 1 (failures: %v)", corrupt, stats2.Failures)
	}
	if stats2.Replayed != len(targets) {
		t.Errorf("replayed = %d, want %d (all finishes precede the corruption)", stats2.Replayed, len(targets))
	}
	if got := batchFingerprints(t, reps2); !equalStrings(got, want) {
		t.Error("corrupt-resume reports drifted")
	}

	// Second resume: compaction removed the semantic damage — no
	// recurring corruption, everything replays.
	reps3, stats3, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range stats3.Failures {
		if fl.Class == FailJournalCorrupt {
			t.Fatalf("semantic corruption survived the compacting resume: %v", fl)
		}
	}
	if stats3.Replayed != len(targets) || stats3.Scanned != 0 {
		t.Errorf("post-heal resume: replayed %d / scanned %d, want %d / 0",
			stats3.Replayed, stats3.Scanned, len(targets))
	}
	if got := batchFingerprints(t, reps3); !equalStrings(got, want) {
		t.Error("post-heal reports drifted")
	}
}

// TestBatchDuplicateTargetNames: two batch targets sharing a name (as
// loadTarget produces for a/foo.php and b/foo.php) journal and resume
// as distinct slots — each replays its own report, and the two finish
// records are not misread as duplicate-finish corruption.
func TestBatchDuplicateTargetNames(t *testing.T) {
	targets := []Target{
		{Name: "foo", Sources: map[string]string{"a/foo.php": "<?php move_uploaded_file($_FILES['f']['tmp_name'], 'up/' . $_FILES['f']['name']);"}},
		{Name: "foo", Sources: map[string]string{"b/foo.php": "<?php echo 1;"}},
	}
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "scan.journal")
	opts := batchOpts(1)
	opts.Journal = journal
	opts.ResumeFrom = journal

	reps1, _, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFingerprints(t, reps1)
	if want[0] == want[1] {
		t.Fatal("test targets must produce distinguishable reports")
	}

	reps2, stats2, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range stats2.Failures {
		if fl.Class == FailJournalCorrupt {
			t.Fatalf("same-name targets misread as journal corruption: %v", fl)
		}
	}
	if stats2.Replayed != len(targets) || stats2.Scanned != 0 {
		t.Errorf("resume: replayed %d / scanned %d, want %d / 0", stats2.Replayed, stats2.Scanned, len(targets))
	}
	if got := batchFingerprints(t, reps2); !equalStrings(got, want) {
		t.Errorf("same-name slots cross-replayed: got %v, want %v", got, want)
	}
}

// TestBatchCacheCorrectness is the cache acceptance criterion: a second
// run over an unchanged corpus hits for every target with byte-identical
// reports; touching one file invalidates exactly that target; changing
// any budget option invalidates everything.
func TestBatchCacheCorrectness(t *testing.T) {
	targets := batchTargets(t)
	ctx := context.Background()
	opts := batchOpts(2)
	opts.CacheDir = filepath.Join(t.TempDir(), "cache")

	reps1, stats1, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.CacheHits != 0 || stats1.CacheMisses != len(targets) || stats1.Scanned != len(targets) {
		t.Fatalf("cold run: hits=%d misses=%d scanned=%d", stats1.CacheHits, stats1.CacheMisses, stats1.Scanned)
	}
	want := batchFingerprints(t, reps1)

	reps2, stats2, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != len(targets) || stats2.Scanned != 0 {
		t.Fatalf("warm run: hits=%d scanned=%d, want %d/0", stats2.CacheHits, stats2.Scanned, len(targets))
	}
	if stats2.Metrics["cache_hits"] != int64(len(targets)) {
		t.Errorf("cache_hits counter = %d, want %d", stats2.Metrics["cache_hits"], len(targets))
	}
	if got := batchFingerprints(t, reps2); !equalStrings(got, want) {
		t.Error("cached reports not byte-identical")
	}

	// Touch one file of one target: exactly that target misses.
	touched := make([]Target, len(targets))
	copy(touched, targets)
	srcs := make(map[string]string, len(targets[2].Sources))
	for k, v := range targets[2].Sources {
		srcs[k] = v
	}
	for k := range srcs {
		srcs[k] += "\n"
		break
	}
	touched[2] = Target{Name: targets[2].Name, Sources: srcs}
	_, stats3, err := NewScanner(opts).ScanBatchJournaled(ctx, touched)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.CacheHits != len(targets)-1 || stats3.CacheMisses != 1 || stats3.Scanned != 1 {
		t.Errorf("touched run: hits=%d misses=%d scanned=%d, want %d/1/1",
			stats3.CacheHits, stats3.CacheMisses, stats3.Scanned, len(targets)-1)
	}

	// Change a budget option: the fingerprint shifts, everything misses.
	bopts := opts
	bopts.Budgets.MaxPaths = 19999
	_, stats4, err := NewScanner(bopts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats4.CacheHits != 0 || stats4.Scanned != len(targets) {
		t.Errorf("budget-change run: hits=%d scanned=%d, want 0/%d", stats4.CacheHits, stats4.Scanned, len(targets))
	}
}

// TestBatchCacheReadFault: a broken cache (injected read fault) degrades
// to re-scans with correct reports — never to wrong ones.
func TestBatchCacheReadFault(t *testing.T) {
	targets := batchTargets(t)
	ctx := context.Background()
	opts := batchOpts(2)
	opts.CacheDir = filepath.Join(t.TempDir(), "cache")

	reps1, _, err := NewScanner(opts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	want := batchFingerprints(t, reps1)

	fopts := opts
	fopts.FaultHook = faultinject.ErrorOn(faultinject.CacheRead, "")
	reps, stats, err := NewScanner(fopts).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 || stats.Scanned != len(targets) {
		t.Errorf("faulted cache: hits=%d scanned=%d, want 0/%d", stats.CacheHits, stats.Scanned, len(targets))
	}
	if got := batchFingerprints(t, reps); !equalStrings(got, want) {
		t.Error("faulted-cache reports drifted")
	}
}

// TestScanBatchCancelledTargets is the cancellation satellite: an
// already-cancelled or mid-batch-cancelled context must yield a
// FailCancelled report for every unstarted target — never a silently
// dropped or nil slice entry — at Workers=1 and Workers=4.
func TestScanBatchCancelledTargets(t *testing.T) {
	targets := batchTargets(t)

	for _, workers := range []int{1, 4} {
		// Already-cancelled context: every target is schedule-cancelled.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		reps := NewScanner(batchOpts(workers)).ScanBatch(ctx, targets)
		if len(reps) != len(targets) {
			t.Fatalf("workers=%d: %d reports for %d targets", workers, len(reps), len(targets))
		}
		for i, rep := range reps {
			if rep == nil {
				t.Fatalf("workers=%d: nil report %d under cancellation", workers, i)
			}
			if rep.Name != targets[i].Name {
				t.Errorf("workers=%d: report %d = %q, want %q", workers, i, rep.Name, targets[i].Name)
			}
			if !hasFailureClass(rep, FailCancelled) {
				t.Errorf("workers=%d: report %d lacks a FailCancelled failure: %+v", workers, i, rep.Failures)
			}
			if len(rep.FailureCounts) != 0 {
				t.Errorf("workers=%d: cancellation polluted FailureCounts: %v", workers, rep.FailureCounts)
			}
		}
	}

	// Mid-batch cancellation at Workers=1: the first target completes,
	// the context dies, and every remaining target still appears in the
	// slice with a typed schedule cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := batchOpts(1)
	first := targets[0].Name
	opts.Trace = obs.NewRecorder()
	opts.Trace.OnEnd = func(sp obs.Span) {
		if sp.Name == "scan" && sp.Attr("app") == first {
			cancel()
		}
	}
	reps := NewScanner(opts).ScanBatch(ctx, targets)
	if hasFailureClass(reps[0], FailCancelled) {
		t.Errorf("first target was cancelled; want it complete: %+v", reps[0].Failures)
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] == nil {
			t.Fatalf("mid-batch cancel dropped report %d", i)
		}
		if !hasFailureClass(reps[i], FailCancelled) {
			t.Errorf("unstarted target %d lacks FailCancelled: %+v", i, reps[i].Failures)
		}
		if len(reps[i].Roots) != 0 {
			t.Errorf("unstarted target %d was partially scanned (%d roots)", i, len(reps[i].Roots))
		}
	}

	// Mid-batch cancellation at Workers=4: all targets may already be in
	// flight; the contract is weaker (no silent drops, cancellation
	// typed) but must still hold.
	ctx4, cancel4 := context.WithCancel(context.Background())
	opts4 := batchOpts(4)
	opts4.Trace = obs.NewRecorder()
	opts4.Trace.OnEnd = func(sp obs.Span) {
		if sp.Name == "parse" {
			cancel4() // die while scans are mid-flight
		}
	}
	reps4 := NewScanner(opts4).ScanBatch(ctx4, targets)
	cancel4()
	for i, rep := range reps4 {
		if rep == nil {
			t.Fatalf("workers=4 mid-batch cancel: nil report %d", i)
		}
	}
}

func hasFailureClass(rep *AppReport, class FailureClass) bool {
	for _, fl := range rep.Failures {
		if fl.Class == class {
			return true
		}
	}
	return false
}

// TestOptionsFingerprint: worker count and hooks must not shift the
// fingerprint (reports are worker-independent), while any budget knob
// must.
func TestOptionsFingerprint(t *testing.T) {
	base := NewScanner(Options{Workers: 1}).optionsFingerprint()
	if got := NewScanner(Options{Workers: 8}).optionsFingerprint(); got != base {
		t.Error("worker count shifted the fingerprint")
	}
	diffs := []Options{
		{Budgets: Budgets{MaxPaths: 7}},
		{Budgets: Budgets{LoopUnroll: 5}},
		{MaxRetries: 3},
		{MaxRetries: -1},
		{Extensions: []string{".php", ".phtml"}},
		{DisableDegraded: true},
		{DisableLocality: true},
		{ModelAdminGating: true},
		{RootTimeout: time.Second},
		{MaxRootFailures: 9},
	}
	seen := map[string]bool{base: true}
	for i, o := range diffs {
		fp := NewScanner(o).optionsFingerprint()
		if seen[fp] {
			t.Errorf("option set %d does not discriminate the fingerprint: %s", i, fp)
		}
		seen[fp] = true
	}
}

// TestOptionsFingerprintGolden pins the default fingerprint byte-for-byte.
// The Budgets consolidation deliberately prints the materialized per-layer
// option structs so journals and cache entries written before the
// consolidation stay replayable; any drift in this string silently
// invalidates every cached sweep, so it is a golden value, not a derived
// one.
func TestOptionsFingerprintGolden(t *testing.T) {
	const want = "v1 ext=[.php .php5] " +
		"interp={MaxPaths:0 MaxObjects:0 LoopUnroll:0 MaxCallDepth:0} " +
		"solver={MaxCubes:0 MaxAssignments:0 MaxStrCandidates:0 MaxIntCandidates:0} " +
		"noloc=false admin=false keepsmt=false retries=1 root-timeout=0s " +
		"max-root-failures=0 nodeg=false nointern=false"
	if got := NewScanner(Options{}).optionsFingerprint(); got != want {
		t.Errorf("default fingerprint drifted:\n got: %s\nwant: %s", got, want)
	}
}

// TestOptionsFingerprintEngine: the fingerprint carries no engine
// token. Tree-engine journals never had one, so they keep replaying;
// journals written with the retired `-engine vm` carry " engine=vm" and
// therefore rescan (see TestBatchResumeFingerprintStableAcrossDefaults).
func TestOptionsFingerprintEngine(t *testing.T) {
	for _, opts := range []Options{{}, {Interproc: interp.InterprocSummary}} {
		if fp := NewScanner(opts).optionsFingerprint(); strings.Contains(fp, "engine=") {
			t.Errorf("fingerprint carries an engine token: %s", fp)
		}
	}
}

// TestBatchResumeFingerprintStableAcrossDefaults is the resume regression
// for the Budgets redesign: a journal written under the implicit defaults
// must replay — not rescan — under every explicit spelling of those same
// defaults, while a journal written by the retired bytecode-VM engine
// (manifest fingerprint suffixed " engine=vm") must rescan everything.
func TestBatchResumeFingerprintStableAcrossDefaults(t *testing.T) {
	targets := batchTargets(t)[:2]
	ctx := context.Background()
	journal := filepath.Join(t.TempDir(), "scan.journal")

	optsA := batchOpts(1)
	optsA.Journal = journal
	optsA.ResumeFrom = journal
	repsA, statsA, err := NewScanner(optsA).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Scanned != len(targets) {
		t.Fatalf("first run scanned %d, want %d", statsA.Scanned, len(targets))
	}
	want := batchFingerprints(t, repsA)

	// Same defaults, spelled explicitly: pure replay.
	optsB := optsA
	optsB.Budgets = Budgets{MaxPaths: optsA.Budgets.MaxPaths}
	repsB, statsB, err := NewScanner(optsB).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Replayed != len(targets) || statsB.Scanned != 0 {
		t.Errorf("explicit-defaults resume: replayed %d / scanned %d, want %d / 0",
			statsB.Replayed, statsB.Scanned, len(targets))
	}
	if !equalStrings(batchFingerprints(t, repsB), want) {
		t.Error("explicit-defaults resume changed the reports")
	}

	// A journal written with -engine vm: same records, but the manifest
	// carries the engine token. Its reports are not replayed.
	rec, err := scanjournal.Read(journal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Records {
		if rec.Records[i].Type == scanjournal.TypeManifest {
			rec.Records[i].Fingerprint += " engine=vm"
		}
	}
	if err := scanjournal.Compact(journal, nil, rec.Records); err != nil {
		t.Fatal(err)
	}
	repsC, statsC, err := NewScanner(optsA).ScanBatchJournaled(ctx, targets)
	if err != nil {
		t.Fatal(err)
	}
	if statsC.Scanned != len(targets) || statsC.Replayed != 0 {
		t.Errorf("vm-journal resume: scanned %d / replayed %d, want %d / 0",
			statsC.Scanned, statsC.Replayed, len(targets))
	}
	if got := statsC.Metrics["journal_fingerprint_mismatch"]; got != 1 {
		t.Errorf("journal_fingerprint_mismatch = %d, want 1", got)
	}
	if !equalStrings(batchFingerprints(t, repsC), want) {
		t.Error("rescan of a vm journal changed the reports")
	}
}

// TestTargetLoadFailures: loader-stage failures attached to a Target
// surface on the report and in FailureCounts — a partially loaded app is
// visibly partial.
func TestTargetLoadFailures(t *testing.T) {
	tgt := Target{
		Name:    "partial",
		Sources: map[string]string{"ok.php": "<?php echo 1;"},
		LoadFailures: []Failure{{
			Root: "secrets.php", Stage: StageLoad, Class: FailLoad,
			Err: "unreadable: permission denied",
		}},
	}
	rep, err := NewScanner(Options{}).Scan(context.Background(), tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFailureClass(rep, FailLoad) {
		t.Fatalf("load failure lost: %+v", rep.Failures)
	}
	if rep.FailureCounts[FailLoad] != 1 {
		t.Errorf("FailureCounts[load] = %d, want 1", rep.FailureCounts[FailLoad])
	}
	if rep.FailureCounts[FailParse] != 0 {
		t.Errorf("I/O load failure accounted as a parse failure: %v", rep.FailureCounts)
	}
}
