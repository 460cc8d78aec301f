// The distributed worker loop: one process of a registry-scale fleet.
//
// RunWorker joins a coordination directory (internal/shardcoord), then
// loops: claim a free shard lease, scan it with the existing
// crash-safe batch machinery (token-qualified shard journal + the
// shared content-addressed cache), heartbeat the lease from a side
// goroutine, publish the shard, repeat. When no shard is free it
// observes held leases for staleness — two snapshots separated by a
// local wait, never a cross-process clock comparison — and reclaims
// abandoned ones, resuming from the dead worker's journal. When every
// shard is finished it folds the deterministic merged report.
//
// Failure semantics are crash semantics throughout: an injected fault
// or journal error makes RunWorker return immediately without cleanup,
// exactly like kill -9 — leases are recovered by observation and
// fencing, never by this process's goodwill. Graceful drain (SIGTERM)
// is the one cooperative path: in-flight targets finish and journal,
// held leases are released, unstarted work stays for the fleet.
package uchecker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shardcoord"
)

// WorkerOptions configures one RunWorker process.
type WorkerOptions struct {
	// CoordDir is the shared coordination directory.
	CoordDir string
	// WorkerID names this worker in lease records (diagnostic only —
	// fencing is by token). Default: "w<pid>".
	WorkerID string
	// ShardSize is the number of consecutive targets per shard.
	// Default: 8.
	ShardSize int
	// RenewInterval is the lease heartbeat period. Default: 250ms.
	RenewInterval time.Duration
	// LeaseCheckInterval is the observation window for presuming a
	// lease holder dead: a held shard whose (token, generation) is
	// unchanged across this interval is reclaimed. It must comfortably
	// exceed RenewInterval — a too-short window merely costs a useless
	// reclaim attempt (fencing keeps even a false positive safe).
	// Default: 1s.
	LeaseCheckInterval time.Duration
	// Drain, when closed, drains the worker: in-flight targets finish
	// and journal, held leases are released, and RunWorker returns with
	// Stats.Drained set.
	Drain <-chan struct{}
}

// WorkerStats summarizes one RunWorker call.
type WorkerStats struct {
	// Worker is the resolved worker ID.
	Worker string
	// ShardsScanned counts shards this worker published.
	ShardsScanned int
	// ShardsReclaimed counts published shards that were taken over from
	// a presumed-dead holder (subset of ShardsScanned).
	ShardsReclaimed int
	// Fenced counts leases this worker lost to a reclaimer.
	Fenced int
	// Drained is set when the worker exited via graceful drain.
	Drained bool
	// MergedPath is non-empty when this worker wrote the merged report.
	MergedPath string
	// Metrics holds the lease/shard counters (lease_claims,
	// lease_renewals, lease_reclaims, lease_fenced, shards_scanned,
	// shards_drained, worker_targets_scanned, journal_append_retries,
	// coord_folds).
	Metrics obs.Metrics
}

// CanonicalReport serializes a report with its wall-clock fields
// (Seconds, MemoryMB) zeroed: the form under which a distributed merge
// is byte-identical to a single-process sweep, and a restarted daemon's
// results to an uninterrupted run's.
func CanonicalReport(rep *AppReport) (json.RawMessage, error) {
	c := *rep
	c.Seconds = 0
	c.MemoryMB = 0
	return json.Marshal(&c)
}

// MergedBaseline encodes an in-order report slice exactly as the
// distributed fold encodes merged.json: canonical per-target reports
// in one JSON array. The registry-sim acceptance compares a fleet's
// merged report byte-for-byte against the baseline of an uninterrupted
// single-process run.
func MergedBaseline(reports []*AppReport) ([]byte, error) {
	raws := make([]json.RawMessage, len(reports))
	for i, rep := range reports {
		var err error
		if raws[i], err = CanonicalReport(rep); err != nil {
			return nil, err
		}
	}
	return shardcoord.EncodeMerged(raws)
}

// CoordCacheDir is the shared content-addressed cache inside a
// coordination directory.
func CoordCacheDir(coordDir string) string { return filepath.Join(coordDir, "cache") }

// ReadMerged loads a fleet's merged report (WorkerStats.MergedPath)
// back into the in-order per-target report slice. Reports are in
// canonical form: the wall-clock fields (Seconds, MemoryMB) read zero.
func ReadMerged(path string) ([]*AppReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*AppReport
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("uchecker: merged report %s: %w", path, err)
	}
	return reps, nil
}

// RunWorker runs one fleet worker over targets (the full global list —
// every worker passes the same list; shardcoord validates agreement).
// It returns when every shard is finished (after folding the merged
// report), when the drain signal fires, or on crash-semantics errors.
func (s *Scanner) RunWorker(ctx context.Context, targets []Target, wo WorkerOptions) (*WorkerStats, error) {
	if wo.CoordDir == "" {
		return nil, errors.New("uchecker: RunWorker needs a coordination directory")
	}
	if wo.WorkerID == "" {
		wo.WorkerID = fmt.Sprintf("w%d", os.Getpid())
	}
	if wo.ShardSize <= 0 {
		wo.ShardSize = 8
	}
	if wo.RenewInterval <= 0 {
		wo.RenewInterval = 250 * time.Millisecond
	}
	if wo.LeaseCheckInterval <= 0 {
		wo.LeaseCheckInterval = time.Second
	}
	stats := &WorkerStats{Worker: wo.WorkerID, Metrics: obs.NewMetrics()}

	names := make([]string, len(targets))
	byName := make(map[string]Target, len(targets))
	for i, t := range targets {
		names[i] = t.Name
		byName[t.Name] = t
	}
	coord, err := shardcoord.Init(wo.CoordDir, s.optionsFingerprint(), names, wo.ShardSize, s.opts.FaultHook)
	if err != nil {
		return stats, err
	}
	if err := os.MkdirAll(CoordCacheDir(wo.CoordDir), 0o755); err != nil {
		return stats, err
	}

	drained := func() bool {
		if wo.Drain == nil {
			return false
		}
		select {
		case <-wo.Drain:
			return true
		default:
			return false
		}
	}
	// wait sleeps d, cut short by drain or cancellation.
	wait := func(d time.Duration) {
		timer := time.NewTimer(d)
		defer timer.Stop()
		var drain <-chan struct{}
		if wo.Drain != nil {
			drain = wo.Drain
		}
		select {
		case <-timer.C:
		case <-drain:
		case <-ctx.Done():
		}
	}

	var renewals atomic.Int64
	defer func() {
		stats.Metrics.Add("lease_renewals", renewals.Load())
		stats.Metrics.Add("shards_scanned", int64(stats.ShardsScanned))
		stats.Metrics.Add("lease_reclaims", int64(stats.ShardsReclaimed))
		stats.Metrics.Add("lease_fenced", int64(stats.Fenced))
	}()

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if drained() {
			stats.Drained = true
			return stats, nil
		}

		// Acquire a lease: a free shard if any, else observe held shards
		// for staleness and reclaim.
		lease, err := coord.ClaimFree(wo.WorkerID)
		if err != nil {
			return stats, err
		}
		reclaimedLease := false
		if lease == nil {
			view, err := coord.Snapshot()
			if err != nil {
				return stats, err
			}
			if view.Done() {
				path, err := coord.WriteMerged(func(i int, raw json.RawMessage) (json.RawMessage, error) {
					rep, err := decodeReport(raw)
					if err != nil {
						return nil, err
					}
					return CanonicalReport(rep)
				})
				if err != nil {
					return stats, err
				}
				stats.MergedPath = path
				stats.Metrics.Add("coord_folds", 1)
				return stats, nil
			}
			// Observation-based expiry: remember every held shard's
			// (token, gen), wait locally, and reclaim the first one whose
			// pair did not move. No wall clocks cross process boundaries.
			type observed struct {
				shard      int
				token, gen int64
			}
			var candidates []observed
			for sh, st := range view.Shards {
				if st.State == shardcoord.Held {
					candidates = append(candidates, observed{sh, st.Token, st.Gen})
				}
			}
			wait(wo.LeaseCheckInterval)
			for _, cand := range candidates {
				l, err := coord.Reclaim(wo.WorkerID, cand.shard, cand.token, cand.gen)
				if err != nil {
					return stats, err
				}
				if l != nil {
					lease = l
					reclaimedLease = true
					break
				}
			}
			if lease == nil {
				continue // every holder heartbeated (or the fleet finished); re-check
			}
		}
		stats.Metrics.Add("lease_claims", 1)

		// Scan the shard under the lease, heartbeating from the side.
		lo, hi := coord.Plan().Range(lease.Shard)
		shardTargets := make([]Target, 0, hi-lo)
		for _, name := range coord.Plan().Targets[lo:hi] {
			t, ok := byName[name]
			if !ok {
				return stats, fmt.Errorf("uchecker: plan target %q not in this worker's target list", name)
			}
			shardTargets = append(shardTargets, t)
		}

		shardCtx, cancelShard := context.WithCancel(ctx)
		var fenced atomic.Bool
		var hbErr error
		var hbMu sync.Mutex
		hbStop := make(chan struct{})
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			ticker := time.NewTicker(wo.RenewInterval)
			defer ticker.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-shardCtx.Done():
					return
				case <-ticker.C:
					if err := lease.Renew(); err != nil {
						if errors.Is(err, shardcoord.ErrFenced) {
							// Reclaimed under us: abandon the shard. The
							// reclaimer's re-scan is deterministic, so
							// nothing is lost but our own work.
							fenced.Store(true)
						} else {
							hbMu.Lock()
							hbErr = err
							hbMu.Unlock()
						}
						cancelShard()
						return
					}
					renewals.Add(1)
				}
			}
		}()

		var shardSpan *obs.ActiveSpan
		if s.opts.Trace != nil {
			shardSpan = s.opts.Trace.Start(0, "shard",
				obs.A("worker", wo.WorkerID),
				obs.A("shard", strconv.Itoa(lease.Shard)),
				obs.A("token", strconv.FormatInt(lease.Token, 10)))
		}
		endSpan := func(outcome string) {
			if shardSpan != nil {
				shardSpan.End(obs.A("outcome", outcome))
			}
		}

		// The shard scanner is this scanner's options pointed at the
		// token-qualified journal (resuming from the previous attempt's,
		// if any) and the shared cache. Journal/cache/drain do not
		// participate in the options fingerprint, so the shard journal's
		// manifest matches the plan epoch.
		opts := s.opts
		opts.Journal = coord.ShardJournal(lease.Shard, lease.Token)
		opts.ResumeFrom = coord.PrevShardJournal(lease.Shard, lease.Token)
		opts.CacheDir = CoordCacheDir(wo.CoordDir)
		opts.Drain = wo.Drain
		sub := NewScanner(opts)
		_, bs, batchErr := sub.ScanBatchJournaled(shardCtx, shardTargets)
		close(hbStop)
		hbWG.Wait()
		cancelShard()
		stats.Metrics.Merge(bs.Metrics)
		stats.Metrics.Add("worker_targets_scanned", int64(bs.Scanned))

		if fenced.Load() {
			stats.Fenced++
			endSpan("fenced")
			continue
		}
		hbMu.Lock()
		crashErr := hbErr
		hbMu.Unlock()
		if crashErr != nil {
			endSpan("crashed")
			return stats, crashErr
		}
		if batchErr != nil {
			endSpan("crashed")
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			// Crash semantics: no release, no cleanup — the lease goes
			// stale and the fleet reclaims it, exactly as after kill -9.
			return stats, batchErr
		}

		complete := bs.Scanned+bs.Replayed+bs.CacheHits == len(shardTargets)
		if complete {
			err := lease.Finish()
			switch {
			case errors.Is(err, shardcoord.ErrFenced):
				stats.Fenced++
				endSpan("fenced")
				continue
			case err != nil:
				endSpan("crashed")
				return stats, err
			}
			stats.ShardsScanned++
			if reclaimedLease {
				stats.ShardsReclaimed++
			}
			endSpan("finished")
			continue
		}

		// Incomplete without an error means the drain signal fired
		// mid-shard: finished targets are journaled, the rest stay. Hand
		// the lease back so the fleet can resume the shard immediately.
		stats.Metrics.Add("shards_drained", 1)
		endSpan("drained")
		if err := lease.Release(); err != nil && !errors.Is(err, shardcoord.ErrFenced) {
			return stats, err
		}
		stats.Drained = true
		return stats, nil
	}
}
