// Package shardcoord is the distributed-scanning coordinator: it
// partitions a large target list into leased shards and coordinates N
// worker processes sharing one filesystem — no server, no network, just
// the crash-safe journal machinery promoted into a coordination
// substrate.
//
// Layout of a coordination directory:
//
//	coord.lock            flock'd file serializing lease transactions
//	plan.json             the shard plan (fingerprint, targets, shard size)
//	coord.journal         CRC-framed lease journal (scanjournal format)
//	shard-NNNN.tT.journal per-attempt scan journals, token-qualified
//	merged.json           the folded, deterministic merged report
//
// Every lease transaction is read-fold-validate-append under an
// exclusive flock: the worker re-reads the whole coordination journal,
// folds it into per-shard state, validates its intent against that
// state, and only then appends. The flock is crash-safe (the kernel
// releases it when the holder dies, locked regions never outlive a
// process) and works equally between processes and between goroutines
// (each Open creates its own file description).
//
// # Fencing tokens, not clocks
//
// Each claim of a shard carries a token exactly one greater than the
// shard's previous token. Renew, release and finish records are only
// valid at the shard's current token, enforced at append time under the
// lock — so when a stalled worker is presumed dead and its shard is
// reclaimed (token bumped), the zombie's later writes fail with
// ErrFenced instead of corrupting state. Lease expiry itself is decided
// by observation, never by comparing wall clocks across processes: an
// observer snapshots a shard's (token, generation), waits locally, and
// re-snapshots; an unchanged pair means no heartbeat landed in between
// and the lease may be reclaimed. A false positive (the holder was
// alive, merely slow) is safe: the fenced holder abandons the shard,
// and the reclaimer's re-scan is deterministic, so the merged report is
// unchanged.
//
// # Determinism
//
// Scan work happens in token-qualified shard journals
// (shard-0003.t2.journal), so two attempts at one shard never
// interleave bytes in a single file. A reclaimer resumes from the
// previous attempt's journal (cross-file resume replays finished
// targets byte-identically) and writes its own. The merged report folds
// the finishing attempt's journal for every shard in global target
// order — byte-identical to an uninterrupted single-process sweep at
// any worker count and under any kill schedule.
package shardcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/scanjournal"
)

// File names inside a coordination directory.
const (
	LockFile    = "coord.lock"
	PlanFile    = "plan.json"
	JournalFile = "coord.journal"
	MergedFile  = "merged.json"
)

// ErrFenced is returned when a lease operation is superseded: the shard
// was reclaimed (or finished) under a newer token, and this holder's
// writes are rejected. A fenced worker must abandon the shard without
// publishing anything.
var ErrFenced = errors.New("shardcoord: lease fenced by a newer token")

// Plan is the immutable shard plan of one coordination epoch.
type Plan struct {
	// Fingerprint is the scan-options fingerprint; it plays the same
	// epoch role as the scan journal's manifest fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Targets is the full, ordered target list.
	Targets []string `json:"targets"`
	// ShardSize is the number of consecutive targets per shard.
	ShardSize int `json:"shardSize"`
}

// Shards is the shard count: ceil(len(Targets) / ShardSize).
func (p *Plan) Shards() int {
	if p.ShardSize <= 0 {
		return 0
	}
	return (len(p.Targets) + p.ShardSize - 1) / p.ShardSize
}

// Range returns the half-open global target range [lo, hi) of shard s.
func (p *Plan) Range(s int) (lo, hi int) {
	lo = s * p.ShardSize
	hi = lo + p.ShardSize
	if hi > len(p.Targets) {
		hi = len(p.Targets)
	}
	return lo, hi
}

// State is a shard's lease state.
type State int

const (
	// Free: never claimed, or released by its last holder. Claimable.
	Free State = iota
	// Held: leased; heartbeats bump the generation.
	Held
	// Finished: published. Terminal.
	Finished
)

func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Held:
		return "held"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ShardState is one shard's folded lease state.
type ShardState struct {
	State State
	// Token is the shard's current fencing token: the token of the
	// latest claim (0 = never claimed). It survives release, so the next
	// claim is always strictly greater.
	Token int64
	// Gen is the renew generation within the current claim.
	Gen int64
	// Worker is the current (or, for Finished, publishing) holder.
	Worker string
}

// LeaseView is the folded state of a coordination journal.
type LeaseView struct {
	Fingerprint string
	Targets     []string
	ShardSize   int
	Shards      []ShardState
	// Salvaged is the number of records folded in; Corrupt is non-nil
	// when the fold stopped early (byte-level or protocol corruption).
	Salvaged int
	Corrupt  *scanjournal.Corruption
}

// Plan reconstructs the epoch's plan from the view.
func (v *LeaseView) Plan() *Plan {
	return &Plan{Fingerprint: v.Fingerprint, Targets: v.Targets, ShardSize: v.ShardSize}
}

// Done reports whether every shard is finished.
func (v *LeaseView) Done() bool {
	for _, st := range v.Shards {
		if st.State != Finished {
			return false
		}
	}
	return len(v.Shards) > 0
}

// FoldLeases folds a coordination journal's salvaged records into
// per-shard lease state, mirroring scanjournal.Fold's salvage-everything
// discipline: protocol violations (a claim that does not advance the
// token by exactly one, a renew/release/finish under a stale token or
// out-of-order generation, any record for an out-of-range shard, scan
// records in a coordination journal) stop the fold at the offending
// record and surface exactly one Corruption — never a panic. Everything
// before it is trusted; the caller compacts the journal down to the
// salvaged prefix before appending.
//
// A manifest with a new fingerprint opens a new epoch and discards all
// lease state, exactly like the scan journal's options-change semantics.
func FoldLeases(rec *scanjournal.Recovery) *LeaseView {
	v := &LeaseView{Corrupt: rec.Corrupt}
	corrupt := func(i int, format string, args ...any) *LeaseView {
		v.Corrupt = &scanjournal.Corruption{Record: i, Reason: fmt.Sprintf(format, args...)}
		return v
	}
	if len(rec.Records) == 0 && v.Corrupt == nil {
		return corrupt(0, "empty coordination journal: no manifest record")
	}
	for i, r := range rec.Records {
		if i == 0 && r.Type != scanjournal.TypeManifest {
			return corrupt(0, "coordination journal does not begin with a manifest record (got %q)", r.Type)
		}
		if r.Type != scanjournal.TypeManifest {
			if r.Shard < 0 || r.Shard >= len(v.Shards) {
				return corrupt(i, "%s record for out-of-range shard %d (%d shards)", r.Type, r.Shard, len(v.Shards))
			}
		}
		switch r.Type {
		case scanjournal.TypeManifest:
			if r.ShardSize <= 0 || len(r.Targets) == 0 {
				return corrupt(i, "coordination manifest without a shard plan (shardSize=%d, %d targets)", r.ShardSize, len(r.Targets))
			}
			if i > 0 && r.Fingerprint == v.Fingerprint {
				// Same epoch re-announced (e.g. a worker restarting after
				// the plan already exists): the plan must be identical, and
				// no lease state is touched.
				if r.ShardSize != v.ShardSize || !equalStrings(r.Targets, v.Targets) {
					return corrupt(i, "manifest re-announces fingerprint %q with a different plan", r.Fingerprint)
				}
			} else {
				// New epoch (or the first manifest): reset all lease state.
				v.Fingerprint = r.Fingerprint
				v.Targets = r.Targets
				v.ShardSize = r.ShardSize
				v.Shards = make([]ShardState, v.Plan().Shards())
			}
		case scanjournal.TypeLeaseClaim:
			st := &v.Shards[r.Shard]
			if st.State == Finished {
				return corrupt(i, "claim of finished shard %d", r.Shard)
			}
			if r.Token != st.Token+1 {
				return corrupt(i, "claim of shard %d with token %d (want %d)", r.Shard, r.Token, st.Token+1)
			}
			*st = ShardState{State: Held, Token: r.Token, Gen: 0, Worker: r.Worker}
		case scanjournal.TypeLeaseRenew:
			st := &v.Shards[r.Shard]
			if st.State != Held || r.Token != st.Token {
				return corrupt(i, "renew of shard %d under token %d (state %s, token %d)", r.Shard, r.Token, st.State, st.Token)
			}
			if r.Gen != st.Gen+1 {
				return corrupt(i, "renew of shard %d with generation %d (want %d)", r.Shard, r.Gen, st.Gen+1)
			}
			st.Gen = r.Gen
		case scanjournal.TypeLeaseRelease:
			st := &v.Shards[r.Shard]
			if st.State != Held || r.Token != st.Token {
				return corrupt(i, "release of shard %d under token %d (state %s, token %d)", r.Shard, r.Token, st.State, st.Token)
			}
			*st = ShardState{State: Free, Token: st.Token}
		case scanjournal.TypeShardFinish:
			st := &v.Shards[r.Shard]
			if st.State != Held || r.Token != st.Token {
				return corrupt(i, "finish of shard %d under token %d (state %s, token %d)", r.Shard, r.Token, st.State, st.Token)
			}
			*st = ShardState{State: Finished, Token: st.Token, Worker: r.Worker}
		default:
			return corrupt(i, "scan record %q in a coordination journal", r.Type)
		}
		v.Salvaged++
	}
	return v
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

// Coord is a handle on a coordination directory. It holds no state
// beyond the plan: every operation re-reads the journal under the lock,
// so any number of Coords (across processes or goroutines) may operate
// on one directory concurrently.
type Coord struct {
	dir   string
	hook  faultinject.Hook
	retry scanjournal.RetryPolicy
	plan  *Plan
}

// Dir returns the coordination directory.
func (c *Coord) Dir() string { return c.dir }

// Plan returns the epoch's shard plan.
func (c *Coord) Plan() *Plan { return c.plan }

// Init creates (or joins) a coordination directory for the given plan.
// It is idempotent and concurrent-safe: the first worker writes
// plan.json and the journal manifest; later workers with the same
// fingerprint join the existing epoch; a worker with a different
// fingerprint opens a new epoch, discarding all lease state (the scan
// journal's options-change semantics, lifted to the fleet). A same-
// fingerprint plan that differs in targets or shard size is an error —
// two workers disagreeing about the work list must not silently race.
//
// hook, when non-nil, fires at the faultinject lease/journal seams of
// every subsequent operation on the returned Coord.
func Init(dir, fingerprint string, targets []string, shardSize int, hook faultinject.Hook) (*Coord, error) {
	if shardSize <= 0 {
		return nil, fmt.Errorf("shardcoord: shard size %d", shardSize)
	}
	if len(targets) == 0 {
		return nil, errors.New("shardcoord: empty target list")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Coord{
		dir:   dir,
		hook:  hook,
		retry: scanjournal.DefaultRetry,
		plan:  &Plan{Fingerprint: fingerprint, Targets: targets, ShardSize: shardSize},
	}
	unlock, err := scanjournal.Lock(filepath.Join(dir, LockFile))
	if err != nil {
		return nil, err
	}
	defer unlock()

	// Reconcile plan.json.
	planPath := filepath.Join(dir, PlanFile)
	if data, err := os.ReadFile(planPath); err == nil {
		var existing Plan
		if err := json.Unmarshal(data, &existing); err == nil && existing.Fingerprint == fingerprint {
			if existing.ShardSize != shardSize || !equalStrings(existing.Targets, targets) {
				return nil, fmt.Errorf("shardcoord: %s holds fingerprint %q with a different plan", dir, fingerprint)
			}
		}
		// Different fingerprint (or undecodable plan): fall through and
		// rewrite — the manifest append below opens the new epoch.
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if err := scanjournal.AtomicWriteHook(planPath, hook, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(c.plan)
	}); err != nil {
		return nil, fmt.Errorf("shardcoord: write plan: %w", err)
	}

	// Reconcile the coordination journal: append the epoch manifest
	// unless the journal's current epoch already is this plan.
	jpath := filepath.Join(dir, JournalFile)
	view, err := c.foldLocked(jpath)
	if err != nil {
		return nil, err
	}
	if view.Fingerprint == fingerprint && view.Salvaged > 0 {
		return c, nil // joining an existing epoch
	}
	w, err := scanjournal.OpenWriter(jpath, hook)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if err := c.append(w, scanjournal.Record{
		Type:        scanjournal.TypeManifest,
		Fingerprint: fingerprint,
		Targets:     targets,
		ShardSize:   shardSize,
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// Open joins an existing coordination directory, reading the plan from
// plan.json.
func Open(dir string, hook faultinject.Hook) (*Coord, error) {
	data, err := os.ReadFile(filepath.Join(dir, PlanFile))
	if err != nil {
		return nil, err
	}
	var plan Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		return nil, fmt.Errorf("shardcoord: decode plan: %w", err)
	}
	if plan.Shards() == 0 {
		return nil, fmt.Errorf("shardcoord: %s: degenerate plan", dir)
	}
	return &Coord{dir: dir, hook: hook, retry: scanjournal.DefaultRetry, plan: &plan}, nil
}

// foldLocked reads and folds the coordination journal (caller holds the
// lock). Corruption — a torn tail from a worker killed mid-append, or a
// protocol violation — is healed on the spot: the journal is compacted
// down to its salvaged prefix so the next append lands on a clean
// boundary. A missing journal folds to an empty view.
func (c *Coord) foldLocked(jpath string) (*LeaseView, error) {
	rec, err := scanjournal.Read(jpath)
	if os.IsNotExist(err) {
		return &LeaseView{}, nil
	}
	if err != nil {
		return nil, err
	}
	view := FoldLeases(rec)
	if view.Corrupt != nil || rec.Corrupt != nil {
		if err := scanjournal.CompactHook(jpath, c.hook, rec.Records[:view.Salvaged]); err != nil {
			return nil, fmt.Errorf("shardcoord: compact coordination journal: %w", err)
		}
	}
	return view, nil
}

// txn runs one read-fold-validate-append transaction under the
// directory lock.
func (c *Coord) txn(fn func(v *LeaseView, w *scanjournal.Writer) error) error {
	unlock, err := scanjournal.Lock(filepath.Join(c.dir, LockFile))
	if err != nil {
		return err
	}
	defer unlock()
	jpath := filepath.Join(c.dir, JournalFile)
	view, err := c.foldLocked(jpath)
	if err != nil {
		return err
	}
	if view.Fingerprint != c.plan.Fingerprint {
		// The directory moved to a different epoch (options changed under
		// us): every lease this Coord could reference is gone.
		return fmt.Errorf("%w: epoch changed to fingerprint %q", ErrFenced, view.Fingerprint)
	}
	w, err := scanjournal.OpenWriter(jpath, c.hook)
	if err != nil {
		return err
	}
	defer w.Close()
	return fn(view, w)
}

// fire invokes the fault-injection hook at a lease seam.
func (c *Coord) fire(p faultinject.Point, detail string) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(p, detail)
}

// append appends one record with the bounded deterministic-jitter retry
// — transient I/O contention costs a jittered sleep, not the lease.
func (c *Coord) append(w *scanjournal.Writer, rec scanjournal.Record) error {
	_, err := c.retry.Do(fmt.Sprintf("%s/%d.t%d", rec.Type, rec.Shard, rec.Token), func() error {
		return w.Append(rec)
	})
	return err
}

// leaseDetail is the detail string of the lease faultinject seams.
func leaseDetail(shard int, token int64, worker string) string {
	return fmt.Sprintf("shard-%d.t%d:%s", shard, token, worker)
}

// Lease is a held shard lease. It is not safe for concurrent use by
// multiple goroutines (hold it on the worker loop; heartbeat via Renew
// from one goroutine at a time).
type Lease struct {
	c *Coord
	// Shard is the leased shard index; Token its fencing token.
	Shard int
	Token int64
	// Gen is the last renew generation this holder wrote.
	Gen int64
	// Worker is the holder's identity (diagnostic only; fencing is by
	// token, never by name).
	Worker string
}

// ClaimFree claims the lowest-numbered Free shard. It returns (nil, nil)
// when no shard is Free — the caller then either observes Held shards
// for staleness (see Reclaim) or, if all shards are Finished, proceeds
// to the merge.
func (c *Coord) ClaimFree(worker string) (*Lease, error) {
	var lease *Lease
	err := c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		for s := range v.Shards {
			if v.Shards[s].State != Free {
				continue
			}
			token := v.Shards[s].Token + 1
			if err := c.fire(faultinject.LeaseClaim, leaseDetail(s, token, worker)); err != nil {
				return err
			}
			if err := c.append(w, scanjournal.Record{
				Type: scanjournal.TypeLeaseClaim, Shard: s, Token: token, Worker: worker,
			}); err != nil {
				return err
			}
			lease = &Lease{c: c, Shard: s, Token: token, Worker: worker}
			return nil
		}
		return nil
	})
	return lease, err
}

// Reclaim takes over a presumed-dead holder's shard. The caller must
// have observed the shard Held at exactly (token, gen) across a local
// waiting interval (see the package doc on observation-based expiry);
// Reclaim re-validates that nothing moved under the lock and claims the
// shard at token+1, fencing the previous holder. It returns (nil, nil)
// when the shard moved on — renewed, released, finished or already
// reclaimed — in which case the presumed death was refuted and nothing
// was written.
func (c *Coord) Reclaim(worker string, shard int, token, gen int64) (*Lease, error) {
	var lease *Lease
	err := c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		if shard < 0 || shard >= len(v.Shards) {
			return fmt.Errorf("shardcoord: reclaim of out-of-range shard %d", shard)
		}
		st := v.Shards[shard]
		if st.State != Held || st.Token != token || st.Gen != gen {
			return nil // the holder is alive (or the shard finished): refuted
		}
		next := token + 1
		if err := c.fire(faultinject.LeaseClaim, leaseDetail(shard, next, worker)); err != nil {
			return err
		}
		if err := c.append(w, scanjournal.Record{
			Type: scanjournal.TypeLeaseClaim, Shard: shard, Token: next, Worker: worker,
		}); err != nil {
			return err
		}
		lease = &Lease{c: c, Shard: shard, Token: next, Worker: worker}
		return nil
	})
	return lease, err
}

// Renew heartbeats the lease, bumping its generation. ErrFenced means
// the shard was reclaimed (or the epoch changed): the holder must
// abandon the shard immediately and publish nothing.
func (l *Lease) Renew() error {
	return l.c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		st := v.Shards[l.Shard]
		if st.State != Held || st.Token != l.Token {
			return fmt.Errorf("%w: shard %d is %s at token %d (lease token %d)",
				ErrFenced, l.Shard, st.State, st.Token, l.Token)
		}
		if err := l.c.fire(faultinject.LeaseRenew, leaseDetail(l.Shard, l.Token, l.Worker)); err != nil {
			return err
		}
		if err := l.c.append(w, scanjournal.Record{
			Type: scanjournal.TypeLeaseRenew, Shard: l.Shard, Token: l.Token, Gen: st.Gen + 1, Worker: l.Worker,
		}); err != nil {
			return err
		}
		l.Gen = st.Gen + 1
		return nil
	})
}

// Release returns the shard to Free (graceful drain: the work is
// incomplete but the journal written so far survives for the next
// claimant to resume from). ErrFenced means a reclaimer already owns it.
func (l *Lease) Release() error {
	return l.c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		st := v.Shards[l.Shard]
		if st.State != Held || st.Token != l.Token {
			return fmt.Errorf("%w: shard %d is %s at token %d (lease token %d)",
				ErrFenced, l.Shard, st.State, st.Token, l.Token)
		}
		return l.c.append(w, scanjournal.Record{
			Type: scanjournal.TypeLeaseRelease, Shard: l.Shard, Token: l.Token, Worker: l.Worker,
		})
	})
}

// Finish publishes the shard: its scan journal at this token becomes
// the shard's authoritative report source and the shard goes terminal.
// The faultinject.ShardPublish seam fires first — a crash between
// scanning and publishing leaves the shard Held under a lease that will
// go stale and be reclaimed; the reclaimer resumes from this attempt's
// journal and re-publishes identically. ErrFenced: a reclaimer owns the
// shard, publish nothing.
func (l *Lease) Finish() error {
	// The seam fires before the lock is taken: a crashing hook models
	// dying between scanning and publishing, and a *sleeping* hook
	// models a paused (to-be-zombie) worker — which must not stall the
	// fleet's transactions, so it cannot sleep inside the flock. The
	// fencing validation below therefore sees any reclaim that happened
	// during the pause.
	if err := l.c.fire(faultinject.ShardPublish, leaseDetail(l.Shard, l.Token, l.Worker)); err != nil {
		return err
	}
	return l.c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		st := v.Shards[l.Shard]
		if st.State != Held || st.Token != l.Token {
			return fmt.Errorf("%w: shard %d is %s at token %d (lease token %d)",
				ErrFenced, l.Shard, st.State, st.Token, l.Token)
		}
		return l.c.append(w, scanjournal.Record{
			Type: scanjournal.TypeShardFinish, Shard: l.Shard, Token: l.Token, Worker: l.Worker,
		})
	})
}

// Snapshot folds the coordination journal under the lock and returns the
// per-shard view. Observers use two Snapshots separated by a local wait
// to decide lease staleness.
func (c *Coord) Snapshot() (*LeaseView, error) {
	var view *LeaseView
	err := c.txn(func(v *LeaseView, w *scanjournal.Writer) error {
		view = v
		return nil
	})
	return view, err
}

// ShardJournal is the scan-journal path of one (shard, token) attempt.
// Token-qualified naming is what keeps a zombie's writes out of a
// reclaimer's journal: two attempts never share a file.
func (c *Coord) ShardJournal(shard int, token int64) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard-%04d.t%d.journal", shard, token))
}

// PrevShardJournal returns the newest existing earlier attempt's journal
// for a shard (the reclaim resume source), or "" when this is the
// shard's first attempt.
func (c *Coord) PrevShardJournal(shard int, token int64) string {
	for t := token - 1; t >= 1; t-- {
		path := c.ShardJournal(shard, t)
		if _, err := os.Stat(path); err == nil {
			return path
		}
	}
	return ""
}

// Reports folds every finished shard's authoritative scan journal and
// returns the serialized per-target reports in global target order. It
// fails if any shard is unfinished, if a shard journal was written under
// a different options fingerprint, or if a published journal is missing
// a target's finish record — a Finish record is a promise that the
// attempt journal is complete, so any gap is corruption, not a resume.
func (c *Coord) Reports() ([]json.RawMessage, error) {
	view, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make([]json.RawMessage, len(c.plan.Targets))
	for s, st := range view.Shards {
		if st.State != Finished {
			return nil, fmt.Errorf("shardcoord: shard %d is %s, not finished", s, st.State)
		}
		rec, err := scanjournal.Read(c.ShardJournal(s, st.Token))
		if err != nil {
			return nil, fmt.Errorf("shardcoord: shard %d journal: %w", s, err)
		}
		rp := scanjournal.Fold(rec)
		if rp.Corrupt != nil {
			return nil, fmt.Errorf("shardcoord: published shard %d journal corrupt: %s", s, rp.Corrupt)
		}
		if rp.Fingerprint != c.plan.Fingerprint {
			return nil, fmt.Errorf("shardcoord: shard %d journal fingerprint %q does not match plan %q", s, rp.Fingerprint, c.plan.Fingerprint)
		}
		lo, hi := c.plan.Range(s)
		for g := lo; g < hi; g++ {
			raw, ok := rp.Finished[scanjournal.TargetKey(g-lo, c.plan.Targets[g])]
			if !ok {
				return nil, fmt.Errorf("shardcoord: published shard %d journal missing target %d (%s)", s, g-lo, c.plan.Targets[g])
			}
			out[g] = raw
		}
	}
	return out, nil
}

// EncodeMerged is the canonical merged-report encoding: a JSON array of
// the per-target reports, one line. Both the distributed fold and the
// single-process baseline encode through here, so byte-identity of the
// two is a comparison of outputs, not a re-derivation.
func EncodeMerged(reports []json.RawMessage) ([]byte, error) {
	data, err := json.Marshal(reports)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteMerged folds all finished shards into the deterministic merged
// report at merged.json. canon, when non-nil, maps each raw report to
// its canonical form (the scanner layer zeroes wall-clock fields there).
// The faultinject.CoordFold seam fires before the write; the write
// itself is atomic, so a crash mid-fold leaves any previous merged
// report intact. Any finished worker may fold — last writer wins with
// identical bytes.
func (c *Coord) WriteMerged(canon func(i int, raw json.RawMessage) (json.RawMessage, error)) (string, error) {
	raws, err := c.Reports()
	if err != nil {
		return "", err
	}
	if canon != nil {
		for i, raw := range raws {
			cr, err := canon(i, raw)
			if err != nil {
				return "", fmt.Errorf("shardcoord: canonicalize report %d (%s): %w", i, c.plan.Targets[i], err)
			}
			raws[i] = cr
		}
	}
	data, err := EncodeMerged(raws)
	if err != nil {
		return "", err
	}
	path := filepath.Join(c.dir, MergedFile)
	if err := c.fire(faultinject.CoordFold, path); err != nil {
		return "", err
	}
	if err := scanjournal.AtomicWriteHook(path, c.hook, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return "", err
	}
	return path, nil
}
