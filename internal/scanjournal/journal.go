// Package scanjournal is the crash-safety layer of batch scanning: an
// append-only, per-record-checksummed journal of sweep progress, a
// salvaging recovery path, and a content-addressed result cache.
//
// A production corpus sweep (the paper's Section IV-B crawl screens
// thousands of plugins; the ROADMAP north star is millions) runs long
// enough that the scanner *process* dying mid-sweep — OOM kill, node
// preemption, SIGKILL, power loss — is routine, not exceptional. Without
// durable state a killed sweep loses every completed report and restarts
// from zero. The journal makes each completed per-app report durable the
// moment it exists, so a resumed sweep replays finished targets and
// re-scans only the in-flight ones.
//
// # On-disk format
//
// A journal is a sequence of length-prefixed, CRC-checksummed frames:
//
//	[4-byte big-endian payload length][payload][4-byte big-endian CRC32(payload)]
//
// The payload is the JSON encoding of a Record; every record carries the
// format version. Frames are appended with O_APPEND and fsynced one by
// one, so after a crash the file is a valid prefix of frames followed by
// at most one torn frame. Snapshot compaction (rewriting a journal
// without its corrupt tail) goes through an atomic temp-file + rename,
// so a crash during compaction leaves the original journal intact.
//
// # Salvage semantics
//
// Recovery NEVER aborts on corruption. Read walks frames from the start
// and salvages every valid prefix record; the first torn frame, checksum
// mismatch, oversized length, undecodable payload or unknown format
// version stops the walk and is reported as a single Corruption — the
// caller classifies it (the scanner maps it to a FailJournalCorrupt
// failure) and proceeds with what was salvaged.
package scanjournal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// FormatVersion is the journal (and cache entry) format version. Records
// carrying any other version are classified as corruption: a journal
// written by a different format is salvage-only territory, never a
// crash.
const FormatVersion = 1

// maxRecordSize bounds a single record frame. A length prefix beyond it
// is treated as corruption (a torn or garbage frame), not an allocation
// request.
const maxRecordSize = 64 << 20

// Record types.
const (
	// TypeManifest opens a sweep: the options fingerprint and the target
	// list. Written first; a resumed sweep appending to the same journal
	// writes another manifest, which opens a new epoch — the latest
	// fingerprint wins on replay, and a fingerprint change discards the
	// finishes recorded under the previous options (see Fold).
	TypeManifest = "manifest"
	// TypeStart marks one target as in-flight. A start without a matching
	// finish means the process died mid-scan: the target is re-scanned on
	// resume.
	TypeStart = "start"
	// TypeFinish carries one target's complete report. Finish records are
	// what resume replays.
	TypeFinish = "finish"

	// Coordination record types (internal/shardcoord). A coordination
	// journal shares the frame format, the CRC discipline and the epoch
	// semantics of a scan journal, but records shard leases instead of
	// per-target reports. These types are *only* valid in a coordination
	// journal: a scan-journal Fold that meets one classifies it as
	// corruption (unknown record type) and salvages the prefix — lease
	// records can never silently masquerade as scan results.

	// TypeLeaseClaim claims one shard for one worker under a fencing
	// token strictly greater than every token previously issued for that
	// shard. The token — a logical generation counter, never a wall-clock
	// timestamp — is what rejects a resurrected zombie's stale writes.
	TypeLeaseClaim = "lease-claim"
	// TypeLeaseRenew is a lease heartbeat: the holder bumps the lease's
	// renew generation. Other workers decide "expired" by observing an
	// unchanged (token, generation) pair across their own local
	// observation window — two processes never compare clocks.
	TypeLeaseRenew = "lease-renew"
	// TypeLeaseRelease returns an unfinished shard to the pool (graceful
	// drain): any worker may re-claim it immediately with a fresh token.
	TypeLeaseRelease = "lease-release"
	// TypeShardFinish marks one shard's scan complete and its
	// token-qualified shard journal authoritative for the merge. It is
	// only appended after a fencing-token check, so a zombie's stale
	// finish never lands.
	TypeShardFinish = "shard-finish"

	// Job-lifecycle record types (internal/scand). A daemon job journal
	// shares the frame format and CRC discipline of a scan journal but
	// records the scan-as-a-service job state machine
	// (submitted → running → finished/failed/cancelled) instead of batch
	// progress. Like the coordination types, these are *only* valid in a
	// job journal: a scan-journal Fold that meets one classifies it as
	// corruption and salvages the prefix.

	// TypeJobSubmit admits one job: ID, tenant, target name and the
	// content-addressed result key. The submit record is what makes an
	// accepted job durable — a daemon restart re-enqueues every submitted
	// job that has no terminal record.
	TypeJobSubmit = "job-submit"
	// TypeJobStart marks one job in flight. A start without a terminal
	// record means the daemon died mid-scan: the job is re-enqueued on
	// restart (the scan is deterministic, so the re-run reproduces the
	// same report). A non-terminal job may carry several start records —
	// one per crash-and-resume cycle.
	TypeJobStart = "job-start"
	// TypeJobFinish carries one job's complete canonical report plus its
	// cache key. Terminal records are self-contained (ID, tenant, name,
	// key, report): job journals compacted by earlier versions hold
	// terminal records whose submit and start records were dropped.
	TypeJobFinish = "job-finish"
	// TypeJobFail terminates a job with a typed error (watchdog fired,
	// job deadline exceeded, spool lost). Self-contained like a finish.
	TypeJobFail = "job-fail"
	// TypeJobCancel terminates a job on operator request. Self-contained
	// like a finish.
	TypeJobCancel = "job-cancel"
)

// Record is one journal entry.
type Record struct {
	// V is the format version (FormatVersion when written by this code).
	V int `json:"v"`
	// Type is one of TypeManifest, TypeStart, TypeFinish.
	Type string `json:"type"`
	// Name is the target name (start/finish records).
	Name string `json:"name,omitempty"`
	// Index is the target's position in the batch (start/finish records).
	Index int `json:"index,omitempty"`
	// Fingerprint is the scan-options fingerprint (manifest records).
	// Replay only trusts finish records written under the current
	// fingerprint: resuming with different budgets re-scans everything.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Targets lists the batch's target names in order (manifest records).
	Targets []string `json:"targets,omitempty"`
	// At is the wall-clock write time, for operators reading journals.
	// It is informational only: no protocol decision ever compares At
	// values across processes (lease expiry runs on logical generation
	// counters precisely so clock skew between workers cannot matter).
	At time.Time `json:"at,omitempty"`
	// Report is the target's full serialized AppReport (finish records).
	Report json.RawMessage `json:"report,omitempty"`

	// Coordination fields (lease-claim / lease-renew / lease-release /
	// shard-finish records; see internal/shardcoord).

	// Shard is the shard index the lease record applies to.
	Shard int `json:"shard,omitempty"`
	// Worker identifies the claiming/renewing worker, for operators.
	Worker string `json:"worker,omitempty"`
	// Token is the lease's fencing token: strictly increasing per shard
	// across claims. Writes carrying a stale token are rejected.
	Token int64 `json:"token,omitempty"`
	// Gen is the lease's renew generation, bumped by each heartbeat.
	Gen int64 `json:"gen,omitempty"`
	// ShardSize is the shard-plan chunk size (coordination manifests).
	ShardSize int `json:"shardSize,omitempty"`

	// Job-lifecycle fields (job-submit / job-start / job-finish /
	// job-fail / job-cancel records; see internal/scand).

	// Job is the daemon job ID the record applies to.
	Job string `json:"job,omitempty"`
	// Tenant is the submitting tenant (admission-control identity).
	Tenant string `json:"tenant,omitempty"`
	// Key is the job result's content address in the shared cache.
	Key string `json:"key,omitempty"`
	// Error is the terminal error text (job-fail records).
	Error string `json:"error,omitempty"`
}

// Writer appends records to a journal file. It is safe for concurrent
// use: scanner workers finish targets on many goroutines. Every Append
// is written as one frame and fsynced before returning, so a record that
// Append accepted survives a crash.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	hook faultinject.Hook
}

// OpenWriter opens (creating if needed) a journal for appending. hook,
// when non-nil, fires at the faultinject.JournalWrite and
// faultinject.JournalSync seams of every Append — tests use it to kill
// the pipeline at each write boundary.
func OpenWriter(path string, hook faultinject.Hook) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("scanjournal: open %s: %w", path, err)
	}
	// The journal file's *existence* must be as durable as its records:
	// fsync the containing directory so a freshly created journal cannot
	// vanish after power loss (the per-record fsync only covers the
	// file's contents, not the directory entry pointing at it).
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("scanjournal: sync dir of %s: %w", path, err)
	}
	return &Writer{f: f, hook: hook}, nil
}

// Append frames, writes and fsyncs one record. On any error the
// journal must be considered crashed: the caller stops appending
// (recovery will salvage whatever made it to disk). Appending the
// record again is no recovery: a failed write may have left part of its
// frame on disk, a record whose fsync failed may be on disk already, and
// an fsync retried after a failure can succeed for pages the kernel has
// already dropped.
func (w *Writer) Append(rec Record) error {
	if rec.V == 0 {
		rec.V = FormatVersion
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("scanjournal: encode %s record: %w", rec.Type, err)
	}
	frame := Frame(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hook != nil {
		if err := w.hook(faultinject.JournalWrite, rec.Type+":"+rec.Name); err != nil {
			return fmt.Errorf("scanjournal: write %s record: %w", rec.Type, err)
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("scanjournal: write %s record: %w", rec.Type, err)
	}
	if w.hook != nil {
		if err := w.hook(faultinject.JournalSync, rec.Type+":"+rec.Name); err != nil {
			return fmt.Errorf("scanjournal: sync %s record: %w", rec.Type, err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("scanjournal: sync %s record: %w", rec.Type, err)
	}
	return nil
}

// Close closes the journal file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Frame builds WriteFrame's bytes in one buffer, so a journal append is
// a single write.
func Frame(payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(4 + len(payload) + 4)
	WriteFrame(&b, payload)
	return b.Bytes()
}

// WriteFrame writes a payload to w in the on-disk frame format: length
// prefix, payload, CRC32. The three parts go out in three writes, so
// the payload is never copied. It suits a file written whole before it
// is renamed into place (spool files, cache entries).
func WriteFrame(w io.Writer, payload []byte) error {
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], uint32(len(payload)))
	if _, err := w.Write(word[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(word[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(word[:])
	return err
}

// Unframe validates one complete frame and returns its payload. It is
// the cache's entry validator; journals use the incremental reader.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("scanjournal: frame truncated (%d bytes)", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	if n > maxRecordSize || int(n) != len(data)-8 {
		return nil, fmt.Errorf("scanjournal: frame length %d does not match %d payload bytes", n, len(data)-8)
	}
	payload := data[4 : 4+n]
	want := binary.BigEndian.Uint32(data[4+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("scanjournal: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// Corruption describes the first invalid region of a journal. Everything
// before it was salvaged; everything from Offset on is untrusted.
type Corruption struct {
	// Offset is the byte offset of the first bad frame.
	Offset int64
	// Record is the index of the first bad record (== number salvaged).
	Record int
	// Reason is a human-readable classification: torn record, checksum
	// mismatch, unknown format version, undecodable payload, …
	Reason string
}

func (c *Corruption) String() string {
	return fmt.Sprintf("record %d at byte %d: %s", c.Record, c.Offset, c.Reason)
}

// Recovery is the salvageable content of a journal.
type Recovery struct {
	// Records are the valid prefix records, in write order.
	Records []Record
	// Corrupt is non-nil when the walk stopped at an invalid frame.
	Corrupt *Corruption
}

// Read salvages a journal. It returns an error only when the file cannot
// be opened (use os.IsNotExist to treat a missing journal as a fresh
// sweep); corruption of any kind — torn tail, truncated frame, bad
// checksum, garbage length, undecodable JSON, version skew — never
// fails the call. The valid prefix is salvaged and the first bad frame
// is described in Recovery.Corrupt.
func Read(path string) (*Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readFrom(f), nil
}

func readFrom(r io.Reader) *Recovery {
	rec := &Recovery{}
	var offset int64
	var lenBuf [4]byte
	for {
		n, err := io.ReadFull(r, lenBuf[:])
		if err == io.EOF && n == 0 {
			return rec // clean end at a frame boundary
		}
		if err != nil {
			rec.Corrupt = corruptAt(rec, offset, "torn record: truncated length prefix")
			return rec
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size > maxRecordSize {
			rec.Corrupt = corruptAt(rec, offset, fmt.Sprintf("garbage length prefix %d", size))
			return rec
		}
		buf := make([]byte, int(size)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			rec.Corrupt = corruptAt(rec, offset, "torn record: truncated payload")
			return rec
		}
		payload := buf[:size]
		want := binary.BigEndian.Uint32(buf[size:])
		if got := crc32.ChecksumIEEE(payload); got != want {
			rec.Corrupt = corruptAt(rec, offset, fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want))
			return rec
		}
		var r0 Record
		if err := json.Unmarshal(payload, &r0); err != nil {
			rec.Corrupt = corruptAt(rec, offset, "undecodable record payload: "+err.Error())
			return rec
		}
		if r0.V != FormatVersion {
			rec.Corrupt = corruptAt(rec, offset, fmt.Sprintf("unknown format version %d (want %d)", r0.V, FormatVersion))
			return rec
		}
		rec.Records = append(rec.Records, r0)
		offset += int64(len(lenBuf)) + int64(len(buf))
	}
}

func corruptAt(rec *Recovery, offset int64, reason string) *Corruption {
	return &Corruption{Offset: offset, Record: len(rec.Records), Reason: reason}
}

// Compact atomically rewrites a journal to contain exactly the given
// records — dropping a corrupt tail before new appends land after
// garbage. The rewrite goes through AtomicWriteHook, so a crash
// mid-compact leaves the original journal untouched. hook, when
// non-nil, fires at faultinject.AtomicWriteBody and
// faultinject.AtomicRename with the journal path as detail; the
// crash-matrix tests use it to prove a compaction that dies mid-rewrite
// neither damages the journal nor strands a temp file.
func Compact(path string, hook faultinject.Hook, records []Record) error {
	return AtomicWriteHook(path, hook, func(w io.Writer) error {
		for _, rec := range records {
			if rec.V == 0 {
				rec.V = FormatVersion
			}
			payload, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if _, err := w.Write(Frame(payload)); err != nil {
				return err
			}
		}
		return nil
	})
}

// TargetKey is the identity of one batch slot in Replay's Finished and
// Started maps: (index, name), not name alone. Two targets that happen
// to share a name (easy when names are derived from file base names —
// a/foo.php and b/foo.php both load as "foo") occupy distinct batch
// slots, so they must neither replay each other's report nor trip the
// duplicate-finish corruption check.
func TargetKey(index int, name string) string {
	return fmt.Sprintf("%d\x00%s", index, name)
}

// Replay is the resume state folded out of salvaged journal records.
type Replay struct {
	// Fingerprint is the latest manifest's options fingerprint.
	Fingerprint string
	// Targets is the latest manifest's target list.
	Targets []string
	// Finished maps TargetKey(index, name) → the slot's serialized
	// report. Within one manifest epoch the first finish record wins; a
	// manifest whose fingerprint differs from the previous one opens a
	// fresh epoch (see Fold). Slots present here are replayed, not
	// re-scanned.
	Finished map[string]json.RawMessage
	// Started marks slots (TargetKey-keyed) with a start record,
	// finished or not. A started-but-unfinished slot was in flight at
	// the crash.
	Started map[string]bool
	// Salvaged is the number of records folded in.
	Salvaged int
	// Corrupt is non-nil when the journal was corrupt — either at the
	// byte level (carried over from Recovery) or semantically (empty
	// journal, missing leading manifest, duplicate finish record). All
	// records before the corruption are salvaged.
	Corrupt *Corruption
}

// Fold validates and folds a Recovery into resume state. Semantic
// corruption (no records at all, a first record that is not a manifest,
// or a duplicate finish for the same batch slot within one manifest
// epoch) stops the fold at the offending record, salvaging everything
// before it — mirroring the byte-level prefix-salvage semantics.
//
// Manifest records delimit epochs: a resumed sweep appending to the
// same journal writes a fresh manifest, and when its fingerprint
// differs from the previous manifest's the accumulated Finished/Started
// state is discarded. Finishes recorded under the old options are not
// this configuration's reports — replaying them would silently answer
// the wrong question — and a legitimate re-finish of the same slot
// under the new options must not be misread as duplicate-finish
// corruption. Same-fingerprint manifests keep accumulating, so the
// documented same-file journal/resume idiom replays earlier epochs'
// finishes as long as the options are unchanged.
func Fold(rec *Recovery) *Replay {
	rp := &Replay{
		Finished: map[string]json.RawMessage{},
		Started:  map[string]bool{},
		Corrupt:  rec.Corrupt,
	}
	if len(rec.Records) == 0 && rp.Corrupt == nil {
		rp.Corrupt = &Corruption{Reason: "empty journal: no manifest record"}
		return rp
	}
	for i, r := range rec.Records {
		if i == 0 && r.Type != TypeManifest {
			rp.Corrupt = &Corruption{Record: 0, Reason: fmt.Sprintf("journal does not begin with a manifest record (got %q)", r.Type)}
			return rp
		}
		switch r.Type {
		case TypeManifest:
			if i > 0 && r.Fingerprint != rp.Fingerprint {
				// New epoch under different options: drop state folded
				// under the previous fingerprint (see the Fold doc).
				rp.Finished = map[string]json.RawMessage{}
				rp.Started = map[string]bool{}
			}
			rp.Fingerprint = r.Fingerprint
			rp.Targets = r.Targets
		case TypeStart:
			rp.Started[TargetKey(r.Index, r.Name)] = true
		case TypeFinish:
			key := TargetKey(r.Index, r.Name)
			if _, dup := rp.Finished[key]; dup {
				// Keep the first finish; everything from the duplicate on
				// is untrusted.
				rp.Corrupt = &Corruption{Record: i, Reason: fmt.Sprintf("duplicate finish record for target %d %q", r.Index, r.Name)}
				return rp
			}
			rp.Started[key] = true
			rp.Finished[key] = r.Report
		case TypeLeaseClaim, TypeLeaseRenew, TypeLeaseRelease, TypeShardFinish,
			TypeJobSubmit, TypeJobStart, TypeJobFinish, TypeJobFail, TypeJobCancel:
			// Coordination and job-lifecycle records are only valid in
			// their own journals; one here means a process appended to the
			// wrong file. Everything from it on is untrusted.
			rp.Corrupt = &Corruption{Record: i, Reason: fmt.Sprintf("foreign record %q in a scan journal", r.Type)}
			return rp
		default:
			rp.Corrupt = &Corruption{Record: i, Reason: fmt.Sprintf("unknown record type %q", r.Type)}
			return rp
		}
		rp.Salvaged++
	}
	return rp
}
