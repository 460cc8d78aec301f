package scanjournal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// writeJournal writes a canonical healthy journal: one manifest and n
// target start/finish pairs. Returns its path.
func writeJournal(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.journal")
	w, err := OpenWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, target(i))
	}
	if err := w.Append(Record{Type: TypeManifest, Fingerprint: "fp", Targets: names}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(Record{Type: TypeStart, Name: target(i), Index: i}); err != nil {
			t.Fatal(err)
		}
		report := json.RawMessage(`{"Name":"` + target(i) + `"}`)
		if err := w.Append(Record{Type: TypeFinish, Name: target(i), Index: i, Report: report}); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func target(i int) string { return string(rune('a'+i)) + "-app" }

func TestJournalRoundTrip(t *testing.T) {
	path := writeJournal(t, 3)
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corrupt != nil {
		t.Fatalf("healthy journal reported corrupt: %v", rec.Corrupt)
	}
	if len(rec.Records) != 7 {
		t.Fatalf("records = %d, want 7", len(rec.Records))
	}
	rp := Fold(rec)
	if rp.Corrupt != nil {
		t.Fatalf("healthy journal folded corrupt: %v", rp.Corrupt)
	}
	if rp.Fingerprint != "fp" || len(rp.Targets) != 3 {
		t.Errorf("manifest lost: fp=%q targets=%v", rp.Fingerprint, rp.Targets)
	}
	if len(rp.Finished) != 3 || rp.Salvaged != 7 {
		t.Errorf("finished=%d salvaged=%d, want 3/7", len(rp.Finished), rp.Salvaged)
	}
	for i := 0; i < 3; i++ {
		raw, ok := rp.Finished[TargetKey(i, target(i))]
		if !ok {
			t.Fatalf("missing finish for %s", target(i))
		}
		var rep struct{ Name string }
		if err := json.Unmarshal(raw, &rep); err != nil || rep.Name != target(i) {
			t.Errorf("report for %s round-tripped to %q (%v)", target(i), rep.Name, err)
		}
	}
}

// TestJournalCorruptionMatrix is the satellite corruption matrix: torn
// final record, flipped checksum byte, unknown format version, empty
// file, duplicate finish record. Each case must salvage every valid
// prefix record and surface exactly one corruption — never a panic,
// never an error, never a lost completed report.
func TestJournalCorruptionMatrix(t *testing.T) {
	const n = 3             // targets in the healthy journal
	const records = 1 + 2*n // manifest + start/finish pairs

	cases := []struct {
		name string
		// corrupt mutates a healthy journal file in place.
		corrupt      func(t *testing.T, path string)
		wantSalvaged int // records surviving Fold
		wantFinished int // finish records surviving Fold
	}{
		{
			name: "torn-final-record",
			corrupt: func(t *testing.T, path string) {
				data := readAll(t, path)
				// Chop mid-way through the last frame.
				if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSalvaged: records - 1,
			wantFinished: n - 1,
		},
		{
			name: "flipped-checksum-byte",
			corrupt: func(t *testing.T, path string) {
				data := readAll(t, path)
				data[len(data)-1] ^= 0xff // last CRC byte of the final record
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSalvaged: records - 1,
			wantFinished: n - 1,
		},
		{
			name: "unknown-format-version",
			corrupt: func(t *testing.T, path string) {
				// Append a well-framed record from "the future".
				payload, _ := json.Marshal(Record{V: FormatVersion + 7, Type: TypeFinish, Name: "zz"})
				appendBytes(t, path, Frame(payload))
			},
			wantSalvaged: records,
			wantFinished: n,
		},
		{
			name: "garbage-length-prefix",
			corrupt: func(t *testing.T, path string) {
				var frame [8]byte
				binary.BigEndian.PutUint32(frame[:4], 1<<30)
				appendBytes(t, path, frame[:])
			},
			wantSalvaged: records,
			wantFinished: n,
		},
		{
			name: "empty-file",
			corrupt: func(t *testing.T, path string) {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSalvaged: 0,
			wantFinished: 0,
		},
		{
			name: "duplicate-finish-record",
			corrupt: func(t *testing.T, path string) {
				payload, _ := json.Marshal(Record{V: FormatVersion, Type: TypeFinish, Name: target(0),
					Report: json.RawMessage(`{"Name":"evil-twin"}`)})
				appendBytes(t, path, Frame(payload))
			},
			wantSalvaged: records,
			wantFinished: n,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeJournal(t, n)
			tc.corrupt(t, path)
			rec, err := Read(path)
			if err != nil {
				t.Fatalf("Read must salvage, got error %v", err)
			}
			rp := Fold(rec)
			if rp.Corrupt == nil {
				t.Fatal("corruption not surfaced")
			}
			if rp.Salvaged != tc.wantSalvaged {
				t.Errorf("salvaged = %d, want %d (corrupt: %v)", rp.Salvaged, tc.wantSalvaged, rp.Corrupt)
			}
			if len(rp.Finished) != tc.wantFinished {
				t.Errorf("finished = %d, want %d", len(rp.Finished), tc.wantFinished)
			}
			// The first finish always wins: a duplicate can never overwrite
			// a salvaged report.
			if raw, ok := rp.Finished[TargetKey(0, target(0))]; ok {
				var rep struct{ Name string }
				if json.Unmarshal(raw, &rep) == nil && rep.Name != target(0) {
					t.Errorf("duplicate finish overwrote the salvaged report: %q", rep.Name)
				}
			}
		})
	}
}

// TestFoldManifestEpochReset is the regression for the options-change
// resume bug: manifest(fpA)+finish(T) followed by
// manifest(fpB)+start/finish(T) — the documented same-file -journal/
// -resume idiom after an options change. Fold must open a new epoch at
// the fpB manifest: the fpA finish is discarded (its report answers a
// different configuration's question), the fpB finish is NOT a
// duplicate, and replay yields the fpB report.
func TestFoldManifestEpochReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := OpenWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := []Record{
		{Type: TypeManifest, Fingerprint: "fpA", Targets: []string{"t"}},
		{Type: TypeStart, Name: "t", Index: 0},
		{Type: TypeFinish, Name: "t", Index: 0, Report: json.RawMessage(`{"Name":"t","fp":"A"}`)},
		{Type: TypeManifest, Fingerprint: "fpB", Targets: []string{"t"}},
		{Type: TypeStart, Name: "t", Index: 0},
		{Type: TypeFinish, Name: "t", Index: 0, Report: json.RawMessage(`{"Name":"t","fp":"B"}`)},
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	rp := Fold(rec)
	if rp.Corrupt != nil {
		t.Fatalf("legitimate re-run after options change folded corrupt: %v", rp.Corrupt)
	}
	if rp.Salvaged != len(records) {
		t.Errorf("salvaged = %d, want %d", rp.Salvaged, len(records))
	}
	if rp.Fingerprint != "fpB" {
		t.Errorf("fingerprint = %q, want fpB", rp.Fingerprint)
	}
	if len(rp.Finished) != 1 {
		t.Fatalf("finished = %d, want 1 (the fpB epoch only)", len(rp.Finished))
	}
	var rep struct {
		Fp string `json:"fp"`
	}
	if err := json.Unmarshal(rp.Finished[TargetKey(0, "t")], &rep); err != nil || rep.Fp != "B" {
		t.Errorf("replayed the stale fpA report: fp=%q err=%v", rep.Fp, err)
	}

	// Same-fingerprint manifests do NOT reset the epoch: the same-file
	// resume idiom keeps replaying earlier finishes when options are
	// unchanged.
	sameFP := &Recovery{Records: []Record{
		{V: FormatVersion, Type: TypeManifest, Fingerprint: "fp", Targets: []string{"t", "u"}},
		{V: FormatVersion, Type: TypeFinish, Name: "t", Index: 0, Report: json.RawMessage(`{"Name":"t"}`)},
		{V: FormatVersion, Type: TypeManifest, Fingerprint: "fp", Targets: []string{"t", "u"}},
		{V: FormatVersion, Type: TypeFinish, Name: "u", Index: 1, Report: json.RawMessage(`{"Name":"u"}`)},
	}}
	rp2 := Fold(sameFP)
	if rp2.Corrupt != nil || len(rp2.Finished) != 2 {
		t.Errorf("same-fingerprint resume lost finishes: %d kept, corrupt=%v", len(rp2.Finished), rp2.Corrupt)
	}
}

// TestFoldDuplicateTargetNames: two batch slots sharing a name (distinct
// indexes) are distinct replay slots — both reports survive, and the
// second finish must not be misread as duplicate-finish corruption.
func TestFoldDuplicateTargetNames(t *testing.T) {
	rec := &Recovery{Records: []Record{
		{V: FormatVersion, Type: TypeManifest, Fingerprint: "fp", Targets: []string{"foo", "foo"}},
		{V: FormatVersion, Type: TypeStart, Name: "foo", Index: 0},
		{V: FormatVersion, Type: TypeFinish, Name: "foo", Index: 0, Report: json.RawMessage(`{"slot":0}`)},
		{V: FormatVersion, Type: TypeStart, Name: "foo", Index: 1},
		{V: FormatVersion, Type: TypeFinish, Name: "foo", Index: 1, Report: json.RawMessage(`{"slot":1}`)},
	}}
	rp := Fold(rec)
	if rp.Corrupt != nil {
		t.Fatalf("same-name targets misread as corruption: %v", rp.Corrupt)
	}
	if len(rp.Finished) != 2 {
		t.Fatalf("finished = %d, want 2", len(rp.Finished))
	}
	for i := 0; i < 2; i++ {
		var rep struct {
			Slot int `json:"slot"`
		}
		if err := json.Unmarshal(rp.Finished[TargetKey(i, "foo")], &rep); err != nil || rep.Slot != i {
			t.Errorf("slot %d replayed slot %d's report (err=%v)", i, rep.Slot, err)
		}
	}
	// A true duplicate — same index AND name — is still corruption.
	dup := &Recovery{Records: append(rec.Records,
		Record{V: FormatVersion, Type: TypeFinish, Name: "foo", Index: 1, Report: json.RawMessage(`{"slot":9}`)})}
	rpd := Fold(dup)
	if rpd.Corrupt == nil {
		t.Error("true duplicate finish (same slot) not surfaced as corruption")
	}
}

func TestJournalMissingLeadingManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := OpenWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: TypeStart, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	rp := Fold(rec)
	if rp.Corrupt == nil || rp.Salvaged != 0 {
		t.Fatalf("start-before-manifest must be corruption: %+v", rp)
	}
}

// TestJournalCompaction: compacting a corrupt journal drops the bad tail
// atomically; the rewritten journal is healthy and re-appendable.
func TestJournalCompaction(t *testing.T) {
	path := writeJournal(t, 3)
	data := readAll(t, path)
	appendBytes(t, path, []byte{0xde, 0xad, 0xbe}) // torn garbage tail

	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corrupt == nil {
		t.Fatal("tail not detected")
	}
	if err := Compact(path, nil, rec.Records); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); string(got) != string(data) {
		t.Error("compaction did not reproduce the healthy prefix byte-identically")
	}
	// Appends after compaction land on a clean boundary.
	w, err := OpenWriter(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: TypeFinish, Name: "late", Report: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rec2, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Corrupt != nil || len(rec2.Records) != 8 {
		t.Fatalf("post-compaction journal: %d records, corrupt=%v", len(rec2.Records), rec2.Corrupt)
	}
}

func TestWriterFaultSeams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	// Crash after 2 successful appends.
	w, err := OpenWriter(path, faultinject.FailAfter(faultinject.JournalWrite, "", 2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ {
		if err := w.Append(Record{Type: TypeManifest}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Append(Record{Type: TypeStart, Name: "x"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append 3 = %v, want injected crash", err)
	}
	rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.Corrupt != nil {
		t.Errorf("on-disk records = %d (corrupt=%v), want 2 clean", len(rec.Records), rec.Corrupt)
	}

	// The sync seam fires too.
	w2, err := OpenWriter(path, faultinject.ErrorOn(faultinject.JournalSync, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(Record{Type: TypeStart, Name: "y"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sync-crash append = %v, want injected", err)
	}
	// The sync seam fires after the write: the record is on disk, once,
	// and the journal reads clean. Appending it again would duplicate it.
	rec, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 || rec.Corrupt != nil {
		t.Fatalf("after the sync fault: %d records (corrupt=%v), want 3 clean", len(rec.Records), rec.Corrupt)
	}
	if last := rec.Records[2]; last.Type != TypeStart || last.Name != "y" {
		t.Errorf("record 2 = %s %q, want the start of y", last.Type, last.Name)
	}
}

func TestUnframe(t *testing.T) {
	payload := []byte(`{"v":1}`)
	frame := Frame(payload)
	got, err := Unframe(frame)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	// Truncated, bit-flipped and mis-sized frames all fail closed.
	if _, err := Unframe(frame[:len(frame)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[5] ^= 0x01
	if _, err := Unframe(bad); err == nil {
		t.Error("bit-flipped frame accepted")
	}
	long := append(append([]byte(nil), frame...), 'x')
	if _, err := Unframe(long); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, err := Unframe(nil); err == nil {
		t.Error("empty frame accepted")
	}
	var huge [8]byte
	binary.BigEndian.PutUint32(huge[:4], 1<<31)
	if _, err := Unframe(huge[:]); err == nil {
		t.Error("garbage length accepted")
	}
}

// TestWriteFrame: WriteFrame writes the documented layout (big-endian
// length, payload, big-endian CRC32), exactly Frame's bytes, and Unframe
// gives the payload back, for an empty, a one-byte and a large payload.
func TestWriteFrame(t *testing.T) {
	for _, n := range []int{0, 1, 100000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		want := binary.BigEndian.AppendUint32(nil, uint32(n))
		want = append(want, payload...)
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d bytes: WriteFrame does not write length, payload, CRC32", n)
		}
		if !bytes.Equal(buf.Bytes(), Frame(payload)) {
			t.Errorf("%d bytes: WriteFrame differs from Frame", n)
		}
		got, err := Unframe(buf.Bytes())
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%d bytes: Unframe = %d bytes, %v", n, len(got), err)
		}
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
