package shardcoord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/scanjournal"
)

func targetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("app-%02d", i)
	}
	return names
}

func newCoord(t *testing.T, targets, shardSize int, hook faultinject.Hook) *Coord {
	t.Helper()
	c, err := Init(filepath.Join(t.TempDir(), "coord"), "fp", targetNames(targets), shardSize, hook)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlanRanges(t *testing.T) {
	p := &Plan{Targets: targetNames(7), ShardSize: 3}
	if p.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", p.Shards())
	}
	want := [][2]int{{0, 3}, {3, 6}, {6, 7}}
	for s, w := range want {
		lo, hi := p.Range(s)
		if lo != w[0] || hi != w[1] {
			t.Errorf("shard %d range = [%d,%d), want [%d,%d)", s, lo, hi, w[0], w[1])
		}
	}
}

func TestInitIdempotentAndEpochs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "coord")
	names := targetNames(4)
	c1, err := Init(dir, "fpA", names, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A lease survives a second worker joining the same epoch.
	lease, err := c1.ClaimFree("w0")
	if err != nil || lease == nil {
		t.Fatalf("claim: %v %v", lease, err)
	}
	c2, err := Init(dir, "fpA", names, 2, nil)
	if err != nil {
		t.Fatalf("joining the same epoch: %v", err)
	}
	v, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v.Shards[lease.Shard].State != Held {
		t.Errorf("join reset lease state: %+v", v.Shards[lease.Shard])
	}

	// Same fingerprint, different plan: refused.
	if _, err := Init(dir, "fpA", targetNames(5), 2, nil); err == nil {
		t.Error("conflicting plan under one fingerprint accepted")
	}

	// New fingerprint: new epoch, all lease state discarded.
	c3, err := Init(dir, "fpB", names, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := c3.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range v3.Shards {
		if st.State != Free || st.Token != 0 {
			t.Errorf("epoch change kept shard %d state %+v", s, st)
		}
	}
	// The old epoch's Coord is fenced out entirely.
	if err := lease.Renew(); !errors.Is(err, ErrFenced) {
		t.Errorf("stale-epoch renew = %v, want ErrFenced", err)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	c := newCoord(t, 5, 2, nil) // 3 shards
	var leases []*Lease
	for i := 0; ; i++ {
		l, err := c.ClaimFree(fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		if l.Shard != i || l.Token != 1 {
			t.Fatalf("claim %d = shard %d token %d", i, l.Shard, l.Token)
		}
		leases = append(leases, l)
	}
	if len(leases) != 3 {
		t.Fatalf("claimed %d shards, want 3", len(leases))
	}

	// Heartbeats bump the generation monotonically.
	for g := int64(1); g <= 3; g++ {
		if err := leases[0].Renew(); err != nil {
			t.Fatal(err)
		}
		if leases[0].Gen != g {
			t.Fatalf("gen = %d, want %d", leases[0].Gen, g)
		}
	}

	// Release frees the shard; the next claim advances the token.
	if err := leases[1].Release(); err != nil {
		t.Fatal(err)
	}
	l, err := c.ClaimFree("w9")
	if err != nil || l == nil {
		t.Fatalf("re-claim released shard: %v %v", l, err)
	}
	if l.Shard != 1 || l.Token != 2 {
		t.Fatalf("re-claim = shard %d token %d, want shard 1 token 2", l.Shard, l.Token)
	}

	// Finish is terminal.
	for _, lease := range []*Lease{leases[0], l, leases[2]} {
		if err := lease.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Done() {
		t.Fatalf("not done after finishing all shards: %+v", v.Shards)
	}
	if err := leases[0].Renew(); !errors.Is(err, ErrFenced) {
		t.Errorf("renew of finished shard = %v, want ErrFenced", err)
	}
}

// TestZombieFencing is the acceptance regression: a paused-then-resumed
// zombie worker's stale writes are rejected by token check after its
// lease was reclaimed.
func TestZombieFencing(t *testing.T) {
	c := newCoord(t, 4, 2, nil)
	zombie, err := c.ClaimFree("zombie")
	if err != nil || zombie == nil {
		t.Fatal(err)
	}
	// The fleet observes (token, gen) twice with no heartbeat in between
	// — the zombie is paused — and reclaims.
	v1, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := v1.Shards[zombie.Shard]
	reclaimed, err := c.Reclaim("w1", zombie.Shard, st.Token, st.Gen)
	if err != nil || reclaimed == nil {
		t.Fatalf("reclaim: %v %v", reclaimed, err)
	}
	if reclaimed.Token != zombie.Token+1 {
		t.Fatalf("reclaim token = %d, want %d", reclaimed.Token, zombie.Token+1)
	}

	// The zombie resumes: every write path is fenced.
	if err := zombie.Renew(); !errors.Is(err, ErrFenced) {
		t.Errorf("zombie renew = %v, want ErrFenced", err)
	}
	if err := zombie.Finish(); !errors.Is(err, ErrFenced) {
		t.Errorf("zombie publish = %v, want ErrFenced", err)
	}
	if err := zombie.Release(); !errors.Is(err, ErrFenced) {
		t.Errorf("zombie release = %v, want ErrFenced", err)
	}
	// And none of those rejected writes left a record: the journal still
	// folds clean with the reclaimer holding.
	v2, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Corrupt != nil {
		t.Fatalf("fenced writes corrupted the journal: %v", v2.Corrupt)
	}
	got := v2.Shards[zombie.Shard]
	if got.State != Held || got.Token != reclaimed.Token || got.Worker != "w1" {
		t.Errorf("shard state after fencing: %+v", got)
	}
	// The reclaimer is unaffected.
	if err := reclaimed.Renew(); err != nil {
		t.Errorf("reclaimer renew: %v", err)
	}
}

// TestReclaimRefuted: a heartbeat between the two observations refutes
// the presumed death — Reclaim writes nothing and returns no lease.
func TestReclaimRefuted(t *testing.T) {
	c := newCoord(t, 2, 1, nil)
	l, err := c.ClaimFree("w0")
	if err != nil || l == nil {
		t.Fatal(err)
	}
	v, _ := c.Snapshot()
	st := v.Shards[l.Shard]
	if err := l.Renew(); err != nil { // the holder was alive all along
		t.Fatal(err)
	}
	got, err := c.Reclaim("w1", l.Shard, st.Token, st.Gen)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("reclaim of a live lease succeeded: %+v", got)
	}
	if err := l.Renew(); err != nil {
		t.Errorf("live holder fenced by refuted reclaim: %v", err)
	}
}

// TestConcurrentClaims: goroutine-workers racing on ClaimFree each get a
// distinct shard (the flock serializes read-fold-validate-append).
func TestConcurrentClaims(t *testing.T) {
	const shards = 8
	c := newCoord(t, shards, 1, nil)
	var wg sync.WaitGroup
	got := make([]*Lease, shards+4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine joins through its own Coord, like a process.
			ci, err := Open(c.Dir(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			l, err := ci.ClaimFree(fmt.Sprintf("w%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = l
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	claimed := 0
	for _, l := range got {
		if l == nil {
			continue
		}
		claimed++
		if seen[l.Shard] {
			t.Fatalf("shard %d claimed twice", l.Shard)
		}
		seen[l.Shard] = true
	}
	if claimed != shards {
		t.Errorf("claimed %d shards, want %d", claimed, shards)
	}
}

// TestFoldLeasesProtocolMatrix: every protocol violation folds as
// corruption salvaging the valid prefix — never a panic — and the next
// transaction heals the journal by compaction.
func TestFoldLeasesProtocolMatrix(t *testing.T) {
	manifest := scanjournal.Record{
		Type: scanjournal.TypeManifest, Fingerprint: "fp", Targets: targetNames(4), ShardSize: 2,
	}
	claim := scanjournal.Record{Type: scanjournal.TypeLeaseClaim, Shard: 0, Token: 1, Worker: "w0"}
	cases := []struct {
		name         string
		records      []scanjournal.Record
		wantSalvaged int
		wantReason   string
	}{
		{"token-skip", []scanjournal.Record{manifest, {Type: scanjournal.TypeLeaseClaim, Shard: 0, Token: 2, Worker: "w0"}}, 1, "want 1"},
		{"double-claim", []scanjournal.Record{manifest, claim, {Type: scanjournal.TypeLeaseClaim, Shard: 0, Token: 1, Worker: "w1"}}, 2, "want 2"},
		{"stale-renew", []scanjournal.Record{manifest, claim, {Type: scanjournal.TypeLeaseRenew, Shard: 0, Token: 2, Gen: 1}}, 2, "renew"},
		{"gen-skip", []scanjournal.Record{manifest, claim, {Type: scanjournal.TypeLeaseRenew, Shard: 0, Token: 1, Gen: 5}}, 2, "generation 5"},
		{"release-unheld", []scanjournal.Record{manifest, {Type: scanjournal.TypeLeaseRelease, Shard: 1, Token: 1}}, 1, "release"},
		{"finish-unheld", []scanjournal.Record{manifest, {Type: scanjournal.TypeShardFinish, Shard: 0, Token: 1}}, 1, "finish"},
		{"claim-after-finish", []scanjournal.Record{manifest, claim, {Type: scanjournal.TypeShardFinish, Shard: 0, Token: 1, Worker: "w0"}, {Type: scanjournal.TypeLeaseClaim, Shard: 0, Token: 2, Worker: "w1"}}, 3, "finished"},
		{"out-of-range-shard", []scanjournal.Record{manifest, {Type: scanjournal.TypeLeaseClaim, Shard: 7, Token: 1}}, 1, "out-of-range"},
		{"scan-record", []scanjournal.Record{manifest, {Type: scanjournal.TypeStart, Name: "x"}}, 1, "scan record"},
		{"no-manifest", []scanjournal.Record{claim}, 0, "does not begin"},
		{"planless-manifest", []scanjournal.Record{{Type: scanjournal.TypeManifest, Fingerprint: "fp"}}, 0, "shard plan"},
		{"plan-conflict", []scanjournal.Record{manifest, {Type: scanjournal.TypeManifest, Fingerprint: "fp", Targets: targetNames(4), ShardSize: 3}}, 1, "different plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.records {
				if tc.records[i].V == 0 {
					tc.records[i].V = scanjournal.FormatVersion
				}
			}
			v := FoldLeases(&scanjournal.Recovery{Records: tc.records})
			if v.Corrupt == nil {
				t.Fatal("violation not surfaced")
			}
			if v.Salvaged != tc.wantSalvaged {
				t.Errorf("salvaged = %d, want %d (%v)", v.Salvaged, tc.wantSalvaged, v.Corrupt)
			}
			if !strings.Contains(v.Corrupt.Reason, tc.wantReason) {
				t.Errorf("reason %q does not mention %q", v.Corrupt.Reason, tc.wantReason)
			}

			// Healing: write the corrupt journal into a real directory and
			// prove the next transaction compacts and proceeds.
			dir := filepath.Join(t.TempDir(), "coord")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := scanjournal.Compact(filepath.Join(dir, JournalFile), nil, tc.records); err != nil {
				t.Fatal(err)
			}
			plan, _ := json.Marshal(Plan{Fingerprint: "fp", Targets: targetNames(4), ShardSize: 2})
			if err := os.WriteFile(filepath.Join(dir, PlanFile), plan, 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantSalvaged == 0 {
				// Nothing salvageable: the healed journal has no manifest, so
				// lease transactions are rejected until a re-Init — but they
				// must reject cleanly, not panic.
				if _, err := c.ClaimFree("w"); err == nil {
					t.Error("claim on an epoch-less journal succeeded")
				}
				return
			}
			if _, err := c.Snapshot(); err != nil {
				t.Fatalf("post-heal snapshot: %v", err)
			}
			rec, err := scanjournal.Read(filepath.Join(dir, JournalFile))
			if err != nil {
				t.Fatal(err)
			}
			if v2 := FoldLeases(rec); v2.Corrupt != nil {
				t.Errorf("journal still corrupt after healing: %v", v2.Corrupt)
			}
		})
	}
}

// TestLeaseSyncFaultIsCrash: a fault between a claim's write and its
// fsync fails the claim, and the claim is not appended again. The record
// that landed is the journal's only claim and the journal folds clean;
// a second claim at the same token would read as a protocol violation.
func TestLeaseSyncFaultIsCrash(t *testing.T) {
	hook := faultinject.ErrorN(faultinject.JournalSync, "lease-claim", 1)
	c := newCoord(t, 2, 1, hook)
	if l, err := c.ClaimFree("w0"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("claim = %v, %v; want the injected error", l, err)
	}
	rec, err := scanjournal.Read(filepath.Join(c.Dir(), JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, r := range rec.Records {
		if r.Type == scanjournal.TypeLeaseClaim {
			claims++
		}
	}
	if claims != 1 {
		t.Errorf("journal holds %d claims, want 1", claims)
	}
	if v := FoldLeases(rec); rec.Corrupt != nil || v.Corrupt != nil {
		t.Errorf("journal corrupt after the sync fault: %v / %v", rec.Corrupt, v.Corrupt)
	}
}

// TestLeaseSeamCrash: a persistent fault at the LeaseClaim seam kills
// the claim without recording anything.
func TestLeaseSeamCrash(t *testing.T) {
	c := newCoord(t, 2, 1, faultinject.ErrorOn(faultinject.LeaseClaim, ""))
	if _, err := c.ClaimFree("w0"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("claim = %v, want injected crash", err)
	}
	// Re-open without the hook: the journal must show no lease.
	c2, err := Open(c.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range v.Shards {
		if st.State != Free {
			t.Errorf("crashed claim left shard %d %s", s, st.State)
		}
	}
}

// writeShardJournal writes a complete scan journal for one shard, as
// ScanBatchJournaled would: manifest + start/finish per shard-local
// target, reports keyed by local index.
func writeShardJournal(t *testing.T, c *Coord, shard int, token int64) {
	t.Helper()
	lo, hi := c.Plan().Range(shard)
	names := c.Plan().Targets[lo:hi]
	w, err := scanjournal.OpenWriter(c.ShardJournal(shard, token), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(scanjournal.Record{
		Type: scanjournal.TypeManifest, Fingerprint: c.Plan().Fingerprint, Targets: names,
	}); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if err := w.Append(scanjournal.Record{Type: scanjournal.TypeStart, Name: name, Index: i}); err != nil {
			t.Fatal(err)
		}
		report := json.RawMessage(fmt.Sprintf(`{"Name":%q,"global":%d}`, name, lo+i))
		if err := w.Append(scanjournal.Record{Type: scanjournal.TypeFinish, Name: name, Index: i, Report: report}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	c := newCoord(t, 5, 2, nil) // shards: [0,2) [2,4) [4,5)
	for s := 0; s < c.Plan().Shards(); s++ {
		l, err := c.ClaimFree("w0")
		if err != nil || l == nil {
			t.Fatal(err)
		}
		writeShardJournal(t, c, l.Shard, l.Token)
		if err := l.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	path, err := c.WriteMerged(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	for g, name := range c.Plan().Targets {
		want = append(want, json.RawMessage(fmt.Sprintf(`{"Name":%q,"global":%d}`, name, g)))
	}
	wantBytes, err := EncodeMerged(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("merged report:\n got %s\nwant %s", got, wantBytes)
	}

	// A crash at the CoordFold seam leaves the previous merged report
	// intact and strands no temp file.
	c2, err := Open(c.Dir(), faultinject.ErrorOn(faultinject.CoordFold, ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WriteMerged(nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fold = %v, want injected crash", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, wantBytes) {
		t.Errorf("failed fold damaged the merged report (%v)", err)
	}
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("orphaned temp file: %s", e.Name())
		}
	}
}

func TestReportsRequiresAllFinished(t *testing.T) {
	c := newCoord(t, 4, 2, nil)
	l, err := c.ClaimFree("w0")
	if err != nil || l == nil {
		t.Fatal(err)
	}
	writeShardJournal(t, c, l.Shard, l.Token)
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reports(); err == nil {
		t.Error("Reports succeeded with an unfinished shard")
	}
}

// FuzzCoordFold: FoldLeases over arbitrary journal bytes never panics
// and never salvages past a protocol violation.
func FuzzCoordFold(f *testing.F) {
	frame := func(recs ...scanjournal.Record) []byte {
		var buf bytes.Buffer
		for _, r := range recs {
			if r.V == 0 {
				r.V = scanjournal.FormatVersion
			}
			payload, _ := json.Marshal(r)
			buf.Write(scanjournal.Frame(payload))
		}
		return buf.Bytes()
	}
	manifest := scanjournal.Record{Type: scanjournal.TypeManifest, Fingerprint: "fp", Targets: []string{"a", "b"}, ShardSize: 1}
	f.Add(frame(manifest,
		scanjournal.Record{Type: scanjournal.TypeLeaseClaim, Shard: 0, Token: 1, Worker: "w0"},
		scanjournal.Record{Type: scanjournal.TypeLeaseRenew, Shard: 0, Token: 1, Gen: 1, Worker: "w0"},
		scanjournal.Record{Type: scanjournal.TypeShardFinish, Shard: 0, Token: 1, Worker: "w0"}))
	f.Add(frame(manifest, scanjournal.Record{Type: scanjournal.TypeLeaseClaim, Shard: -1, Token: 1}))
	f.Add(frame(manifest, scanjournal.Record{Type: scanjournal.TypeLeaseRenew, Shard: 0, Token: 9, Gen: -3}))
	f.Add(append(frame(manifest), 0xde, 0xad, 0xbe, 0xef))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := readRecovery(data)
		v := FoldLeases(rec)
		if v == nil {
			t.Fatal("FoldLeases returned nil")
		}
		if v.Salvaged > len(rec.Records) {
			t.Fatalf("salvaged %d of %d", v.Salvaged, len(rec.Records))
		}
	})
}

// readRecovery parses raw journal bytes via a temp file (Read is the
// only public byte-stream entry point).
func readRecovery(data []byte) *scanjournal.Recovery {
	f, err := os.CreateTemp("", "fuzz-coord-*.journal")
	if err != nil {
		return &scanjournal.Recovery{}
	}
	defer os.Remove(f.Name())
	f.Write(data)
	f.Close()
	rec, err := scanjournal.Read(f.Name())
	if err != nil {
		return &scanjournal.Recovery{}
	}
	return rec
}
