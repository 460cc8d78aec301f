package scand

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/scanjournal"
)

func rec(typ, job string) scanjournal.Record {
	return scanjournal.Record{Type: typ, Job: job, Tenant: "t", Name: "app-" + job, Key: "k-" + job, At: time.Unix(0, 0)}
}

func manifest(fp string) scanjournal.Record {
	return scanjournal.Record{Type: scanjournal.TypeManifest, Fingerprint: fp, At: time.Unix(0, 0)}
}

func recovery(records ...scanjournal.Record) *scanjournal.Recovery {
	return &scanjournal.Recovery{Records: records}
}

func TestFoldJobsLifecycle(t *testing.T) {
	finish := rec(scanjournal.TypeJobFinish, "j1")
	finish.Report = json.RawMessage(`{"Name":"app-j1"}`)
	rp := FoldJobs(recovery(
		manifest("fp1"),
		rec(scanjournal.TypeJobSubmit, "j1"),
		rec(scanjournal.TypeJobSubmit, "j2"),
		rec(scanjournal.TypeJobStart, "j1"),
		finish,
		rec(scanjournal.TypeJobStart, "j2"),
	))
	if rp.Corrupt != nil {
		t.Fatalf("unexpected corruption: %+v", rp.Corrupt)
	}
	if rp.Fingerprint != "fp1" {
		t.Fatalf("fingerprint = %q", rp.Fingerprint)
	}
	if got := rp.Jobs["j1"].State; got != JobFinished {
		t.Fatalf("j1 state = %v", got)
	}
	if string(rp.Jobs["j1"].Report) != `{"Name":"app-j1"}` {
		t.Fatalf("j1 report = %s", rp.Jobs["j1"].Report)
	}
	// j2's dangling start means the dead daemon was mid-scan: the fold
	// reports it running so the restart re-enqueues it.
	if got := rp.Jobs["j2"].State; got != JobRunning {
		t.Fatalf("j2 state = %v", got)
	}
	if len(rp.Order) != 2 || rp.Order[0] != "j1" || rp.Order[1] != "j2" {
		t.Fatalf("order = %v", rp.Order)
	}
}

func TestFoldJobsSelfContainedTerminal(t *testing.T) {
	// Compaction drops submit/start of terminal jobs: a bare terminal
	// record must materialize the full job.
	fail := rec(scanjournal.TypeJobFail, "j7")
	fail.Error = "watchdog"
	rp := FoldJobs(recovery(manifest("fp"), fail))
	if rp.Corrupt != nil {
		t.Fatalf("unexpected corruption: %+v", rp.Corrupt)
	}
	j := rp.Jobs["j7"]
	if j == nil || j.State != JobFailed || j.Error != "watchdog" || j.Tenant != "t" || j.Name != "app-j7" {
		t.Fatalf("folded job = %+v", j)
	}
}

func TestFoldJobsCorruption(t *testing.T) {
	cases := []struct {
		name     string
		records  []scanjournal.Record
		salvaged int
		hint     string
	}{
		{
			name:     "empty journal",
			records:  nil,
			salvaged: 0,
			hint:     "no manifest",
		},
		{
			name:     "missing manifest",
			records:  []scanjournal.Record{rec(scanjournal.TypeJobSubmit, "j1")},
			salvaged: 0,
			hint:     "does not begin with a manifest",
		},
		{
			name: "duplicate submit",
			records: []scanjournal.Record{
				manifest("fp"), rec(scanjournal.TypeJobSubmit, "j1"), rec(scanjournal.TypeJobSubmit, "j1"),
			},
			salvaged: 2,
			hint:     "duplicate submit",
		},
		{
			name: "start of unknown job",
			records: []scanjournal.Record{
				manifest("fp"), rec(scanjournal.TypeJobStart, "j9"),
			},
			salvaged: 1,
			hint:     "unknown job",
		},
		{
			name: "start of terminal job",
			records: []scanjournal.Record{
				manifest("fp"), rec(scanjournal.TypeJobSubmit, "j1"),
				rec(scanjournal.TypeJobFinish, "j1"), rec(scanjournal.TypeJobStart, "j1"),
			},
			salvaged: 3,
			hint:     "terminal job",
		},
		{
			name: "double terminal is never a double report",
			records: []scanjournal.Record{
				manifest("fp"), rec(scanjournal.TypeJobSubmit, "j1"),
				rec(scanjournal.TypeJobFinish, "j1"), rec(scanjournal.TypeJobCancel, "j1"),
			},
			salvaged: 3,
			hint:     "duplicate terminal",
		},
		{
			name: "foreign record",
			records: []scanjournal.Record{
				manifest("fp"), {Type: scanjournal.TypeStart, Name: "x"},
			},
			salvaged: 1,
			hint:     "foreign record",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp := FoldJobs(recovery(tc.records...))
			if rp.Corrupt == nil {
				t.Fatal("corruption not detected")
			}
			if rp.Salvaged != tc.salvaged {
				t.Fatalf("salvaged = %d, want %d", rp.Salvaged, tc.salvaged)
			}
			if !strings.Contains(rp.Corrupt.Reason, tc.hint) {
				t.Fatalf("reason %q does not mention %q", rp.Corrupt.Reason, tc.hint)
			}
		})
	}
}

func TestFoldJobsFingerprintChangeKeepsHistory(t *testing.T) {
	finish := rec(scanjournal.TypeJobFinish, "j1")
	finish.Report = json.RawMessage(`{"Name":"app-j1"}`)
	rp := FoldJobs(recovery(
		manifest("fp-old"),
		rec(scanjournal.TypeJobSubmit, "j1"),
		finish,
		rec(scanjournal.TypeJobSubmit, "j2"),
		manifest("fp-new"), // restart with changed options
	))
	if rp.Corrupt != nil {
		t.Fatalf("unexpected corruption: %+v", rp.Corrupt)
	}
	if rp.Fingerprint != "fp-new" {
		t.Fatalf("fingerprint = %q", rp.Fingerprint)
	}
	if rp.Jobs["j1"].State != JobFinished {
		t.Fatal("fingerprint change discarded terminal history")
	}
	if rp.Jobs["j2"].State != JobSubmitted {
		t.Fatal("fingerprint change discarded pending job")
	}
}
