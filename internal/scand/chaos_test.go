// The daemon-chaos matrix: kill the daemon at every job-lifecycle
// journal boundary and prove the restarted daemon resumes every
// accepted job to byte-identical canonical results, with no job lost
// and never more than one terminal record per job. `make daemon-chaos`
// runs this file under -race.
package scand

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

// chaosApps is the chaos workload: four deterministic plugins, half of
// them with a planted vulnerability so the byte-compare covers findings.
func chaosApps() []corpus.ScreeningApp {
	return corpus.RandomPlugins(7, 4, 2)
}

func chaosConfig(dir string, scanWorkers int) Config {
	return Config{
		Dir:         dir,
		Scan:        uchecker.Options{Workers: 2, Budgets: uchecker.Budgets{MaxPaths: 20000}},
		ScanWorkers: scanWorkers,
	}
}

// chaosBaseline runs the workload on an uninterrupted daemon and
// returns each app's canonical report bytes.
func chaosBaseline(t *testing.T, scanWorkers int) map[string][]byte {
	t.Helper()
	apps := chaosApps()
	d := mustOpen(t, chaosConfig(t.TempDir(), scanWorkers))
	defer d.Close()
	ids := submitAll(t, d, "acme", apps)
	jobs := waitTerminal(t, d, ids, 300*time.Second, false)
	out := map[string][]byte{}
	for i, id := range ids {
		if jobs[id].State != JobFinished {
			t.Fatalf("baseline job %s = %s (%s)", id, jobs[id].State, jobs[id].Error)
		}
		raw, err := d.Result(id)
		if err != nil {
			t.Fatalf("baseline result: %v", err)
		}
		out[apps[i].Name] = raw
	}
	return out
}

// countJournalAppends runs the workload cleanly and counts JournalWrite
// seam firings — the size of the kill matrix.
func countJournalAppends(t *testing.T, scanWorkers int) int {
	t.Helper()
	var count atomic.Int64
	cfg := chaosConfig(t.TempDir(), scanWorkers)
	cfg.FaultHook = func(p faultinject.Point, detail string) error {
		if p == faultinject.JournalWrite {
			count.Add(1)
		}
		return nil
	}
	d := mustOpen(t, cfg)
	defer d.Close()
	ids := submitAll(t, d, "acme", chaosApps())
	waitTerminal(t, d, ids, 300*time.Second, false)
	return int(count.Load())
}

// verifyChaosOutcome asserts the daemon-chaos acceptance invariants on
// a finished state directory: every app finished byte-identically to
// the baseline, the journal folds cleanly, and no job carries more than
// one terminal record.
func verifyChaosOutcome(t *testing.T, d *Daemon, baseline map[string][]byte, label string) {
	t.Helper()
	byName := map[string]Job{}
	for _, j := range d.Jobs() {
		if prev, dup := byName[j.Name]; dup {
			t.Fatalf("%s: app %q double-submitted (jobs %s and %s)", label, j.Name, prev.ID, j.ID)
		}
		byName[j.Name] = j
	}
	for name, want := range baseline {
		j, ok := byName[name]
		if !ok {
			t.Fatalf("%s: app %q lost", label, name)
		}
		if j.State != JobFinished {
			t.Fatalf("%s: job %s (%s) = %s (%s)", label, j.ID, name, j.State, j.Error)
		}
		raw, err := d.Result(j.ID)
		if err != nil {
			t.Fatalf("%s: result %s: %v", label, j.ID, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s: report of %q differs from the uninterrupted baseline\n got: %s\nwant: %s", label, name, raw, want)
		}
	}

	rec, err := scanjournal.Read(d.journalPath())
	if err != nil {
		t.Fatalf("%s: read journal: %v", label, err)
	}
	rp := FoldJobs(rec)
	if rp.Corrupt != nil {
		t.Fatalf("%s: journal corrupt after recovery: %+v", label, rp.Corrupt)
	}
	terminals := map[string]int{}
	for _, r := range rec.Records {
		switch r.Type {
		case scanjournal.TypeJobFinish, scanjournal.TypeJobFail, scanjournal.TypeJobCancel:
			terminals[r.Job]++
		}
	}
	for id, n := range terminals {
		if n > 1 {
			t.Fatalf("%s: job %s has %d terminal records (double report)", label, id, n)
		}
	}
}

// chaosRun kills the daemon at the n-th journal append, restarts it
// clean, retries rejected submits like a real client, and verifies the
// invariants against the baseline.
func chaosRun(t *testing.T, scanWorkers, n int, baseline map[string][]byte) {
	t.Helper()
	label := fmt.Sprintf("workers=%d kill@append=%d", scanWorkers, n)
	dir := t.TempDir()
	apps := chaosApps()

	cfg := chaosConfig(dir, scanWorkers)
	cfg.FaultHook = faultinject.FailAfter(faultinject.JournalWrite, "", n)
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	accepted := map[string]bool{}
	var ids []string
	for _, app := range apps {
		job, err := d.Submit("acme", app.Name, app.Sources)
		if err == nil {
			accepted[app.Name] = true
			ids = append(ids, job.ID)
		} else if !errors.Is(err, ErrJournalDown) {
			t.Fatalf("%s: submit %s: unexpected error %v", label, app.Name, err)
		}
	}
	// Run until every accepted job is terminal or the injected crash
	// stops the world, then hard-stop (the "kill").
	waitTerminal(t, d, ids, 300*time.Second, true)
	d.Close()

	// Restart without the fault; the journal is the queue.
	d2 := mustOpen(t, chaosConfig(dir, scanWorkers))
	defer d2.Close()
	for _, app := range apps {
		if accepted[app.Name] {
			continue
		}
		// The client's submit was rejected with a typed error pre-crash;
		// it retries against the healthy daemon.
		if _, err := d2.Submit("acme", app.Name, app.Sources); err != nil {
			t.Fatalf("%s: retry submit %s: %v", label, app.Name, err)
		}
	}
	var allIDs []string
	for _, j := range d2.Jobs() {
		allIDs = append(allIDs, j.ID)
	}
	if len(allIDs) != len(apps) {
		t.Fatalf("%s: %d jobs after restart, want %d", label, len(allIDs), len(apps))
	}
	waitTerminal(t, d2, allIDs, 300*time.Second, false)
	verifyChaosOutcome(t, d2, baseline, label)
}

// TestDaemonChaosMatrix is the tentpole acceptance test: a kill at
// EVERY journal append boundary (submit, start, finish of every job,
// plus the manifest) at 1 and 4 scan workers.
func TestDaemonChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short")
	}
	baseline := chaosBaseline(t, 1)
	// Determinism across worker counts is a precondition of comparing
	// every matrix cell against one baseline.
	for name, want := range chaosBaseline(t, 4) {
		if !bytes.Equal(want, baseline[name]) {
			t.Fatalf("baseline differs between 1 and 4 scan workers for %q", name)
		}
	}
	killPoints := 0
	for _, workers := range []int{1, 4} {
		total := countJournalAppends(t, workers)
		// 1 manifest + submit/start/finish per app on a clean run.
		if want := 1 + 3*len(chaosApps()); total != want {
			t.Fatalf("clean run at %d workers wrote %d journal records, want %d", workers, total, want)
		}
		killPoints = total
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for n := 1; n <= total; n++ {
				chaosRun(t, workers, n, baseline)
			}
		})
	}
	// Archive the matrix shape and the baseline canonical reports every
	// cell was byte-compared against when the harness asks for it.
	if out := os.Getenv("DAEMON_CHAOS_OUT"); out != "" {
		type appReport struct {
			Name   string          `json:"name"`
			Report json.RawMessage `json:"report"`
		}
		matrix := struct {
			ScanWorkers []int       `json:"scanWorkers"`
			KillPoints  int         `json:"killPoints"`
			Apps        []appReport `json:"apps"`
		}{ScanWorkers: []int{1, 4}, KillPoints: killPoints}
		for _, app := range chaosApps() {
			matrix.Apps = append(matrix.Apps, appReport{Name: app.Name, Report: baseline[app.Name]})
		}
		raw, err := json.MarshalIndent(matrix, "", "  ")
		if err != nil {
			t.Fatalf("encode chaos matrix: %v", err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			t.Errorf("archive chaos matrix: %v", err)
		}
	}
}

// TestDaemonSeamCrashes drives each daemon-specific faultinject seam to
// a crash and proves restart-resume at that exact boundary.
func TestDaemonSeamCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("seam crashes skipped in -short")
	}
	baseline := chaosBaseline(t, 2)
	apps := chaosApps()

	runSeam := func(t *testing.T, hook faultinject.Hook, viaDrain bool) {
		dir := t.TempDir()
		cfg := chaosConfig(dir, 2)
		cfg.FaultHook = hook
		d := mustOpen(t, cfg)
		var ids []string
		for _, app := range apps {
			if job, err := d.Submit("acme", app.Name, app.Sources); err == nil {
				ids = append(ids, job.ID)
			}
		}
		if viaDrain {
			d.Drain()
		} else {
			waitTerminal(t, d, ids, 300*time.Second, true)
		}
		d.Close()

		d2 := mustOpen(t, chaosConfig(dir, 2))
		defer d2.Close()
		have := map[string]bool{}
		for _, j := range d2.Jobs() {
			have[j.Name] = true
		}
		for _, app := range apps {
			if !have[app.Name] {
				if _, err := d2.Submit("acme", app.Name, app.Sources); err != nil {
					t.Fatalf("retry submit: %v", err)
				}
			}
		}
		var allIDs []string
		for _, j := range d2.Jobs() {
			allIDs = append(allIDs, j.ID)
		}
		waitTerminal(t, d2, allIDs, 300*time.Second, false)
		verifyChaosOutcome(t, d2, baseline, t.Name())
	}

	t.Run("dequeue", func(t *testing.T) {
		runSeam(t, faultinject.FailAfter(faultinject.JobDequeue, "", 1), false)
	})
	t.Run("checkpoint", func(t *testing.T) {
		runSeam(t, faultinject.FailAfter(faultinject.JobCheckpoint, "", 1), false)
	})
	t.Run("drain", func(t *testing.T) {
		runSeam(t, faultinject.FailAfter(faultinject.JobDrain, "", 0), true)
	})
}

// TestJournalSyncFaultIsCrash: a fault between a job-submit record's
// write and its fsync refuses the submit and puts the daemon into crash
// semantics; the record is not appended again. Reopened without the
// fault, the daemon folds a clean journal and finishes every job it
// knows, the refused one included (its record had reached disk), with
// the bytes a fault-free daemon gives the same app.
func TestJournalSyncFaultIsCrash(t *testing.T) {
	apps := simApps(4)
	dir := t.TempDir()
	cfg := testConfig(dir, 1)
	cfg.FaultHook = faultinject.ErrorN(faultinject.JournalSync, "job-submit:"+apps[1].Name, 1)
	d := mustOpen(t, cfg)
	if _, err := d.Submit("acme", apps[0].Name, apps[0].Sources); err != nil {
		t.Fatalf("submit %s: %v", apps[0].Name, err)
	}
	for _, app := range apps[1:] {
		if _, err := d.Submit("acme", app.Name, app.Sources); !errors.Is(err, ErrJournalDown) {
			t.Fatalf("submit %s = %v, want ErrJournalDown", app.Name, err)
		}
	}
	d.Close()

	rec, err := scanjournal.Read(d.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if rp := FoldJobs(rec); rp.Corrupt != nil {
		t.Fatalf("journal corrupt after the sync fault: %+v", rp.Corrupt)
	}

	d2 := mustOpen(t, testConfig(dir, 1))
	defer d2.Close()
	jobs := d2.Jobs()
	if len(jobs) != 2 || jobs[0].Name != apps[0].Name || jobs[1].Name != apps[1].Name {
		t.Fatalf("reopened daemon knows %+v, want the jobs of %s and %s", jobs, apps[0].Name, apps[1].Name)
	}
	ids := []string{jobs[0].ID, jobs[1].ID}
	waitTerminal(t, d2, ids, 120*time.Second, false)

	clean := mustOpen(t, testConfig(t.TempDir(), 1))
	defer clean.Close()
	cleanIDs := submitAll(t, clean, "acme", apps[:2])
	waitTerminal(t, clean, cleanIDs, 120*time.Second, false)
	for i, id := range ids {
		got, err := d2.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		want, err := clean.Result(cleanIDs[i])
		if err != nil {
			t.Fatalf("fault-free result of %s: %v", apps[i].Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("report of %s differs from a fault-free daemon's", apps[i].Name)
		}
	}
}

// TestDaemonRestartFromHTTPSpool restarts a job from the spool an HTTP
// submit wrote. The daemon goes fatal at the job's dequeue, before its
// start record, so the job survives only as its submit record and its
// spool file; reopened without the fault, the daemon must run it to the
// result bytes a fresh daemon gives the same submit. A JSON submit
// spools its request body as sent; a tarball submit spools the sources
// encoded by the daemon.
func TestDaemonRestartFromHTTPSpool(t *testing.T) {
	app := chaosApps()[1]
	// Indented, so the body differs from the daemon's own encoding.
	jsonBody, err := json.MarshalIndent(submitBody{Name: app.Name, Sources: app.Sources}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var members []tarMember
	for name, src := range app.Sources {
		members = append(members, tarMember{name: name, body: src})
	}
	for _, tc := range []struct {
		name, query, contentType string
		body                     []byte
	}{
		{"json", "tenant=acme", "application/json", jsonBody},
		{"tarball", "tenant=acme&name=" + url.QueryEscape(app.Name), "application/x-tar", buildTar(t, members)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			submit := func(d *Daemon) string {
				t.Helper()
				req := httptest.NewRequest(http.MethodPost, "/jobs?"+tc.query, bytes.NewReader(tc.body))
				req.Header.Set("Content-Type", tc.contentType)
				rec := httptest.NewRecorder()
				d.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusAccepted {
					t.Fatalf("submit = %d: %s", rec.Code, rec.Body.Bytes())
				}
				var job Job
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
					t.Fatal(err)
				}
				return job.ID
			}
			result := func(d *Daemon, id string) []byte {
				t.Helper()
				if j := waitTerminal(t, d, []string{id}, 120*time.Second, false)[id]; j.State != JobFinished {
					t.Fatalf("job %s = %s (%s)", id, j.State, j.Error)
				}
				raw, err := d.Result(id)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}

			fresh := mustOpen(t, chaosConfig(t.TempDir(), 1))
			want := result(fresh, submit(fresh))
			fresh.Close()

			dir := t.TempDir()
			cfg := chaosConfig(dir, 1)
			cfg.FaultHook = faultinject.FailAfter(faultinject.JobDequeue, "", 0)
			d := mustOpen(t, cfg)
			id := submit(d)
			waitTerminal(t, d, []string{id}, 60*time.Second, true)
			if d.Fatal() == nil {
				t.Fatal("the dequeue fault did not put the daemon into crash semantics")
			}
			d.Close()
			rec, err := scanjournal.Read(filepath.Join(dir, "jobs.journal"))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rec.Records {
				if r.Type != scanjournal.TypeManifest && r.Type != scanjournal.TypeJobSubmit {
					t.Fatalf("journal holds a %s record; the job must stop before its start", r.Type)
				}
			}
			if tc.name == "json" {
				data, err := os.ReadFile(filepath.Join(dir, "spool", id+".src"))
				if err != nil {
					t.Fatal(err)
				}
				if spooled, err := scanjournal.Unframe(data); err != nil || !bytes.Equal(spooled, tc.body) {
					t.Fatalf("spool is not the request body as sent (err %v):\n%s", err, spooled)
				}
			}

			d2 := mustOpen(t, chaosConfig(dir, 1))
			defer d2.Close()
			if got := result(d2, id); !bytes.Equal(got, want) {
				t.Fatalf("restarted result differs from a fresh daemon's\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// --- Subprocess kill -9 variant ---

// TestDaemonChaosKillNineHelper is re-exec'd by TestDaemonChaosKillNine
// as the victim daemon process. It opens a daemon in the directory from
// the environment, submits the chaos workload (slowing scans so the
// parent's SIGKILL lands mid-processing), signals readiness, and waits
// to be killed.
func TestDaemonChaosKillNineHelper(t *testing.T) {
	dir := os.Getenv("UCHECKERD_CHAOS_DIR")
	if dir == "" {
		t.Skip("helper for TestDaemonChaosKillNine")
	}
	cfg := chaosConfig(dir, 2)
	cfg.Scan.FaultHook = faultinject.SleepOn(faultinject.RootStart, "", 5*time.Millisecond)
	d, err := Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper open: %v\n", err)
		os.Exit(1)
	}
	for _, app := range chaosApps() {
		if _, err := d.Submit("acme", app.Name, app.Sources); err != nil {
			fmt.Fprintf(os.Stderr, "helper submit: %v\n", err)
			os.Exit(1)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "submitted.ok"), []byte("ok\n"), 0o644); err != nil {
		os.Exit(1)
	}
	time.Sleep(120 * time.Second) // the parent SIGKILLs long before this
	os.Exit(0)
}

// TestDaemonChaosKillNine SIGKILLs a real daemon process mid-scan — no
// deferred cleanup, no graceful anything — and proves an in-process
// reopen of the same state directory resumes to baseline-identical
// results.
func TestDaemonChaosKillNine(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short")
	}
	dir := t.TempDir()
	baseline := chaosBaseline(t, 2)

	cmd := exec.Command(os.Args[0], "-test.run=TestDaemonChaosKillNineHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "UCHECKERD_CHAOS_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	defer cmd.Process.Kill()

	// Wait for all submits to be journaled, then for at least one job to
	// be mid-scan (a start record without a terminal record).
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "submitted.ok")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("helper never signalled readiness; output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		rec, err := scanjournal.Read(filepath.Join(dir, "jobs.journal"))
		if err == nil {
			starts := 0
			for _, r := range rec.Records {
				if r.Type == scanjournal.TypeJobStart {
					starts++
				}
			}
			if starts > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no job ever started in the helper; output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // land the kill mid-processing
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill helper: %v", err)
	}
	cmd.Wait() // expected to report the kill; the state dir is what matters

	d := mustOpen(t, chaosConfig(dir, 2))
	defer d.Close()
	jobs := d.Jobs()
	if len(jobs) != len(chaosApps()) {
		t.Fatalf("%d jobs recovered, want %d; helper output:\n%s", len(jobs), len(chaosApps()), out.String())
	}
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.ID)
	}
	waitTerminal(t, d, ids, 300*time.Second, false)
	verifyChaosOutcome(t, d, baseline, "kill -9")
}
