package scand

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/uchecker"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestHTTPSubmitStatusResultCancel(t *testing.T) {
	apps := simApps(2)
	d := mustOpen(t, testConfig(t.TempDir(), 2))
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postJSON(t, srv, "/jobs?tenant=acme", submitBody{Name: apps[0].Name, Sources: apps[0].Sources})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	job := decodeBody[Job](t, resp)
	if job.ID == "" || job.Tenant != "acme" || job.Name != apps[0].Name {
		t.Fatalf("job = %+v", job)
	}

	// Status of a known job is 200; unknown is 404.
	if resp, _ := http.Get(srv.URL + "/jobs/" + job.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, _ := http.Get(srv.URL + "/jobs/j99999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown status = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Poll the result: 409 while in flight, 200 with the canonical report
	// once finished.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var rep uchecker.AppReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("result does not parse: %v", err)
			}
			if rep.Name != apps[0].Name {
				t.Fatalf("result name = %q", rep.Name)
			}
			break
		}
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("in-flight result status = %d", resp.StatusCode)
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cancelling a finished job is 409; cancelling an unknown job is 404.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+job.ID, nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/j99999999", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// A malformed JSON body is a client error, not a daemon state change.
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPSubmitTarball(t *testing.T) {
	apps := vulnApps(1)
	d := mustOpen(t, Config{
		Dir:         t.TempDir(),
		Scan:        uchecker.Options{Workers: 2, Budgets: uchecker.Budgets{MaxPaths: 20000}},
		ScanWorkers: 1,
		Ingest:      IngestLimits{MaxFileBytes: 1 << 20, MaxTotalBytes: 1 << 20, MaxFiles: 64},
	})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var members []tarMember
	for name, src := range apps[0].Sources {
		members = append(members, tarMember{name: name, body: src})
	}
	body := gzipped(t, buildTar(t, members))
	resp, err := http.Post(srv.URL+"/jobs?tenant=acme&name="+apps[0].Name, "application/gzip", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("tar submit = %d: %s", resp.StatusCode, raw)
	}
	job := decodeBody[Job](t, resp)
	jobs := waitTerminal(t, d, []string{job.ID}, 60*time.Second, false)
	if jobs[job.ID].State != JobFinished {
		t.Fatalf("tar job = %s (%s)", jobs[job.ID].State, jobs[job.ID].Error)
	}

	// Hostile archive: 400, nothing submitted.
	evil := buildTar(t, []tarMember{{name: "../evil.php", body: "x"}})
	resp, err = http.Post(srv.URL+"/jobs?name=evil", "application/x-tar", bytes.NewReader(evil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile tar = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Oversized archive: 413.
	big := buildTar(t, []tarMember{{name: "big.php", body: strings.Repeat("a", 2<<20)}})
	resp, err = http.Post(srv.URL+"/jobs?name=big", "application/x-tar", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tar = %d", resp.StatusCode)
	}
	resp.Body.Close()

	if n := len(d.Jobs()); n != 1 {
		t.Fatalf("rejected archives leaked jobs: %d", n)
	}
}

func TestHTTPShedCarriesRetryAfter(t *testing.T) {
	apps := vulnApps(4)
	gate := newScanGate()
	cfg := testConfig(t.TempDir(), 1)
	cfg.Scan.FaultHook = gate.hook
	cfg.Tenants = map[string]TenantPolicy{"greedy": {MaxQueue: 1}}
	d := mustOpen(t, cfg)
	defer d.Close()
	// Release before Close (defers run LIFO): Close waits for the worker,
	// and the worker waits on the gated scan.
	defer gate.release()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	first := decodeBody[Job](t, postJSON(t, srv, "/jobs?tenant=greedy", submitBody{Name: apps[0].Name, Sources: apps[0].Sources}))
	waitState(t, d, first.ID, JobRunning, 10*time.Second)
	postJSON(t, srv, "/jobs?tenant=greedy", submitBody{Name: apps[1].Name, Sources: apps[1].Sources}).Body.Close()

	resp := postJSON(t, srv, "/jobs?tenant=greedy", submitBody{Name: apps[2].Name, Sources: apps[2].Sources})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After header = %q", resp.Header.Get("Retry-After"))
	}
	body := decodeBody[errorBody](t, resp)
	if body.RetryAfterMs < 1 {
		t.Fatalf("retryAfterMs = %d", body.RetryAfterMs)
	}
	if !strings.Contains(body.Error, "shed") {
		t.Fatalf("error body = %q", body.Error)
	}

	// The shed shows up in the RED metrics for the submit endpoint.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(exposition), `ucheckerd_http_shed_total{endpoint="submit"} 1`) {
		t.Fatalf("http_shed_total missing from exposition:\n%s", exposition)
	}
}

func TestHTTPEventsStreamUntilTerminal(t *testing.T) {
	apps := vulnApps(1)
	gate := newScanGate()
	cfg := testConfig(t.TempDir(), 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	job, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, job.ID, JobRunning, 10*time.Second)

	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	gate.release()

	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Job != job.ID {
			t.Fatalf("event for wrong job: %+v", ev)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.Type != "state" || !last.State.Terminal() {
		t.Fatalf("stream did not end on a terminal state event: %+v", last)
	}
	if last.State != JobFinished {
		t.Fatalf("terminal state = %s (%s)", last.State, last.Error)
	}
	spans := 0
	for _, ev := range events {
		if ev.Type == "span" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no span progress events in the stream")
	}

	// Events of an already-terminal job: snapshot then immediate EOF.
	resp2, err := http.Get(srv.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	all, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(all), `"state":"finished"`) {
		t.Fatalf("terminal snapshot stream = %q", all)
	}
}

// TestHTTPEventsTerminalBeforeSubscribe is the regression for an SSE
// stream that never ended: a job whose terminal transition (and its
// terminal event, delivered to no one) lands after the handler's job
// lookup but before its subscription must still end the stream, on the
// state snapshot taken after subscribing.
func TestHTTPEventsTerminalBeforeSubscribe(t *testing.T) {
	apps := vulnApps(1)
	gate := newScanGate()
	cfg := testConfig(t.TempDir(), 1)
	cfg.Scan.FaultHook = gate.hook
	d := mustOpen(t, cfg)
	defer d.Close()
	defer gate.release()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	job, err := d.Submit("acme", apps[0].Name, apps[0].Sources)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, job.ID, JobRunning, 10*time.Second)

	// Holding the hub lock parks the handler between its lookup (which
	// sees the job running) and its subscription.
	d.hub.mu.Lock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type stream struct {
		body string
		err  error
	}
	done := make(chan stream, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs/"+job.ID+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- stream{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- stream{string(body), err}
	}()
	waitForGoroutine(t, "(*eventHub).subscribe")
	d.mu.Lock()
	d.jobs[job.ID].State = JobFinished
	d.mu.Unlock()
	d.hub.mu.Unlock()

	got := <-done
	if got.err != nil {
		t.Fatalf("stream did not end: %v (body %q)", got.err, got.body)
	}
	if !strings.Contains(got.body, `"state":"finished"`) {
		t.Fatalf("stream = %q, want the finished snapshot", got.body)
	}

	// Hand the job back to its worker and let it finish for real.
	d.mu.Lock()
	d.jobs[job.ID].State = JobRunning
	d.mu.Unlock()
	gate.release()
	waitState(t, d, job.ID, JobFinished, 60*time.Second)
}

// waitForGoroutine polls the goroutine dump until some goroutine's
// stack mentions frame.
func waitForGoroutine(t *testing.T, frame string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(string(buf[:runtime.Stack(buf, true)]), frame) {
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine reached %s", frame)
		}
		time.Sleep(time.Millisecond)
	}
}

// Satellite 3 at the HTTP layer: scraping /metrics concurrently with
// active scans must yield a consistent snapshot (run under -race).
func TestHTTPMetricsConcurrentWithScans(t *testing.T) {
	apps := simApps(4)
	d := mustOpen(t, testConfig(t.TempDir(), 2))
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ids := submitAll(t, d, "acme", apps)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape status = %d", resp.StatusCode)
					return
				}
				if !bytes.Contains(raw, []byte("ucheckerd_jobs_submitted_total")) {
					t.Errorf("scrape missing jobs_submitted_total")
					return
				}
			}
		}()
	}
	waitTerminal(t, d, ids, 120*time.Second, false)
	close(stop)
	wg.Wait()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf(`ucheckerd_jobs_submitted_total{scope="daemon"} %d`, len(apps)),
		fmt.Sprintf(`ucheckerd_jobs_finished_total{scope="daemon"} %d`, len(apps)),
		`ucheckerd_http_requests_total{endpoint="metrics"}`,
		`scope="scans"`,
	} {
		if !strings.Contains(string(exposition), want) {
			t.Fatalf("exposition missing %q:\n%s", want, exposition)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	d := mustOpen(t, testConfig(t.TempDir(), 1))
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	d.goFatal(errors.New("injected journal death"))
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after fatal = %d", resp.StatusCode)
	}
}

// promValue extracts the value of one exact exposition line prefix
// ("name{labels} ") from a Prometheus text dump, or -1 when absent.
func promValue(exposition, prefix string) int64 {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, prefix+" "), 10, 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// Satellite: under -interproc summary the daemon's /metrics exposition
// carries the summary-strategy counters, and a job's result does not
// depend on the jobs that ran before it: a job sharing a file with an
// earlier job reports the same bytes as on a fresh daemon.
func TestHTTPMetricsExposeSummaryCounters(t *testing.T) {
	// Two distinct jobs (different sources → different report keys, so
	// neither replays the other's report) sharing one identical helper
	// file. Each plugin also calls a by-ref function, which the summary
	// strategy classifies as escaped and falls back to inlining.
	helper := `<?php
function ext_label($n) { return "." . $n; }
function up_prefix() { return "uploads/"; }
`
	plugin := func(dest string) string {
		return `<?php
function grab(&$n) { $n = $_FILES['doc']['name']; }
$name = "";
grab($name);
move_uploaded_file($_FILES['doc']['tmp_name'], "` + dest + `" . $name);
`
	}
	jobs := []map[string]string{
		{"helper.php": helper, "plugin.php": plugin("uploads/")},
		{"helper.php": helper, "plugin.php": plugin("attachments/")},
	}
	// runJobs submits the jobs one at a time, each after the previous
	// finished, to a daemon over a fresh state directory, and returns
	// the daemon (open) and each job's result bytes.
	runJobs := func(first int) (*Daemon, [][]byte) {
		cfg := testConfig(t.TempDir(), 1)
		cfg.Scan.Interproc = interp.InterprocSummary
		d := mustOpen(t, cfg)
		var results [][]byte
		for i := first; i < len(jobs); i++ {
			job, err := d.Submit("acme", fmt.Sprintf("summary-app-%d", i), jobs[i])
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitTerminal(t, d, []string{job.ID}, 30*time.Second, false)
			res, err := d.Result(job.ID)
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			results = append(results, res)
		}
		return d, results
	}
	d, afterFirst := runJobs(0)
	defer d.Close()
	fresh, alone := runJobs(1)
	fresh.Close()
	if !bytes.Equal(afterFirst[1], alone[0]) {
		t.Errorf("second job's result differs from a fresh daemon's:\n got: %s\nwant: %s", afterFirst[1], alone[0])
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(raw)

	for _, m := range []string{
		"ucheckerd_summary_computed",
		"ucheckerd_summary_escaped_callees",
	} {
		if v := promValue(exposition, m+`{scope="scans"}`); v < 1 {
			t.Errorf("%s = %d, want >= 1; exposition:\n%s", m, v, exposition)
		}
	}
}
