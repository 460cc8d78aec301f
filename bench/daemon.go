package main

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
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/scand"
	"repro/internal/uchecker"
)

// daemonScanWorkers is the daemon's concurrently running job count: the
// ucheckerd default.
const daemonScanWorkers = 2

// eventTimeout bounds one job's wait on its event stream. The daemon's
// event hub drops events for a slow subscriber; should it ever drop a
// terminal event, the client gives up and counts the job as failed
// instead of waiting forever.
const eventTimeout = time.Minute

// daemonHarness is an in-process scan daemon behind a loopback HTTP
// server, driven through its public HTTP API.
type daemonHarness struct {
	d   *scand.Daemon
	srv *httptest.Server
	// c keeps enough idle connections for every client's event stream
	// plus its concurrent status read; the default two per host made
	// each run open and tear down hundreds of loopback connections.
	c   *http.Client
	dir string
}

func openDaemon(dir string, opts uchecker.Options) (*daemonHarness, error) {
	d, err := scand.Open(scand.Config{Dir: dir, Scan: opts, ScanWorkers: daemonScanWorkers})
	if err != nil {
		return nil, fmt.Errorf("open daemon: %w", err)
	}
	return &daemonHarness{
		d:   d,
		srv: httptest.NewServer(d.Handler()),
		c:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		dir: dir,
	}, nil
}

// close stops the server (waiting for open requests), drains the daemon
// (waiting for its workers) and removes its state directory.
func (h *daemonHarness) close() error {
	h.c.CloseIdleConnections()
	h.srv.Close()
	err := h.d.Drain()
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// jobTiming splits one job's client-observed latency at the points the
// public API exposes: the submit reply, the "running" state event, the
// terminal state event, and the result reply.
type jobTiming struct {
	submit, queueWait, run, result, total time.Duration
	// sawRunning is false when the job had already finished by the time
	// its event stream opened (typical of cache hits); queueWait and run
	// are then unknown.
	sawRunning bool
}

// submitBody encodes a JSON submit for the daemon's POST /jobs.
func submitBody(it item) ([]byte, error) {
	return json.Marshal(struct {
		Name    string            `json:"name"`
		Sources map[string]string `json:"sources"`
	}{it.name, it.sources})
}

// job runs one job end to end: POST /jobs, the job's SSE event stream
// until a terminal state, then GET /jobs/{id}/result. It returns the
// result bytes.
func (h *daemonHarness) job(ctx context.Context, body []byte) (jobTiming, []byte, error) {
	var tm jobTiming
	t0 := time.Now()
	resp, err := h.c.Post(h.srv.URL+"/jobs?tenant=bench", "application/json", bytes.NewReader(body))
	if err != nil {
		return tm, nil, fmt.Errorf("submit: %w", err)
	}
	var job scand.Job
	if err := decodeReply(resp, http.StatusAccepted, &job); err != nil {
		return tm, nil, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	tm.submit = t1.Sub(t0)

	tRun, tEnd, err := h.await(ctx, job.ID)
	if err != nil {
		return tm, nil, fmt.Errorf("job %s: %w", job.ID, err)
	}
	if !tRun.IsZero() {
		tm.sawRunning = true
		tm.queueWait = tRun.Sub(t1)
		tm.run = tEnd.Sub(tRun)
	}

	resp, err = h.c.Get(h.srv.URL + "/jobs/" + job.ID + "/result")
	if err != nil {
		return tm, nil, fmt.Errorf("result %s: %w", job.ID, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return tm, nil, fmt.Errorf("result %s: %w", job.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		return tm, nil, fmt.Errorf("result %s: %s: %s", job.ID, resp.Status, bytes.TrimSpace(raw))
	}
	end := time.Now()
	tm.result = end.Sub(tEnd)
	tm.total = end.Sub(t0)
	return tm, raw, nil
}

// await reads a job's event stream until its terminal state event and
// returns when the client saw it running (zero if never) and finished.
func (h *daemonHarness) await(ctx context.Context, id string) (tRun, tEnd time.Time, err error) {
	ctx, cancel := context.WithTimeout(ctx, eventTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.srv.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return tRun, tEnd, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return tRun, tEnd, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tRun, tEnd, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	first, fromStatus := true, false
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev scand.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return tRun, tEnd, fmt.Errorf("events: %w", err)
		}
		if ev.Type != "state" {
			continue
		}
		if first && !ev.State.Terminal() {
			// The events handler takes its state snapshot before it
			// subscribes, so a terminal event published in between never
			// reaches this stream. The snapshot's arrival means the
			// subscription is in place; one status read now catches a job
			// that ended in that window.
			first = false
			var job scand.Job
			if err := h.get(ctx, "/jobs/"+id, &job); err != nil {
				return tRun, tEnd, fmt.Errorf("status: %w", err)
			}
			if job.State.Terminal() {
				ev.State, ev.Error, fromStatus = job.State, job.Error, true
			}
		}
		if ev.State == scand.JobRunning && tRun.IsZero() {
			tRun = time.Now()
		}
		if ev.State.Terminal() {
			tEnd = time.Now()
			if ev.State != scand.JobFinished {
				return tRun, tEnd, fmt.Errorf("job %s: %s", ev.State, ev.Error)
			}
			if fromStatus {
				return tRun, tEnd, nil // closing the body ends the open stream
			}
			// The server ends the stream after the terminal event; reading
			// to the end lets the connection be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return tRun, tEnd, err
		}
	}
	if err := sc.Err(); err != nil {
		return tRun, tEnd, fmt.Errorf("events: %w", err)
	}
	return tRun, tEnd, errors.New("events: stream ended before a terminal state")
}

// get fetches path and decodes its JSON reply.
func (h *daemonHarness) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.srv.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	return decodeReply(resp, http.StatusOK, v)
}

// decodeReply checks a reply's status and decodes its JSON body.
func decodeReply(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// submitThrice runs one plugin as three jobs: a cold submit that scans
// and fills the result cache, then two identical submits the cache
// answers. Each job is one verdict, logged in l as a miss or a hit; the
// two warm results must be byte for byte the cold one.
func (h *daemonHarness) submitThrice(ctx context.Context, it item, l *clientLog, timing func(jobTiming)) {
	body, err := submitBody(it)
	if err != nil {
		l.mismatch("%s: encode submit: %v", it.name, err)
		return
	}
	var cold []byte
	for k := 0; k < 3; k++ {
		start := time.Now()
		tm, raw, err := h.job(ctx, body)
		l.done(start, err != nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", it.name, err)
			continue
		}
		if k > 0 {
			l.hitMs = append(l.hitMs, msOf(tm.total))
		} else {
			l.missMs = append(l.missMs, msOf(tm.total))
		}
		if timing != nil {
			timing(tm)
		}
		var rep uchecker.AppReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			l.mismatch("%s: decode result: %v", it.name, err)
			continue
		}
		if rep.Vulnerable != it.want {
			l.mismatch("%s: verdict %v, want %v", it.name, rep.Vulnerable, it.want)
		}
		if k == 0 {
			cold = raw
		} else if cold != nil && !bytes.Equal(raw, cold) {
			l.mismatch("%s: warm result differs from the cold result", it.name)
		}
	}
}

// cacheHitFrac scrapes the daemon's /metrics for its result-cache hit
// and miss counters and returns hits / (hits + misses).
func (h *daemonHarness) cacheHitFrac() (float64, error) {
	resp, err := h.c.Get(h.srv.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var hits, misses float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *float64
		switch {
		case strings.HasPrefix(name, "ucheckerd_cache_hits_total"):
			dst = &hits
		case strings.HasPrefix(name, "ucheckerd_cache_misses_total"):
			dst = &misses
		default:
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: %q: %w", sc.Text(), err)
		}
		*dst += v
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if hits+misses == 0 {
		return 0, errors.New("metrics: no cache counters")
	}
	return hits / (hits + misses), nil
}
