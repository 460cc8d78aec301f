// HTTP surface of the daemon: submit/status/result/cancel, SSE
// progress streaming, Prometheus /metrics, and per-endpoint RED
// accounting (requests, errors, duration) recorded into the shared
// registry so one scrape shows traffic and scan work side by side.
package scand

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs?tenant=T&name=N   submit (JSON {"name","sources"} or tarball body)
//	GET    /jobs/{id}              job status
//	GET    /jobs/{id}/result       canonical report of a finished job
//	GET    /jobs/{id}/events       SSE stream of lifecycle + span events
//	DELETE /jobs/{id}              cancel
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness (503 once the journal is down)
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /jobs", d.red("submit", d.handleSubmit))
	mux.Handle("GET /jobs/{id}", d.red("status", d.handleStatus))
	mux.Handle("GET /jobs/{id}/result", d.red("result", d.handleResult))
	mux.Handle("GET /jobs/{id}/events", d.red("events", d.handleEvents))
	mux.Handle("DELETE /jobs/{id}", d.red("cancel", d.handleCancel))
	mux.Handle("GET /metrics", d.red("metrics", d.handleMetrics))
	mux.Handle("GET /healthz", d.red("healthz", d.handleHealthz))
	return mux
}

// statusRecorder captures the response code for RED accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer (SSE needs it).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController, which
// handleSubmit uses to set the body read deadline.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// red wraps a handler with RED metrics under {endpoint: name}:
// requests/errors/shed counters plus a duration sum+count pair (enough
// for rate() and mean-latency panels without histogram machinery).
func (d *Daemon) red(name string, h http.HandlerFunc) http.Handler {
	labels := map[string]string{"endpoint": name}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		d.reg.Add(labels, "http_requests_total", 1)
		d.reg.Add(labels, "http_request_duration_micros_sum", time.Since(start).Microseconds())
		d.reg.Add(labels, "http_request_duration_count", 1)
		switch {
		case rec.code == http.StatusTooManyRequests:
			d.reg.Add(labels, "http_shed_total", 1)
		case rec.code >= 500:
			d.reg.Add(labels, "http_errors_total", 1)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMs accompanies 429 responses with the same hint as the
	// Retry-After header, at millisecond precision.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// submitBody is the JSON submit format, and the spool's.
type submitBody struct {
	Name    string            `json:"name"`
	Sources map[string]string `json:"sources"`
}

// maxBodyHint caps the part of a declared Content-Length that is
// allocated before the body arrives, so a client that declares a large
// body and then sends nothing pins at most this much. It is well above
// a typical plugin's body (the daemon workload's largest is 73 KB); a
// larger body grows as it arrives.
const maxBodyHint = 256 << 10

// bodyReadTimeout bounds the read of a submit body, JSON or tarball: a
// client that declares a body and stalls is answered or cut off at the
// deadline instead of holding its connection indefinitely. Five minutes
// carry the default 64 MiB MaxTotalBytes at about 220 KB/s. A variable
// only so tests can shorten it.
var bodyReadTimeout = 5 * time.Minute

// readBody reads a request body whole, failing with *http.MaxBytesError
// past limit bytes; a body that declares more is refused unread. A
// declared length up to maxBodyHint sizes the buffer, so such a body is
// read into one allocation; a longer or chunked body grows as it
// arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	var b bytes.Buffer
	b.Grow(int(min(max(r.ContentLength, 0), maxBodyHint)) + bytes.MinRead)
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return b.Bytes(), err
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	name := r.URL.Query().Get("name")
	// The deadline covers only the body: it is cleared once the body is
	// read, because a read deadline that passes while the handler runs
	// cancels the request's context. Errors are ignored: httptest
	// recorders support no deadlines (http.ErrNotSupported), and on a
	// broken connection the read fails anyway.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	var sources map[string]string
	var spool []byte
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		// One read, one decode, and the same bytes become the job's
		// spool. Unmarshal, unlike a Decoder, rejects bytes after the
		// value: the spool is decoded again on restart, so a body must
		// decode as a whole to be accepted.
		lim := d.cfg.Ingest.orDefaults()
		raw, err := readBody(w, r, lim.MaxTotalBytes)
		_ = rc.SetReadDeadline(time.Time{})
		if err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, errorBody{Error: "read body: " + err.Error()})
			return
		}
		var body submitBody
		if err := json.Unmarshal(raw, &body); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON body: " + err.Error()})
			return
		}
		if err := lim.checkSources(body.Sources); err != nil {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
			return
		}
		if body.Name != "" {
			name = body.Name
		}
		sources, spool = body.Sources, raw
	} else {
		// Anything else is treated as a (possibly gzipped) tarball and
		// run through the hostile-archive gauntlet.
		src, err := IngestTar(r.Body, d.cfg.Ingest)
		_ = rc.SetReadDeadline(time.Time{})
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrArchiveTooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
			return
		}
		sources = src
	}
	job, err := d.submit(tenant, name, sources, spool)
	if err != nil {
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			// Ceil to whole seconds for the header (the format allows no
			// finer); the JSON body carries the precise hint.
			secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			writeJSON(w, http.StatusTooManyRequests, errorBody{
				Error:        err.Error(),
				RetryAfterMs: shed.RetryAfter.Milliseconds(),
			})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrJournalDown):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := d.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleResult decides from Result's single read of the job: a job that
// finishes while the request is in flight answers 409 or its report,
// never 410.
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := d.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrJobPending):
		// Not done yet: 409 with the state, so pollers can distinguish
		// "in progress" from "gone wrong".
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusGone, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := d.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrJobTerminal):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	}
}

func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := d.Get(id); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	// Subscribe BEFORE the state snapshot: an event landing between the
	// two is then delivered, never lost (at-least-once, with the
	// snapshot possibly duplicating one transition). The lookup above
	// only decides the 404; a job that turned terminal before the
	// subscription shows up terminal here.
	ch, cancel := d.hub.subscribe(id)
	defer cancel()
	job, err := d.Get(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE := func(ev *Event) {
		fmt.Fprintf(w, "data: %s\n\n", ev.encode())
		flusher.Flush()
	}
	writeSSE(&Event{Type: "state", Job: id, State: job.State, Error: job.Error})
	if job.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			writeSSE(ev)
			if ev.Type == "state" && ev.State.Terminal() {
				return
			}
		}
	}
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh composed gauges at scrape time, then export one atomic
	// snapshot: every value in the scrape reflects a single instant.
	d.mu.Lock()
	depths := d.queue.depths()
	d.mu.Unlock()
	for tenant, depth := range depths {
		d.reg.Set(tenantLabels(tenant), "queue_depth_now", int64(depth))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.reg.WritePrometheus(w, "ucheckerd")
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := d.Fatal(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
