package scand

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/corpus"
	"repro/internal/uchecker"
)

// BenchmarkDaemonJob measures a daemon job end to end through the HTTP
// API, with the handler called on httptest recorders: a JSON
// POST /jobs, the job's event stream up to its terminal state, then
// GET /jobs/{id}/result. An op is one plugin submitted three times, as
// the benchmark's daemon workload submits each plugin: a cold job that
// scans and fills the result cache, then two warm jobs the cache
// answers. Each op gives the plugin a name of its own (the name is part
// of the cache key), so its first job always misses.
func BenchmarkDaemonJob(b *testing.B) {
	app := corpus.RandomPlugins(1, 20, 20)[19]
	d, err := Open(Config{Dir: b.TempDir(), Scan: uchecker.Options{}, ScanWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	h := d.Handler()

	// The body is built once; each op rewrites the eight digits of the
	// name in place, so the client allocates no body per op.
	srcJSON, err := json.Marshal(app.Sources)
	if err != nil {
		b.Fatal(err)
	}
	prefix := `{"name":"` + app.Name + `-`
	body := []byte(prefix + `00000000","sources":` + string(srcJSON) + `}`)
	digits := body[len(prefix) : len(prefix)+8]

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := len(digits)-1, i; j >= 0; j, n = j-1, n/10 {
			digits[j] = '0' + byte(n%10)
		}
		var cold []byte
		for k := 0; k < 3; k++ {
			raw := benchJob(b, h, body)
			if k == 0 {
				cold = raw
			} else if !bytes.Equal(raw, cold) {
				b.Fatalf("op %d: warm result differs from the cold result", i)
			}
		}
	}
}

// benchJob runs one job through h and returns its result bytes.
func benchJob(b *testing.B, h http.Handler, body []byte) []byte {
	req := httptest.NewRequest(http.MethodPost, "/jobs?tenant=bench", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		b.Fatalf("submit = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var job Job
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		b.Fatal(err)
	}

	// The events handler returns after the terminal state event.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID+"/events", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"state":"finished"`)) {
		b.Fatalf("job %s: event stream did not finish: %s", job.ID, rec.Body.Bytes())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("result %s = %d: %s", job.ID, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}
