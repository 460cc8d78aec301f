package scand

import (
	"net/http/httptest"
	"testing"
)

// TestEventsDroppedCounted: a subscriber that never reads fills its
// subBuffer-event buffer, and the next publish is dropped and counted
// on the daemon's /metrics as events_dropped_total{scope="daemon"}.
func TestEventsDroppedCounted(t *testing.T) {
	d := mustOpen(t, testConfig(t.TempDir(), 1))
	defer d.Close()
	_, cancel := d.hub.subscribe("j-stalled")
	defer cancel()
	for i := 0; i < subBuffer+1; i++ {
		d.hub.publishState("j-stalled", JobRunning, "")
	}

	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	const series = `ucheckerd_events_dropped_total{scope="daemon"}`
	if v := promValue(rec.Body.String(), series); v != 1 {
		t.Errorf("%s = %d, want 1; exposition:\n%s", series, v, rec.Body.String())
	}
}
