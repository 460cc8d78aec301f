// Per-job event streaming: the obs span/counter hooks surfaced as SSE.
//
// The hub is deliberately lossy for slow consumers: a subscriber that
// cannot keep up has events dropped, never blocks a scan worker —
// observability must not become backpressure on the pipeline it
// observes. Each drop counts as events_dropped_total{scope="daemon"} in
// the daemon's registry.
package scand

import (
	"encoding/json"
	"sync"
	"time"

	"repro/internal/obs"
)

// Event is one item of a job's progress stream.
type Event struct {
	// Type is "state" (lifecycle transition) or "span" (one finished
	// obs span of the job's scan).
	Type string `json:"type"`
	// Job is the job ID.
	Job string `json:"job"`
	// State is the new lifecycle state (state events).
	State JobState `json:"state,omitempty"`
	// Error is the terminal error text (failed/cancelled state events).
	Error string `json:"error,omitempty"`
	// Span is the span name (span events).
	Span string `json:"span,omitempty"`
	// DurMicros is the span duration in microseconds (span events).
	DurMicros int64 `json:"durMicros,omitempty"`
}

// subBuffer bounds one subscriber's in-flight events.
const subBuffer = 256

type eventHub struct {
	mu   sync.Mutex
	subs map[string]map[chan *Event]struct{} // jobID → subscribers
	reg  *obs.Registry                       // counts dropped events
}

func newEventHub(reg *obs.Registry) *eventHub {
	return &eventHub{subs: map[string]map[chan *Event]struct{}{}, reg: reg}
}

// subscribe registers a listener for one job's events. The returned
// cancel must be called exactly once; the channel is never closed by
// the hub (the subscriber stops reading instead). Every subscriber of a
// job receives the same *Event, which no one may modify.
func (h *eventHub) subscribe(jobID string) (<-chan *Event, func()) {
	ch := make(chan *Event, subBuffer)
	h.mu.Lock()
	set, ok := h.subs[jobID]
	if !ok {
		set = map[chan *Event]struct{}{}
		h.subs[jobID] = set
	}
	set[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs[jobID], ch)
		if len(h.subs[jobID]) == 0 {
			delete(h.subs, jobID)
		}
		h.mu.Unlock()
	}
}

// publish hands ev to every subscriber of the job. The event is copied
// to the heap only when someone subscribes, once for all of them.
func (h *eventHub) publish(jobID string, ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	set := h.subs[jobID]
	if len(set) == 0 {
		return
	}
	shared := new(Event)
	*shared = ev
	for ch := range set {
		select {
		case ch <- shared:
		default:
			h.reg.Add(daemonLabels, "events_dropped_total", 1)
		}
	}
}

func (h *eventHub) publishState(jobID string, state JobState, errText string) {
	h.publish(jobID, Event{Type: "state", Job: jobID, State: state, Error: errText})
}

func (h *eventHub) publishSpan(jobID string, sp obs.Span) {
	h.publish(jobID, Event{
		Type: "span", Job: jobID, Span: sp.Name,
		DurMicros: int64(sp.Dur() / time.Microsecond),
	})
}

// encode renders an Event as one SSE data payload.
func (ev *Event) encode() []byte {
	b, _ := json.Marshal(ev)
	return b
}
