// Package obs is the pipeline's observability layer: a lightweight
// span/trace recorder and a deterministic counter set, with export to
// Chrome trace-event JSON and Prometheus text exposition. It has no
// external dependencies and costs nothing when disabled (every call
// site guards on a nil *Recorder).
//
// Two kinds of signal, deliberately separated:
//
//   - Spans carry wall-clock timing and hierarchy (scan → parse /
//     locality / root → attempt → interp / model / solve). They are
//     inherently nondeterministic (they measure time) and are exported
//     to trace files for humans and profilers.
//
//   - Metrics carry counts of work performed (paths forked, candidate
//     assignments tried, …). They are deterministic for a deterministic
//     pipeline: merged with commutative, associative operations
//     (addition; max for "_peak" gauges), so an app's metric set is
//     byte-identical regardless of worker count or scheduling. That
//     determinism is what makes before/after comparisons of perf work
//     trustworthy, and it is enforced by a scanner test.
package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// PeakSuffix marks gauge-style metrics merged by max instead of
// addition. Any key ending in PeakSuffix (e.g. "interp_live_envs_peak")
// records a high-water mark; all other keys are monotone counters.
const PeakSuffix = "_peak"

// Metrics is a flat, mergeable counter set keyed by snake_case metric
// name. The zero value is not usable; call NewMetrics or let Merge
// allocate. Metrics is NOT safe for concurrent use — the scanner keeps
// one per root and merges in canonical order.
type Metrics map[string]int64

// NewMetrics returns an empty metric set.
func NewMetrics() Metrics { return Metrics{} }

// Add increments a counter.
func (m Metrics) Add(key string, delta int64) {
	if delta != 0 {
		m[key] += delta
	}
}

// SetMax raises a peak gauge to v if v is larger.
func (m Metrics) SetMax(key string, v int64) {
	if cur, ok := m[key]; !ok || v > cur {
		m[key] = v
	}
}

// Merge folds other into m: "_peak" keys by max, everything else by
// addition. Both operations are commutative and associative, so any
// merge order yields the same result — the determinism guarantee.
func (m Metrics) Merge(other Metrics) {
	for k, v := range other {
		if strings.HasSuffix(k, PeakSuffix) {
			m.SetMax(k, v)
		} else {
			m.Add(k, v)
		}
	}
}

// Clone returns a deep copy.
func (m Metrics) Clone() Metrics {
	out := make(Metrics, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Keys returns the metric names in sorted order.
func (m Metrics) Keys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string
	Value string
}

// A creates an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanID identifies a span within one Recorder. 0 is "no span" (the
// root parent).
type SpanID int64

// Span is one finished (or still-open, in Snapshot) timed region.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Attrs  []Attr
	Start  time.Time
	End    time.Time // zero while the span is open
}

// Dur returns the span's duration (zero for open spans).
func (s Span) Dur() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Attr returns the value of the named attribute, or "".
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Recorder collects spans. It is safe for concurrent use: scanner
// workers record spans from many goroutines. A nil *Recorder is a
// valid no-op recorder (Start returns a no-op span), so callers thread
// a possibly-nil recorder without guards.
type Recorder struct {
	mu     sync.Mutex
	nextID SpanID
	spans  []Span
	// OnEnd, when non-nil, receives every finished span, in the order
	// the spans are recorded. It is invoked synchronously under the
	// Recorder's lock, so it is never invoked concurrently and may touch
	// unsynchronized state, even while many goroutines end spans. It
	// must be fast and must not call back into the Recorder. Set it
	// before the first span starts.
	OnEnd func(Span)
	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{now: time.Now} }

// ActiveSpan is an open span; call End (or EndWith) exactly once.
// The zero/nil value (from a nil Recorder) is a no-op.
type ActiveSpan struct {
	rec  *Recorder
	span Span
}

// Start opens a span under parent (0 for top-level). On a nil Recorder
// it returns a no-op span whose End does nothing and whose ID is 0.
func (r *Recorder) Start(parent SpanID, name string, attrs ...Attr) *ActiveSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return &ActiveSpan{
		rec:  r,
		span: Span{ID: id, Parent: parent, Name: name, Attrs: attrs, Start: r.now()},
	}
}

// ID returns the span's ID (0 for a no-op span), usable as a parent.
func (a *ActiveSpan) ID() SpanID {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// SetAttr appends an attribute to the open span.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
}

// End closes the span and hands it to the Recorder.
func (a *ActiveSpan) End(attrs ...Attr) {
	if a == nil {
		return
	}
	a.span.Attrs = append(a.span.Attrs, attrs...)
	a.span.End = a.rec.now()
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, a.span)
	onEnd := a.rec.OnEnd
	if onEnd != nil {
		onEnd(a.span)
	}
	a.rec.mu.Unlock()
}

// Snapshot returns a copy of all finished spans, ordered by end time
// (the order they were recorded).
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Len reports the number of finished spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
