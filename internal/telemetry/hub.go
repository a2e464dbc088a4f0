package telemetry

import "time"

// Hub bundles one site's tracer, metrics registry, per-object profiler,
// and flight recorder. A nil *Hub is the disabled state: every method
// no-ops or returns nil instruments, so the instrumented hot paths cost
// one nil check when telemetry is off.
//
// A hub reads no clock. Every time it records (a span's start and end, a
// flight event, a snapshot's stamp) is a reading of the site's one clock
// that the caller hands in, so one reading can stamp everything that
// happens at one boundary of a call.
type Hub struct {
	site     string
	tracer   *Tracer
	metrics  *Metrics
	profiler *Profiler
	flight   *FlightRecorder
}

// HubOption configures a Hub.
type HubOption func(*hubConfig)

type hubConfig struct {
	capacity int
}

// WithSpanCapacity sets the finished-span ring size (default 4096).
func WithSpanCapacity(n int) HubOption {
	return func(c *hubConfig) { c.capacity = n }
}

// NewHub builds the telemetry hub for the named site.
func NewHub(site string, opts ...HubOption) *Hub {
	cfg := hubConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Hub{
		site:     site,
		tracer:   newTracer(site, cfg.capacity),
		metrics:  NewMetrics(),
		profiler: NewProfiler(defaultProfileCapacity),
		flight:   newFlightRecorder(site, defaultFlightCapacity),
	}
}

// Enabled reports whether telemetry is on.
func (h *Hub) Enabled() bool { return h != nil }

// Metrics returns the registry (nil when disabled — instruments resolved
// from it are nil and no-op).
func (h *Hub) Metrics() *Metrics {
	if h == nil {
		return nil
	}
	return h.metrics
}

// Profiler returns the per-object replication profiler (nil when
// disabled — a nil profiler no-ops).
func (h *Hub) Profiler() *Profiler {
	if h == nil {
		return nil
	}
	return h.profiler
}

// Flight returns the flight recorder (nil when disabled — a nil recorder
// no-ops).
func (h *Hub) Flight() *FlightRecorder {
	if h == nil {
		return nil
	}
	return h.flight
}

// StartSpan begins a span under parent at the reading at; an invalid
// parent roots a new trace. Returns nil (a no-op span) when the hub is
// disabled.
//
// The three Start methods are small enough to inline, so the span each
// allocates lives in the caller's frame as long as the caller keeps the
// pointer to itself (TestRecordingAllocationsPinned). Each spells out the
// same four lines: one calling another would exceed the inlining budget.
func (h *Hub) StartSpan(parent SpanContext, name string, at time.Time) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, parent, PrefixNone, name, at)
	return s
}

// StartPrefixed is StartSpan for a two-part name such as "rmi:"+method:
// the halves are joined when the span is exported, not here.
func (h *Hub) StartPrefixed(parent SpanContext, prefix SpanPrefix, name string, at time.Time) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, parent, prefix, name, at)
	return s
}

// StartRoot begins a new trace at the reading at.
func (h *Hub) StartRoot(name string, at time.Time) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, SpanContext{}, PrefixNone, name, at)
	return s
}

// MetricsSnapshot exports the current metrics state, taken at at.
func (h *Hub) MetricsSnapshot(at time.Time) *MetricsSnapshot {
	if h == nil {
		return &MetricsSnapshot{}
	}
	return h.metrics.Snapshot(h.site, at.UnixNano())
}

// Spans returns up to max recent finished spans, oldest first.
func (h *Hub) Spans(max int) []SpanRecord {
	if h == nil {
		return nil
	}
	return h.tracer.Snapshot(max)
}

// SpansSince returns up to max finished spans committed at or after
// cursor (a count of spans ever committed), oldest first, plus the
// cursor to resume from and how many requested spans had already been
// evicted. Feeding next back in yields each span exactly once — the
// streaming contract behind the admin Scrape endpoint.
func (h *Hub) SpansSince(cursor uint64, max int) (spans []SpanRecord, next uint64, missed uint64) {
	if h == nil {
		return nil, cursor, 0
	}
	return h.tracer.SnapshotSince(cursor, max)
}

// ProfileSnapshot exports the topK hottest object profiles (all tracked
// when topK <= 0), taken at at. Empty, but non-nil, when disabled.
func (h *Hub) ProfileSnapshot(topK int, at time.Time) *ProfileSnapshot {
	if h == nil {
		return &ProfileSnapshot{}
	}
	return h.profiler.Snapshot(h.site, at.UnixNano(), topK)
}
