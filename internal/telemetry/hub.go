package telemetry

import "time"

// Hub bundles one site's tracer, metrics registry, per-object profiler,
// and flight recorder. A nil *Hub is the disabled state: every method
// no-ops or returns nil instruments, so the instrumented hot paths cost
// one nil check when telemetry is off.
type Hub struct {
	site     string
	tracer   *Tracer
	metrics  *Metrics
	profiler *Profiler
	flight   *FlightRecorder
	clock    func() time.Time
}

// HubOption configures a Hub.
type HubOption func(*hubConfig)

type hubConfig struct {
	clock    func() time.Time
	capacity int
}

// WithClock injects the hub's time source — how netsim scenarios keep
// span timestamps deterministic. Defaults to time.Now.
func WithClock(clock func() time.Time) HubOption {
	return func(c *hubConfig) { c.clock = clock }
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
	clock := cfg.clock
	if clock == nil {
		clock = time.Now
	}
	return &Hub{
		site:     site,
		tracer:   newTracer(site, clock, cfg.capacity),
		metrics:  NewMetrics(),
		profiler: NewProfiler(defaultProfileCapacity),
		flight:   newFlightRecorder(site, clock, defaultFlightCapacity),
		clock:    clock,
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

// Now returns the hub's clock reading (wall clock when disabled).
func (h *Hub) Now() time.Time {
	if h == nil {
		return time.Now()
	}
	return h.clock()
}

// StartSpan begins a span under parent; an invalid parent roots a new
// trace. Returns nil (a no-op span) when the hub is disabled.
//
// The three Start methods are small enough to inline, so the span each
// allocates lives in the caller's frame as long as the caller keeps the
// pointer to itself (TestRecordingAllocationsPinned). Each spells out the
// same four lines: one calling another would exceed the inlining budget.
func (h *Hub) StartSpan(parent SpanContext, name string) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, parent, PrefixNone, name)
	return s
}

// StartPrefixed is StartSpan for a two-part name such as "rmi:"+method:
// the halves are joined when the span is exported, not here.
func (h *Hub) StartPrefixed(parent SpanContext, prefix SpanPrefix, name string) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, parent, prefix, name)
	return s
}

// StartRoot begins a new trace.
func (h *Hub) StartRoot(name string) *Span {
	if h == nil {
		return nil
	}
	s := new(Span)
	h.tracer.start(s, SpanContext{}, PrefixNone, name)
	return s
}

// MetricsSnapshot exports the current metrics state.
func (h *Hub) MetricsSnapshot() *MetricsSnapshot {
	if h == nil {
		return &MetricsSnapshot{}
	}
	return h.metrics.Snapshot(h.site, h.clock().UnixNano())
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
// when topK <= 0). Empty, but non-nil, when disabled.
func (h *Hub) ProfileSnapshot(topK int) *ProfileSnapshot {
	if h == nil {
		return &ProfileSnapshot{}
	}
	return h.profiler.Snapshot(h.site, h.clock().UnixNano(), topK)
}
