package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/stats"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// (telemetry disabled) no-ops.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histShards spreads concurrent observers across independent atomics so a
// hot call path never serializes on one cache line.
const histShards = 8

// histBuckets is one power-of-two bucket per value magnitude: bucket i
// holds values whose bit length is i, i.e. [2^(i-1), 2^i).
const histBuckets = 65

type histShard struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
	_       [64]byte // shard padding against false sharing
}

// histExemplars bounds how many tail exemplars a histogram retains.
const histExemplars = 8

// Exemplar ties one tail sample to the trace that produced it — the
// evidence `obiwan-admin slow` resolves back into an annotated critical
// path.
type Exemplar struct {
	Value   int64
	TraceID uint64
}

// Histogram is a lock-free sharded streaming histogram over non-negative
// int64 values (durations in nanoseconds, sizes, counts). Observations
// land in power-of-two buckets, so memory is fixed no matter how many
// samples arrive; percentiles are bucket-resolution estimates. A nil
// *Histogram no-ops.
//
// Traced observations (ObserveExemplar) additionally keep the
// histExemplars largest samples' trace ids. The hot path pays one atomic
// floor check; only samples that belong in the retained tail take the
// exemplar lock.
type Histogram struct {
	shards [histShards]histShard
	pick   atomic.Uint32
	min    atomic.Int64
	max    atomic.Int64

	exFloor atomic.Int64 // smallest retained exemplar (MinInt64 until full)
	exMu    sync.Mutex
	ex      []Exemplar
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	h.exFloor.Store(math.MinInt64)
	return h
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	// min and max first: a snapshot that sees this sample counted must
	// also see it bounded, or it would report Min > Max.
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	s := &h.shards[h.pick.Add(1)%histShards]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveExemplar records one value and, when it lands in the retained
// tail, remembers the trace that produced it. traceID 0 (untraced call)
// degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	h.Observe(v)
	if h == nil || traceID == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < h.exFloor.Load() {
		return
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.ex) < histExemplars {
		h.ex = append(h.ex, Exemplar{Value: v, TraceID: traceID})
		if len(h.ex) == histExemplars {
			h.exFloor.Store(h.exMin())
		}
		return
	}
	mi := 0
	for i := range h.ex {
		if h.ex[i].Value < h.ex[mi].Value {
			mi = i
		}
	}
	// Strict >: on a tie the earliest-recorded exemplar wins, so replays
	// of a deterministic run retain identical trace ids.
	if v > h.ex[mi].Value {
		h.ex[mi] = Exemplar{Value: v, TraceID: traceID}
		h.exFloor.Store(h.exMin())
	}
}

// exMin returns the smallest retained exemplar value. Call with exMu held.
func (h *Histogram) exMin() int64 {
	lo := h.ex[0].Value
	for _, e := range h.ex[1:] {
		if e.Value < lo {
			lo = e.Value
		}
	}
	return lo
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// snapshot merges all shards into an exported value.
func (h *Histogram) snapshot(name string) HistogramValue {
	out := HistogramValue{Name: name}
	var merged [histBuckets]uint64
	for i := range h.shards {
		s := &h.shards[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		for b := range s.buckets {
			merged[b] += s.buckets[b].Load()
		}
	}
	if out.Count == 0 {
		return out
	}
	out.Min = h.min.Load()
	out.Max = h.max.Load()
	for b, n := range merged {
		if n == 0 {
			continue
		}
		le := int64(math.MaxInt64)
		if b < 63 {
			le = (int64(1) << b) - 1
		}
		out.Buckets = append(out.Buckets, BucketCount{Le: le, Count: n})
	}
	out.P50 = bucketQuantile(out.Buckets, out.Count, 0.50, out.Min, out.Max)
	out.P90 = bucketQuantile(out.Buckets, out.Count, 0.90, out.Min, out.Max)
	out.P99 = bucketQuantile(out.Buckets, out.Count, 0.99, out.Min, out.Max)
	h.exMu.Lock()
	if len(h.ex) > 0 {
		out.Exemplars = append([]Exemplar(nil), h.ex...)
	}
	h.exMu.Unlock()
	sortExemplars(out.Exemplars)
	return out
}

// sortExemplars orders exemplars by the canonical total order: value
// descending, trace id ascending — what snapshot, Merge, and the slow
// command all render.
func sortExemplars(ex []Exemplar) {
	sort.Slice(ex, func(i, j int) bool {
		if ex[i].Value != ex[j].Value {
			return ex[i].Value > ex[j].Value
		}
		return ex[i].TraceID < ex[j].TraceID
	})
}

// bucketQuantile estimates the q-th quantile from exported buckets: the
// answer is the upper bound of the bucket holding the q-th sample,
// clamped into [min, max]. Buckets must be sorted by bound, as
// Histogram.snapshot and HistogramValue.Merge both produce.
func bucketQuantile(buckets []BucketCount, total uint64, q float64, min, max int64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		if cum > rank {
			le := b.Le
			if le < min {
				le = min
			}
			if le > max {
				le = max
			}
			return le
		}
	}
	return max
}

// BucketCount is one non-empty histogram bucket: Count values ≤ Le (and
// greater than the previous bucket's bound).
type BucketCount struct {
	Le    int64
	Count uint64
}

// CounterValue is one exported counter.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one exported gauge.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one exported histogram: totals, bucket-resolution
// percentiles, the non-empty buckets themselves, and the tail exemplars
// (largest traced samples, value-descending).
type HistogramValue struct {
	Name      string
	Count     uint64
	Sum       int64
	Min       int64
	Max       int64
	P50       int64
	P90       int64
	P99       int64
	Buckets   []BucketCount
	Exemplars []Exemplar
}

// MetricsSnapshot is a site's full metrics state at one instant, sorted
// by name for deterministic rendering and diffing.
type MetricsSnapshot struct {
	Site       string
	TakenAtNS  int64
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

func init() {
	codec.MustRegister("obiwan.telemetry.BucketCount", BucketCount{})
	codec.MustRegister("obiwan.telemetry.Exemplar", Exemplar{})
	codec.MustRegister("obiwan.telemetry.CounterValue", CounterValue{})
	codec.MustRegister("obiwan.telemetry.GaugeValue", GaugeValue{})
	codec.MustRegister("obiwan.telemetry.HistogramValue", HistogramValue{})
	codec.MustRegister("obiwan.telemetry.MetricsSnapshot", MetricsSnapshot{})
}

// Get returns the named counter's value, or 0.
func (s *MetricsSnapshot) Get(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// GetHistogram returns the named histogram, or a zero value.
func (s *MetricsSnapshot) GetHistogram(name string) HistogramValue {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistogramValue{}
}

// Format renders the snapshot as aligned tables (the obiwan-admin
// output). Rows are sorted by name regardless of slice order — a
// registry snapshot arrives sorted, but merged or hand-assembled
// snapshots need not be, and scrape diffs and golden tests want one
// stable rendering.
func (s *MetricsSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics for site %q\n\n", s.Site)
	counters := append([]CounterValue(nil), s.Counters...)
	gauges := append([]GaugeValue(nil), s.Gauges...)
	hists := append([]HistogramValue(nil), s.Histograms...)
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	if len(counters) > 0 || len(gauges) > 0 {
		t := stats.NewTable("name", "value")
		for _, c := range counters {
			t.AddRow(c.Name, c.Value)
		}
		for _, g := range gauges {
			t.AddRow(g.Name, g.Value)
		}
		_, _ = t.WriteTo(&b)
		b.WriteByte('\n')
	}
	if len(hists) > 0 {
		t := stats.NewTable("histogram", "count", "min", "p50", "p90", "p99", "max")
		for _, h := range hists {
			if strings.HasSuffix(h.Name, "_ns") {
				t.AddRow(h.Name, h.Count,
					time.Duration(h.Min), time.Duration(h.P50),
					time.Duration(h.P90), time.Duration(h.P99), time.Duration(h.Max))
			} else {
				t.AddRow(h.Name, h.Count, h.Min, h.P50, h.P90, h.P99, h.Max)
			}
		}
		_, _ = t.WriteTo(&b)
	}
	return b.String()
}

// Metrics is a site's metric registry: named counters, gauges, and
// histograms, created on first use. All methods are safe for concurrent
// use, and every method on a nil *Metrics (telemetry disabled) returns a
// nil instrument whose operations no-op — instrumented code resolves its
// instruments once and never branches again.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Durations
// are recorded in nanoseconds; by convention their names end in "_ns".
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram()
		m.hists[name] = h
	}
	return h
}

// Snapshot exports every instrument, sorted by name.
func (m *Metrics) Snapshot(site string, nowNS int64) *MetricsSnapshot {
	out := &MetricsSnapshot{Site: site, TakenAtNS: nowNS}
	if m == nil {
		return out
	}
	m.mu.Lock()
	counters := make(map[string]*Counter, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(m.gauges))
	for k, v := range m.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(m.hists))
	for k, v := range m.hists {
		hists[k] = v
	}
	m.mu.Unlock()

	for name, c := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: c.Load()})
	}
	for name, g := range gauges {
		out.Gauges = append(out.Gauges, GaugeValue{Name: name, Value: g.Load()})
	}
	for name, h := range hists {
		out.Histograms = append(out.Histograms, h.snapshot(name))
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
