// Package fleet is the cross-site observability layer: a Collector
// scrapes the admin service of N peer sites over plain RMI, folds their
// telemetry into one order-independent aggregate (metrics, cross-site
// top-K hot objects), and runs a declarative SLO watchdog over the
// federated stream. The paper's incremental-replication argument is
// about fleet behaviour — where demand traffic and mobility hot-spots
// land across many sites — and this package is where that behaviour
// becomes one observable object instead of N per-site snapshots.
package fleet

import (
	"fmt"
	"sort"
	"sync"

	"obiwan/internal/admin"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// topK bounds the aggregated hot-object ranking.
const topK = 16

// maxAlerts bounds the watchdog's retained alert backlog; older alerts
// fall off the front (counted in alertsDropped, surfaced as the
// fleet.alerts.dropped counter — a silent drop would read as "no alert").
const maxAlerts = 256

// spanBufferCap bounds the collector's buffer of scraped spans — the raw
// material for fleet-wide slow-trace resolution and critical-path
// attribution. Oldest spans fall off the front; a trace whose spans have
// been evicted renders a shorter (possibly empty) critical path rather
// than failing.
const spanBufferCap = 8192

// peerState is the collector's per-site memory: the scrape cursor, the
// last successful observation, and the counter values the rate rules
// difference against.
type peerState struct {
	cursor  uint64
	missed  uint64
	errStr  string
	takenAt int64
	scrapes uint64
	metrics *telemetry.MetricsSnapshot
	profile *telemetry.ProfileSnapshot
	// prev holds the previous scrape's counter values for the metrics
	// rate rules watch, so churn is a per-interval delta, not a total.
	prev map[string]uint64
}

// Collector scrapes a fixed set of peer sites and serves the aggregated
// fleet view. Scrapes visit peers in sorted address order and fold with
// the telemetry merge layer, so one scrape of a quiesced fleet is a
// deterministic function of fleet state. Safe for concurrent use.
type Collector struct {
	rt     *rmi.Runtime
	rules  []Rule
	flight *telemetry.FlightRecorder

	mu            sync.Mutex
	peers         []transport.Addr
	states        map[transport.Addr]*peerState
	last          *telemetry.FleetSnapshot
	alerts        []telemetry.Alert
	alertsDropped uint64 // alerts evicted from the bounded backlog
	spans         []telemetry.SpanRecord
	total         uint64 // completed scrape rounds

	droppedCtr *telemetry.Counter // fleet.alerts.dropped on the host hub; nil no-op
}

// Option configures a Collector.
type Option func(*c0)

type c0 struct {
	rules  []Rule
	flight *telemetry.FlightRecorder
}

// WithRules installs the watchdog rule set (default DefaultRules).
func WithRules(rules []Rule) Option { return func(o *c0) { o.rules = rules } }

// WithFlight routes watchdog alerts into a flight recorder (typically
// the collector site's own), so an SLO breach is preserved next to the
// protocol events that caused it.
func WithFlight(f *telemetry.FlightRecorder) Option { return func(o *c0) { o.flight = f } }

// New builds a collector that scrapes peers through rt. The peer list
// is copied and sorted; duplicates are dropped.
func New(rt *rmi.Runtime, peers []transport.Addr, opts ...Option) *Collector {
	cfg := c0{rules: DefaultRules()}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Collector{
		rt:     rt,
		rules:  cfg.rules,
		flight: cfg.flight,
		states: make(map[transport.Addr]*peerState),
	}
	if m := rt.Telemetry().Metrics(); m != nil {
		c.droppedCtr = m.Counter("fleet.alerts.dropped")
	}
	seen := make(map[transport.Addr]bool, len(peers))
	for _, p := range peers {
		if seen[p] {
			continue
		}
		seen[p] = true
		c.peers = append(c.peers, p)
		c.states[p] = &peerState{}
	}
	sort.Slice(c.peers, func(i, j int) bool { return c.peers[i] < c.peers[j] })
	return c
}

// ScrapeOnce pulls every peer (sorted order, cursor-resumed), folds the
// observations into a fresh fleet snapshot, evaluates the watchdog
// rules, and returns the aggregate. An unreachable peer keeps its last
// observation and is marked with the scrape error — the fleet view
// degrades to slightly stale instead of losing the site.
func (c *Collector) ScrapeOnce() *telemetry.FleetSnapshot {
	c.mu.Lock()
	peers := append([]transport.Addr(nil), c.peers...)
	c.mu.Unlock()

	for _, peer := range peers {
		c.mu.Lock()
		cursor := c.states[peer].cursor
		c.mu.Unlock()
		chunk, err := admin.NewClient(c.rt, admin.Ref(peer)).Scrape(cursor, 0, topK)
		c.mu.Lock()
		st := c.states[peer]
		if err != nil {
			st.errStr = err.Error()
			c.mu.Unlock()
			continue
		}
		st.errStr = ""
		st.cursor = chunk.NextCursor
		st.missed += chunk.Missed
		st.takenAt = chunk.TakenAtNS
		st.metrics = chunk.Metrics
		st.profile = chunk.Profile
		st.scrapes++
		if len(chunk.Spans) > 0 {
			c.spans = append(c.spans, chunk.Spans...)
			if excess := len(c.spans) - spanBufferCap; excess > 0 {
				c.spans = append([]telemetry.SpanRecord(nil), c.spans[excess:]...)
			}
		}
		c.mu.Unlock()
	}

	now := c.rt.Clock().Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	snap := &telemetry.FleetSnapshot{TakenAtNS: now, Scrapes: c.total}
	merged := &telemetry.MetricsSnapshot{}
	profile := &telemetry.ProfileSnapshot{}
	for _, peer := range c.peers {
		st := c.states[peer]
		snap.Sites = append(snap.Sites, telemetry.SiteObservation{
			Site:      string(peer),
			TakenAtNS: st.takenAt,
			Cursor:    st.cursor,
			Missed:    st.missed,
			Err:       st.errStr,
			Metrics:   st.metrics,
			Profile:   st.profile,
		})
		merged = merged.Merge(st.metrics)
		// Fold untruncated: cutting to top-K at each pairwise step would
		// make the ranking depend on fold order (an object just below the
		// cut can be promoted by a later site's contribution).
		profile = profile.Merge(st.profile, 0)
	}
	// One final re-rank-and-truncate now that every site has contributed.
	profile = profile.Merge(nil, topK)
	merged.Site, merged.TakenAtNS = "fleet", now
	profile.Site, profile.TakenAtNS = "fleet", now
	snap.Metrics, snap.Profile = merged, profile
	c.last = snap
	c.evaluateLocked(snap, now)
	return snap
}

// evaluateLocked runs the watchdog rules over the fresh snapshot,
// retains the alerts, and preserves each in the flight recorder.
func (c *Collector) evaluateLocked(snap *telemetry.FleetSnapshot, nowNS int64) {
	fired := evaluate(c.rules, snap, c.states, nowNS)
	for _, a := range fired {
		c.alerts = append(c.alerts, a)
		if c.flight != nil {
			c.flight.Record(telemetry.FlightEvent{
				Kind: "slo." + a.Rule,
				Detail: fmt.Sprintf("site=%s metric=%s value=%.0f threshold=%.0f %s",
					a.Site, a.Metric, a.Value, a.Threshold, a.Detail),
			})
		}
	}
	if excess := len(c.alerts) - maxAlerts; excess > 0 {
		c.alerts = append([]telemetry.Alert(nil), c.alerts[excess:]...)
		c.alertsDropped += uint64(excess)
		c.droppedCtr.Add(uint64(excess))
	}
	// Roll the per-site counter baselines forward for the rate rules.
	for _, peer := range c.peers {
		st := c.states[peer]
		if st.metrics == nil {
			continue
		}
		if st.prev == nil {
			st.prev = make(map[string]uint64)
		}
		for _, r := range c.rules {
			if r.Kind != RuleRate {
				continue
			}
			st.prev[r.Metric] = st.metrics.Get(r.Metric)
		}
	}
}

// Fleet implements admin.FleetSource. With refresh set it scrapes every
// peer first; otherwise it reads what the last round assembled (a nil
// Snapshot before the first). Slow ranks every peer's tail exemplars as
// of that snapshot against the span buffer (telemetry.RankSlow, at most
// maxSlow, all when <= 0), so each trace carries its cross-site spans;
// Attribution profiles every complete trace in the buffer. Both are pure
// functions of the buffered spans, so a quiesced virtual-clock fleet
// yields a byte-stable chunk.
func (c *Collector) Fleet(refresh bool, maxSlow int) *admin.FleetChunk {
	if refresh {
		c.ScrapeOnce()
	}
	c.mu.Lock()
	chunk := &admin.FleetChunk{
		Snapshot: c.last,
		Dropped:  c.alertsDropped,
		Alerts:   append([]telemetry.Alert(nil), c.alerts...),
	}
	// A scrape appends past len and an eviction reallocates, so the
	// buffered spans read below never change under this reader.
	spans := c.spans
	c.mu.Unlock()
	if chunk.Snapshot != nil {
		chunk.Slow = telemetry.RankSlow(chunk.Snapshot.Sites, spans, maxSlow)
	}
	b := telemetry.NewAttributionBuilder()
	b.AddTrees(telemetry.BuildTrees(spans))
	chunk.Attribution = b.Profile("fleet", c.rt.Clock().Now().UnixNano())
	return chunk
}
