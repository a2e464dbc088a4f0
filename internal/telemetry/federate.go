package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/stats"
)

// This file is the fleet-federation layer: snapshots scraped from many
// sites merge into one aggregate, and the merged forms are what the
// fleet collector serves and the SLO watchdog evaluates. All merges are
// order-independent — folding N snapshots in any order yields identical
// totals, histogram quantile bounds, and top-K sets — so a collector
// can combine scrapes as they arrive without coordinating.

// Merge combines two histogram values observed independently (typically
// the same instrument on two sites). The combined value is canonical:
// buckets are summed by upper bound and sorted ascending (collapsing
// the duplicate MaxInt64 bound a single-site snapshot can carry for its
// two widest magnitude buckets), count/sum/min/max are exact, and the
// quantiles are re-derived from the combined buckets at the same
// bucket-boundary resolution as a single-site snapshot.
func (h HistogramValue) Merge(o HistogramValue) HistogramValue {
	out := HistogramValue{Name: h.Name}
	if out.Name == "" {
		out.Name = o.Name
	}
	out.Count = h.Count + o.Count
	if out.Count == 0 {
		return out
	}
	out.Sum = h.Sum + o.Sum
	switch {
	case h.Count == 0:
		out.Min, out.Max = o.Min, o.Max
	case o.Count == 0:
		out.Min, out.Max = h.Min, h.Max
	default:
		out.Min = min(h.Min, o.Min)
		out.Max = max(h.Max, o.Max)
	}
	byLe := make(map[int64]uint64, len(h.Buckets)+len(o.Buckets))
	for _, b := range h.Buckets {
		byLe[b.Le] += b.Count
	}
	for _, b := range o.Buckets {
		byLe[b.Le] += b.Count
	}
	out.Buckets = make([]BucketCount, 0, len(byLe))
	for le, n := range byLe {
		out.Buckets = append(out.Buckets, BucketCount{Le: le, Count: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Le < out.Buckets[j].Le })
	out.P50 = bucketQuantile(out.Buckets, out.Count, 0.50, out.Min, out.Max)
	out.P90 = bucketQuantile(out.Buckets, out.Count, 0.90, out.Min, out.Max)
	out.P99 = bucketQuantile(out.Buckets, out.Count, 0.99, out.Min, out.Max)
	// Exemplars: keep the largest histExemplars of the union under the
	// canonical total order (value desc, trace asc). Top-K under a total
	// order is associative, so pairwise folds stay order-independent.
	if len(h.Exemplars) > 0 || len(o.Exemplars) > 0 {
		ex := make([]Exemplar, 0, len(h.Exemplars)+len(o.Exemplars))
		ex = append(ex, h.Exemplars...)
		ex = append(ex, o.Exemplars...)
		sortExemplars(ex)
		if len(ex) > histExemplars {
			ex = ex[:histExemplars]
		}
		out.Exemplars = ex
	}
	return out
}

// Merge combines two metrics snapshots into a new one: counters and
// gauges sum by name (a fleet total — per-site values stay visible in
// the collector's per-site breakdown), histograms merge by name, and
// the output is sorted by name. Either receiver or argument may be nil.
// The merged Site is kept only when both sides agree (a fleet aggregate
// names itself at the collector, not here); TakenAtNS is the newest of
// the two.
func (s *MetricsSnapshot) Merge(o *MetricsSnapshot) *MetricsSnapshot {
	if s == nil {
		s = &MetricsSnapshot{}
	}
	if o == nil {
		o = &MetricsSnapshot{}
	}
	out := &MetricsSnapshot{TakenAtNS: max(s.TakenAtNS, o.TakenAtNS)}
	if s.Site == o.Site {
		out.Site = s.Site
	}
	counters := make(map[string]uint64, len(s.Counters)+len(o.Counters))
	for _, c := range s.Counters {
		counters[c.Name] += c.Value
	}
	for _, c := range o.Counters {
		counters[c.Name] += c.Value
	}
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	gauges := make(map[string]int64, len(s.Gauges)+len(o.Gauges))
	for _, g := range s.Gauges {
		gauges[g.Name] += g.Value
	}
	for _, g := range o.Gauges {
		gauges[g.Name] += g.Value
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugeValue{Name: name, Value: v})
	}
	hists := make(map[string]HistogramValue, len(s.Histograms)+len(o.Histograms))
	for _, h := range s.Histograms {
		hists[h.Name] = h
	}
	for _, h := range o.Histograms {
		if have, ok := hists[h.Name]; ok {
			hists[h.Name] = have.Merge(h)
		} else {
			hists[h.Name] = h
		}
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, h)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// Merge combines two top-K profile snapshots: per-OID profiles sum
// field-by-field (an object hot on two sites is hotter than either
// alone), Tracked/Evicted sum across sites, and the result is re-ranked
// heat-descending (OID ascending on ties) and truncated to topK when
// topK > 0. Either side may be nil.
func (s *ProfileSnapshot) Merge(o *ProfileSnapshot, topK int) *ProfileSnapshot {
	if s == nil {
		s = &ProfileSnapshot{}
	}
	if o == nil {
		o = &ProfileSnapshot{}
	}
	out := &ProfileSnapshot{
		TakenAtNS: max(s.TakenAtNS, o.TakenAtNS),
		Tracked:   s.Tracked + o.Tracked,
		Evicted:   s.Evicted + o.Evicted,
	}
	if s.Site == o.Site {
		out.Site = s.Site
	}
	byOID := make(map[uint64]ObjectProfile, len(s.Objects)+len(o.Objects))
	for _, p := range s.Objects {
		byOID[p.OID] = addProfiles(byOID[p.OID], p)
	}
	for _, p := range o.Objects {
		byOID[p.OID] = addProfiles(byOID[p.OID], p)
	}
	out.Objects = make([]ObjectProfile, 0, len(byOID))
	for _, p := range byOID {
		out.Objects = append(out.Objects, p)
	}
	sort.Slice(out.Objects, func(i, j int) bool {
		hi, hj := out.Objects[i].Heat(), out.Objects[j].Heat()
		if hi != hj {
			return hi > hj
		}
		return out.Objects[i].OID < out.Objects[j].OID
	})
	if topK > 0 && len(out.Objects) > topK {
		out.Objects = out.Objects[:topK]
	}
	return out
}

// addProfiles sums every activity field of b into a. The zero value is
// the identity, so folding per-site profiles through it is
// order-independent.
func addProfiles(a, b ObjectProfile) ObjectProfile {
	a.OID = b.OID
	a.Faults += b.Faults
	a.HeapHits += b.HeapHits
	a.RemoteDemands += b.RemoteDemands
	a.ClusterDemands += b.ClusterDemands
	a.DemandObjects += b.DemandObjects
	a.DemandBytes += b.DemandBytes
	a.FaultNS += b.FaultNS
	a.LMICalls += b.LMICalls
	a.RMICalls += b.RMICalls
	a.Serves += b.Serves
	a.ServeObjects += b.ServeObjects
	a.ServeBytes += b.ServeBytes
	a.PutsShipped += b.PutsShipped
	a.PutsApplied += b.PutsApplied
	return a
}

// SiteObservation is one scraped site's contribution to a fleet
// snapshot: its latest per-site metrics and profile, the span-stream
// cursor the collector holds for it, and the last scrape error (empty
// when the site is healthy).
type SiteObservation struct {
	Site      string
	TakenAtNS int64
	Cursor    uint64
	Missed    uint64
	Err       string
	Metrics   *MetricsSnapshot
	Profile   *ProfileSnapshot
}

// FleetSnapshot is the collector's aggregated view of a deployment: the
// merged metrics and profile across every scraped site, plus the
// per-site breakdowns the merge was folded from. Sites are sorted by
// name, so two snapshots of identical fleet state render identically.
type FleetSnapshot struct {
	TakenAtNS int64
	Scrapes   uint64
	Sites     []SiteObservation
	Metrics   *MetricsSnapshot
	Profile   *ProfileSnapshot
}

// Alert is one SLO rule violation observed by the fleet watchdog: the
// rule that fired, the offending site ("fleet" for aggregate rules),
// the measured value against its threshold, and when it was seen.
type Alert struct {
	Rule      string
	Site      string
	Metric    string
	Value     float64
	Threshold float64
	AtNS      int64
	Detail    string
}

func init() {
	codec.MustRegister("obiwan.telemetry.SiteObservation", SiteObservation{})
	codec.MustRegister("obiwan.telemetry.FleetSnapshot", FleetSnapshot{})
	codec.MustRegister("obiwan.telemetry.Alert", Alert{})
}

// Format renders the fleet snapshot: the merged fleet-wide metrics, the
// cross-site hot-object ranking, and a one-line health row per site
// (the obiwan-admin fleet top output).
func (f *FleetSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet of %d sites (%d scrapes)\n\n", len(f.Sites), f.Scrapes)
	if len(f.Sites) > 0 {
		t := stats.NewTable("site", "rmi.calls", "bytes.sent", "stale", "missed", "err")
		for _, s := range f.Sites {
			var calls, sent uint64
			var stale int64
			if s.Metrics != nil {
				calls = s.Metrics.Get("rmi.calls")
				sent = s.Metrics.Get("rmi.bytes.sent")
				for _, g := range s.Metrics.Gauges {
					if g.Name == "site.stale.replicas" {
						stale = g.Value
					}
				}
			}
			t.AddRow(s.Site, calls, sent, stale, s.Missed, s.Err)
		}
		_, _ = t.WriteTo(&b)
		b.WriteByte('\n')
	}
	if f.Metrics != nil {
		b.WriteString(f.Metrics.Format())
		b.WriteByte('\n')
	}
	if f.Profile != nil {
		b.WriteString(f.Profile.Format())
	}
	return b.String()
}

// FormatAlerts renders watchdog alerts as an aligned table (the
// obiwan-admin fleet alerts output). dropped is the count of alerts the
// bounded backlog evicted before this read; non-zero means the table is
// an incomplete record and says so.
func FormatAlerts(alerts []Alert, dropped uint64) string {
	var b strings.Builder
	if len(alerts) == 0 {
		b.WriteString("no alerts\n")
	} else {
		t := stats.NewTable("at", "rule", "site", "metric", "value", "threshold", "detail")
		for _, a := range alerts {
			t.AddRow(time.Unix(0, a.AtNS).UTC().Format("15:04:05.000"), a.Rule, a.Site, a.Metric,
				fmt.Sprintf("%.0f", a.Value), fmt.Sprintf("%.0f", a.Threshold), a.Detail)
		}
		_, _ = t.WriteTo(&b)
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "fleet.alerts.dropped=%d (backlog overflowed; oldest alerts evicted)\n", dropped)
	}
	return b.String()
}
