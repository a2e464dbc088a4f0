package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/stats"
)

// This file is the critical-path attribution layer: given trace trees
// (BuildTrees), extract the single slowest causal chain of each trace
// with per-phase time attribution, and aggregate many such paths into an
// order-independent per-phase profile ("where does p99 go") whose
// distributions are ordinary histogram values.

// PathStep is one span on a critical path. SelfNS is the span's duration
// minus the descended child's — the time this step itself is responsible
// for on the chain.
type PathStep struct {
	Site   string
	Name   string
	SpanID uint64
	DurNS  int64
	SelfNS int64
	Phases []PhaseSegment
	Err    string
}

// CriticalPath is the slowest causal chain through one trace tree: at
// every node the walk descends into the longest-running child (ties
// break toward the lowest span id, so the path is deterministic for a
// given tree). Phases sums the steps' phase segments, with the remainder
// no instrumentation point claimed reported as PhaseUnattributed.
type CriticalPath struct {
	TraceID uint64
	Root    string // root span's name
	TotalNS int64
	Steps   []PathStep
	Phases  []PhaseSegment // sorted by phase name, unattributed last
}

func init() {
	codec.MustRegister("obiwan.telemetry.PathStep", PathStep{})
	codec.MustRegister("obiwan.telemetry.CriticalPath", CriticalPath{})
	codec.MustRegister("obiwan.telemetry.SlowTrace", SlowTrace{})
	codec.MustRegister("obiwan.telemetry.AttributionProfile", AttributionProfile{})
}

// ExtractCriticalPath walks one BuildTrees tree and returns its slowest
// causal chain. A nil root yields the zero path.
func ExtractCriticalPath(root *TraceNode) CriticalPath {
	if root == nil {
		return CriticalPath{}
	}
	cp := CriticalPath{
		TraceID: root.Span.TraceID,
		Root:    root.Span.Name,
		TotalNS: root.Span.EndNS - root.Span.StartNS,
	}
	if cp.TotalNS < 0 {
		cp.TotalNS = 0
	}
	byPhase := make(map[string]int64)
	n := root
	for n != nil {
		dur := n.Span.EndNS - n.Span.StartNS
		if dur < 0 {
			dur = 0
		}
		next := slowestChild(n)
		self := dur
		if next != nil {
			nd := next.Span.EndNS - next.Span.StartNS
			if nd < 0 {
				nd = 0
			}
			self -= nd
			if self < 0 {
				self = 0
			}
		}
		step := PathStep{
			Site:   n.Span.Site,
			Name:   n.Span.Name,
			SpanID: n.Span.SpanID,
			DurNS:  dur,
			SelfNS: self,
			Phases: n.Span.Phases,
			Err:    n.Span.Err,
		}
		// Phase windows nest across the chain: the client's net window
		// contains the server's serve span, whose serve window contains
		// the engine's assemble/apply span. Summing windows verbatim
		// would bill the same nanoseconds to every enclosing level, so
		// the aggregate self-attributes: the descended child's duration
		// is deducted from the step's largest phase — the window the
		// child ran inside — leaving each step's own contribution. The
		// per-step Phases stay verbatim (they annotate the span).
		deduct := dur - self
		enclosing, maxNS := -1, int64(0)
		for i, ph := range n.Span.Phases {
			if ph.NS > maxNS {
				enclosing, maxNS = i, ph.NS
			}
		}
		for i, ph := range n.Span.Phases {
			ns := ph.NS
			if i == enclosing && deduct > 0 {
				ns -= deduct
				if ns < 0 {
					ns = 0
				}
			}
			byPhase[ph.Phase] += ns
		}
		cp.Steps = append(cp.Steps, step)
		n = next
	}
	var attributed int64
	names := make([]string, 0, len(byPhase))
	for name, ns := range byPhase {
		names = append(names, name)
		attributed += ns
	}
	sort.Strings(names)
	for _, name := range names {
		cp.Phases = append(cp.Phases, PhaseSegment{Phase: name, NS: byPhase[name]})
	}
	if rem := cp.TotalNS - attributed; rem > 0 {
		cp.Phases = append(cp.Phases, PhaseSegment{Phase: PhaseUnattributed, NS: rem})
	}
	return cp
}

// slowestChild picks the child the critical path descends into: longest
// duration, lowest span id on ties. Nil when n is a leaf.
func slowestChild(n *TraceNode) *TraceNode {
	var best *TraceNode
	var bestDur int64 = -1
	for _, c := range n.Children {
		d := c.Span.EndNS - c.Span.StartNS
		if d < 0 {
			d = 0
		}
		if d > bestDur || (d == bestDur && best != nil && c.Span.SpanID < best.Span.SpanID) {
			best, bestDur = c, d
		}
	}
	return best
}

// Format renders the critical path as an indented chain with per-step
// self-time and phase segments — the obiwan-admin slow output. Two
// renders of the same path are byte-identical.
func (cp CriticalPath) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%x %s total=%v\n", cp.TraceID, cp.Root, time.Duration(cp.TotalNS))
	for i, st := range cp.Steps {
		for j := 0; j < i; j++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %s %v self=%v", st.Site, st.Name, time.Duration(st.DurNS), time.Duration(st.SelfNS))
		for _, ph := range st.Phases {
			fmt.Fprintf(&b, " %s=%v", ph.Phase, time.Duration(ph.NS))
		}
		if st.Err != "" {
			fmt.Fprintf(&b, " err=%s", st.Err)
		}
		b.WriteByte('\n')
	}
	if len(cp.Phases) > 0 {
		b.WriteString("attribution:")
		for _, ph := range cp.Phases {
			share := int64(0)
			if cp.TotalNS > 0 {
				share = ph.NS * 100 / cp.TotalNS
			}
			fmt.Fprintf(&b, " %s=%v(%d%%)", ph.Phase, time.Duration(ph.NS), share)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SlowTrace ties a tail exemplar (or a slow scraped trace) to the spans
// that explain it: the instrument that flagged it, the sampled value,
// and every retained span of the trace — enough to rebuild the tree and
// print the annotated critical path anywhere.
type SlowTrace struct {
	Site    string // site that flagged the trace ("" for fleet-assembled)
	Metric  string // instrument the exemplar came from
	ValueNS int64
	TraceID uint64
	Spans   []SpanRecord
}

// Path builds the slow trace's critical path: the slowest chain of the
// tree rooted at the trace's own root (partial trees still render —
// missing ancestry just shortens the chain).
func (st SlowTrace) Path() CriticalPath {
	for _, root := range BuildTrees(st.Spans) {
		if root.Span.TraceID == st.TraceID {
			cp := ExtractCriticalPath(root)
			if cp.TotalNS == 0 && len(cp.Steps) == 0 {
				continue
			}
			return cp
		}
	}
	return CriticalPath{TraceID: st.TraceID}
}

// Format renders one slow trace: the flagging instrument and value, then
// the annotated critical path.
func (st SlowTrace) Format() string {
	var b strings.Builder
	site := st.Site
	if site == "" {
		site = "fleet"
	}
	fmt.Fprintf(&b, "%s %s = %v\n", site, st.Metric, time.Duration(st.ValueNS))
	b.WriteString(st.Path().Format())
	return b.String()
}

// RankSlow resolves the tail exemplars of the observed sites' duration
// histograms ("_ns"-suffixed) against spans: the worst recent traced
// demands, value descending (site, metric, trace id ascending on ties),
// one entry per trace (several instruments, or several sites, may have
// sampled the same demand — the ranking keeps its worst sample only), at
// most max (all when max <= 0). Each result carries every span of its
// trace found in spans, so callers can print the annotated critical path
// without another round trip; a trace whose spans are gone renders a
// shorter (possibly empty) path rather than failing. One site's scrape
// chunk and a collector's whole fleet rank through this same function.
func RankSlow(sites []SiteObservation, spans []SpanRecord, max int) []SlowTrace {
	var out []SlowTrace
	for _, obs := range sites {
		if obs.Metrics == nil {
			continue
		}
		for _, hist := range obs.Metrics.Histograms {
			if !strings.HasSuffix(hist.Name, "_ns") {
				continue
			}
			for _, ex := range hist.Exemplars {
				out = append(out, SlowTrace{
					Site: obs.Site, Metric: hist.Name,
					ValueNS: ex.Value, TraceID: ex.TraceID,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ValueNS != b.ValueNS {
			return a.ValueNS > b.ValueNS
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		return a.TraceID < b.TraceID
	})
	seen := make(map[uint64]bool, len(out))
	uniq := out[:0]
	for _, st := range out {
		if !seen[st.TraceID] {
			seen[st.TraceID] = true
			uniq = append(uniq, st)
		}
	}
	out = uniq
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	if len(out) == 0 {
		return nil
	}
	// Group only the ranked traces' spans: a collector's buffer holds
	// thousands of spans for a handful of results.
	byTrace := make(map[uint64][]SpanRecord, len(out))
	for _, st := range out {
		byTrace[st.TraceID] = nil
	}
	for _, sp := range spans {
		if group, ranked := byTrace[sp.TraceID]; ranked {
			byTrace[sp.TraceID] = append(group, sp)
		}
	}
	for i := range out {
		out[i].Spans = byTrace[out[i].TraceID]
	}
	return out
}

// AttributionProfile aggregates critical paths into per-phase time
// distributions: one histogram per phase of per-path phase nanoseconds,
// plus the "total" histogram of whole-path durations. Each is a
// HistogramValue, so two profiles' distributions merge phase by phase
// through HistogramValue.Merge.
type AttributionProfile struct {
	Site      string
	TakenAtNS int64
	Paths     uint64
	Phases    []HistogramValue // Name is the phase; sorted by name
	Total     HistogramValue   // whole-path durations
}

// AttributionBuilder accumulates critical paths into a profile. It rides
// the metrics registry's histograms, so distributions have the same
// power-of-two bucket resolution as every other latency instrument.
type AttributionBuilder struct {
	m     *Metrics
	paths uint64
}

// NewAttributionBuilder returns an empty builder.
func NewAttributionBuilder() *AttributionBuilder {
	return &AttributionBuilder{m: NewMetrics()}
}

// Add folds one critical path into the profile. Zero-length paths (nil
// trees) are ignored.
func (b *AttributionBuilder) Add(cp CriticalPath) {
	if len(cp.Steps) == 0 {
		return
	}
	b.paths++
	b.m.Histogram("total").Observe(cp.TotalNS)
	for _, ph := range cp.Phases {
		b.m.Histogram(ph.Phase).Observe(ph.NS)
	}
}

// AddTrees extracts and folds the critical path of every tree.
func (b *AttributionBuilder) AddTrees(trees []*TraceNode) {
	for _, t := range trees {
		b.Add(ExtractCriticalPath(t))
	}
}

// Profile snapshots the accumulated distributions.
func (b *AttributionBuilder) Profile(site string, atNS int64) *AttributionProfile {
	snap := b.m.Snapshot(site, atNS)
	out := &AttributionProfile{Site: site, TakenAtNS: atNS, Paths: b.paths}
	for _, h := range snap.Histograms {
		if h.Name == "total" {
			out.Total = h
			continue
		}
		out.Phases = append(out.Phases, h)
	}
	sort.Slice(out.Phases, func(i, j int) bool { return out.Phases[i].Name < out.Phases[j].Name })
	return out
}

// SharePermille returns the named phase's share of total attributed path
// time in integer permille (exact integer math — byte-stable across
// platforms). Zero when no time was recorded.
func (p *AttributionProfile) SharePermille(phase string) int64 {
	if p == nil || p.Total.Sum <= 0 {
		return 0
	}
	for _, h := range p.Phases {
		if h.Name == phase {
			return h.Sum * 1000 / p.Total.Sum
		}
	}
	return 0
}

// PhaseNames returns the profile's phase names, sorted.
func (p *AttributionProfile) PhaseNames() []string {
	if p == nil {
		return nil
	}
	names := make([]string, 0, len(p.Phases))
	for _, h := range p.Phases {
		names = append(names, h.Name)
	}
	return names
}

// Format renders the profile as an aligned table: per phase, the share
// of total path time plus the p50/p99 of its per-path distribution.
func (p *AttributionProfile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution over %d critical paths (total p50=%v p99=%v)\n",
		p.Paths, time.Duration(p.Total.P50), time.Duration(p.Total.P99))
	t := stats.NewTable("phase", "share", "paths", "p50", "p99")
	for _, h := range p.Phases {
		t.AddRow(h.Name,
			fmt.Sprintf("%d.%01d%%", p.SharePermille(h.Name)/10, p.SharePermille(h.Name)%10),
			h.Count,
			time.Duration(h.P50).String(), time.Duration(h.P99).String())
	}
	_, _ = t.WriteTo(&b)
	return b.String()
}
