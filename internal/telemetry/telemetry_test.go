package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"obiwan/internal/codec"
)

// tick is the tests' clock: a hub reads none, so each reading is handed in.
var tick = fakeClock()

// fakeClock is a deterministic, strictly increasing time source.
func fakeClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilHubIsFreeAndSafe(t *testing.T) {
	var h *Hub
	if h.Enabled() {
		t.Fatal("nil hub enabled")
	}
	sp := h.StartRoot("x", tick())
	if sp != nil {
		t.Fatal("nil hub minted a span")
	}
	sp.Annotate("k", "v")
	sp.SetErr(errors.New("boom"))
	sp.End(tick())
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has valid context")
	}
	h.Metrics().Counter("c").Inc()
	h.Metrics().Gauge("g").Set(7)
	h.Metrics().Histogram("h").Observe(1)
	if got := h.MetricsSnapshot(tick()); len(got.Counters) != 0 {
		t.Fatalf("nil hub snapshot: %+v", got)
	}
	if spans := h.Spans(10); spans != nil {
		t.Fatalf("nil hub spans: %v", spans)
	}
}

func TestSpanTreeAndDeterministicIDs(t *testing.T) {
	run := func() []SpanRecord {
		h, clk := NewHub("alpha"), fakeClock()
		root := h.StartRoot("fault", clk())
		child := h.StartSpan(root.Context(), "rmi:Get", clk())
		child.Annotate("attempt", "1")
		child.End(clk())
		m := h.StartSpan(root.Context(), "materialize", clk())
		m.End(clk())
		root.End(clk())
		return h.Spans(0)
	}
	a, b := run(), run()
	if len(a) != 3 {
		t.Fatalf("spans: %d", len(a))
	}
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Fatalf("reruns differ:\n%v\n%v", a, b)
	}
	trees := BuildTrees(a)
	if len(trees) != 1 {
		t.Fatalf("trees: %d", len(trees))
	}
	root := trees[0]
	if root.Span.Name != "fault" || root.Span.Parent != 0 {
		t.Fatalf("root: %+v", root.Span)
	}
	if root.Span.TraceID != root.Span.SpanID {
		t.Fatalf("root trace id != span id: %+v", root.Span)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children: %d", len(root.Children))
	}
	for _, c := range root.Children {
		if c.Span.Parent != root.Span.SpanID || c.Span.TraceID != root.Span.TraceID {
			t.Fatalf("child edge: %+v", c.Span)
		}
	}
	if !strings.Contains(FormatTree(root), "rmi:Get") {
		t.Fatal("format lost a span")
	}
}

func TestCrossSiteIDsDisjoint(t *testing.T) {
	a := NewHub("siteA")
	b := NewHub("siteB")
	sa := a.StartRoot("x", tick())
	sb := b.StartRoot("x", tick())
	if sa.Context().SpanID == sb.Context().SpanID {
		t.Fatal("two sites minted the same span id")
	}
	sa.End(tick())
	sb.End(tick())
}

func TestSpanRingEviction(t *testing.T) {
	h := NewHub("s", WithSpanCapacity(4))
	for i := 0; i < 10; i++ {
		h.StartRoot(fmt.Sprintf("op%d", i), tick()).End(tick())
	}
	spans := h.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("ring kept %d", len(spans))
	}
	if spans[0].Name != "op6" || spans[3].Name != "op9" {
		t.Fatalf("ring order: %v", spans)
	}
	if _, next, missed := h.SpansSince(0, 0); missed != 6 || next != 10 {
		t.Fatalf("dropped %d of %d", missed, next)
	}
	if got := h.Spans(2); len(got) != 2 || got[1].Name != "op9" {
		t.Fatalf("bounded snapshot: %v", got)
	}
}

func TestSpanErrAndAttrs(t *testing.T) {
	h := NewHub("s")
	sp := h.StartRoot("put", tick())
	sp.Annotate("oid", "1:2")
	sp.SetErr(errors.New("conflict"))
	sp.End(tick())
	rec := h.Spans(0)[0]
	if rec.Err != "conflict" || len(rec.Attrs) != 1 || rec.Attrs[0] != "oid=1:2" {
		t.Fatalf("record: %+v", rec)
	}
	if rec.EndNS <= rec.StartNS {
		t.Fatalf("times: %+v", rec)
	}
	if s := rec.String(); !strings.Contains(s, "err=conflict") || !strings.Contains(s, "oid=1:2") {
		t.Fatalf("string: %s", s)
	}
}

// TestEndedSpanIsImmutable pins the contract of End: it copies the span
// into the ring once, so nothing the span's owner does afterwards reaches
// the record — not a late annotation, not a second End — while the span
// still answers its Context.
func TestEndedSpanIsImmutable(t *testing.T) {
	h := NewHub("s")
	sp := h.StartRoot("put", tick())
	sp.Annotate("oid", "1:2")
	sp.End(tick())
	want := h.Spans(0)[0]
	if sc := sp.Context(); sc.TraceID != want.TraceID || sc.SpanID != want.SpanID || !sc.Valid() {
		t.Fatalf("ended span's context %+v, record %+v", sc, want)
	}
	sp.Annotate("late", "x")
	sp.Phase(PhaseServe, time.Second)
	sp.SetErr(errors.New("late"))
	sp.End(tick())
	spans := h.Spans(0)
	if len(spans) != 1 {
		t.Fatalf("second End committed again: %d spans", len(spans))
	}
	if got := spans[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("record changed after End:\n got %+v\nwant %+v", got, want)
	}
	// A snapshot is a copy: scribbling on it leaves the ring alone.
	spans[0].Name = "scribbled"
	if got := h.Spans(0)[0].Name; got != "put" {
		t.Fatalf("snapshot aliases the ring: %q", got)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := m.Counter("rmi.calls")
			h := m.Histogram("lat_ns")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i%512 + 1))
				m.Gauge("live").Add(1)
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot("s", 0)
	if got := snap.Get("rmi.calls"); got != 8000 {
		t.Fatalf("counter: %d", got)
	}
	hv := snap.GetHistogram("lat_ns")
	if hv.Count != 8000 {
		t.Fatalf("histogram count: %d", hv.Count)
	}
	if hv.Min < 1 || hv.Max > 512 || hv.P50 < hv.Min || hv.P99 > 1024 {
		t.Fatalf("histogram stats: %+v", hv)
	}
	var bucketTotal uint64
	for _, b := range hv.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != hv.Count {
		t.Fatalf("buckets sum %d != count %d", bucketTotal, hv.Count)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	v := h.snapshot("x")
	// Bucket resolution: p50 of 1..1000 is in [256, 1000].
	if v.P50 < 256 || v.P50 > 1023 {
		t.Fatalf("p50: %d", v.P50)
	}
	if v.P99 < 512 || v.P99 > 1000 {
		t.Fatalf("p99 (clamped to max): %d", v.P99)
	}
	if v.Min != 1 || v.Max != 1000 || v.Sum != 500500 {
		t.Fatalf("stats: %+v", v)
	}
}

// TestHistogramSnapshotRacingFirstObservation: a snapshot spun against a
// fresh histogram's first observations reports Min ≤ P50 ≤ P90 ≤ P99 ≤ Max
// whenever it counts a sample — Observe bounds a sample before it counts
// it, so no snapshot sees a count with the empty-histogram sentinels.
func TestHistogramSnapshotRacingFirstObservation(t *testing.T) {
	for i := int64(0); i < 2000; i++ {
		h := newHistogram()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for v := int64(1); v <= 4; v++ {
				h.Observe(v*1000 + i)
			}
		}()
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true
			default:
			}
			v := h.snapshot("lat_ns")
			if v.Count > 0 && !(v.Min <= v.P50 && v.P50 <= v.P90 && v.P90 <= v.P99 && v.P99 <= v.Max) {
				t.Fatalf("histogram %d: impossible snapshot %+v", i, v)
			}
		}
	}
}

func TestSnapshotFormatAndCodecRoundTrip(t *testing.T) {
	h := NewHub("fmt-site")
	h.Metrics().Counter("repl.faults").Add(3)
	h.Metrics().Gauge("heap.objects").Set(12)
	h.Metrics().Histogram("rmi.call.latency_ns").ObserveDuration(3 * time.Millisecond)
	snap := h.MetricsSnapshot(tick())
	out := snap.Format()
	for _, want := range []string{"repl.faults", "heap.objects", "rmi.call.latency_ns", "fmt-site"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}

	// Snapshots and span dumps travel over RMI: they must survive the codec.
	reg := codec.DefaultRegistry()
	e := codec.NewEncoder(256)
	if err := e.Value(reg, snap); err != nil {
		t.Fatal(err)
	}
	got, err := codec.NewDecoder(e.Bytes()).Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := got.(*MetricsSnapshot)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if back.Get("repl.faults") != 3 || back.GetHistogram("rmi.call.latency_ns").Count != 1 {
		t.Fatalf("round trip: %+v", back)
	}

	sp := h.StartRoot("fault", tick())
	sp.Annotate("oid", "7")
	sp.End(tick())
	e2 := codec.NewEncoder(256)
	if err := e2.Value(reg, &h.Spans(0)[0]); err != nil {
		t.Fatal(err)
	}
	got2, err := codec.NewDecoder(e2.Bytes()).Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	back2 := got2.(*SpanRecord)
	if back2.Name != "fault" || back2.Attrs[0] != "oid=7" {
		t.Fatalf("span round trip: %+v", back2)
	}
}

func TestBuildTreesOrphansAndDeterminism(t *testing.T) {
	spans := []SpanRecord{
		{TraceID: 9, SpanID: 12, Parent: 11, Name: "child-of-missing"},
		{TraceID: 5, SpanID: 5, Name: "rootB"},
		{TraceID: 2, SpanID: 2, Name: "rootA"},
		{TraceID: 2, SpanID: 4, Parent: 2, Name: "kid2"},
		{TraceID: 2, SpanID: 3, Parent: 2, Name: "kid1"},
	}
	trees := BuildTrees(spans)
	if len(trees) != 3 {
		t.Fatalf("trees: %d", len(trees))
	}
	if trees[0].Span.Name != "rootA" || trees[1].Span.Name != "rootB" || trees[2].Span.Name != "child-of-missing" {
		t.Fatalf("order: %v, %v, %v", trees[0].Span.Name, trees[1].Span.Name, trees[2].Span.Name)
	}
	if trees[0].Children[0].Span.Name != "kid1" || trees[0].Children[1].Span.Name != "kid2" {
		t.Fatal("children not sorted by span id")
	}
	depths := map[string]int{}
	trees[0].Walk(func(d int, sp SpanRecord) { depths[sp.Name] = d })
	if depths["rootA"] != 0 || depths["kid1"] != 1 {
		t.Fatalf("walk depths: %v", depths)
	}
}

// Two live sites deployed under the same NAME mint colliding span ids
// (the id base is salted by name). Stitching their dumps together can
// hand BuildTrees duplicate ids and parent cycles; it must keep the
// first record per id, break the cycle, and terminate — the admin CLI
// feeds it whatever remote sites return.
func TestBuildTreesSurvivesCollidingIDs(t *testing.T) {
	spans := []SpanRecord{
		// Mutual cycle: 1→2 links, then 2→1 would close the loop.
		{TraceID: 1, SpanID: 1, Parent: 2, Site: "a", Name: "x"},
		{TraceID: 1, SpanID: 2, Parent: 1, Site: "b", Name: "y"},
		// Self-parent.
		{TraceID: 3, SpanID: 3, Parent: 3, Site: "a", Name: "self"},
		// Duplicate id from a same-named twin site: first record wins.
		{TraceID: 4, SpanID: 7, Site: "a", Name: "first"},
		{TraceID: 4, SpanID: 7, Site: "b", Name: "twin"},
	}
	trees := BuildTrees(spans)
	if len(trees) != 3 {
		t.Fatalf("trees: %d", len(trees))
	}
	total := 0
	for _, tr := range trees {
		tr.Walk(func(d int, sp SpanRecord) {
			total++
			if sp.Name == "twin" {
				t.Error("duplicate id record not dropped")
			}
		})
	}
	if total != 4 {
		t.Fatalf("spans in forest: %d, want 4", total)
	}
	// The cycle was broken by rooting the later span; its child survived.
	if trees[0].Span.Name != "y" || len(trees[0].Children) != 1 || trees[0].Children[0].Span.Name != "x" {
		t.Fatalf("cycle not broken as expected: root %q", trees[0].Span.Name)
	}
}
