package telemetry

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildChainSpans is the canonical nested-demand shape: a client fault
// whose net window encloses the server's serve span, whose serve window
// encloses the engine's apply span. Durations are chosen so every
// deduction branch is exercised.
func buildChainSpans() []SpanRecord {
	return []SpanRecord{
		{TraceID: 1, SpanID: 1, Site: "client", Name: "fault", StartNS: 0, EndNS: 100,
			Phases: []PhaseSegment{{Phase: PhaseNet, NS: 90}}},
		{TraceID: 1, SpanID: 2, Parent: 1, Site: "server", Name: "serve:Get", StartNS: 5, EndNS: 85,
			Phases: []PhaseSegment{{Phase: PhaseQueue, NS: 5}, {Phase: PhaseServe, NS: 75}}},
		{TraceID: 1, SpanID: 3, Parent: 2, Site: "server", Name: "put.apply", StartNS: 10, EndNS: 70,
			Phases: []PhaseSegment{{Phase: PhaseApply, NS: 40}, {Phase: PhaseFsync, NS: 20}}},
	}
}

// TestExtractCriticalPathSelfAttribution: nested phase windows must not
// double-bill. Each step's largest phase (the window the descended child
// ran inside) is charged only for the step's self-time share; leaf
// phases pass through verbatim; what no segment claimed lands in
// "unattributed". The per-step Phases stay as recorded on the span.
func TestExtractCriticalPathSelfAttribution(t *testing.T) {
	trees := BuildTrees(buildChainSpans())
	if len(trees) != 1 {
		t.Fatalf("trees: %d", len(trees))
	}
	cp := ExtractCriticalPath(trees[0])
	if cp.TraceID != 1 || cp.Root != "fault" || cp.TotalNS != 100 {
		t.Fatalf("header: %+v", cp)
	}
	if len(cp.Steps) != 3 {
		t.Fatalf("steps: %+v", cp.Steps)
	}
	wantSelf := []int64{20, 20, 60} // dur minus descended child's dur
	for i, st := range cp.Steps {
		if st.SelfNS != wantSelf[i] {
			t.Fatalf("step %d self=%d want %d", i, st.SelfNS, wantSelf[i])
		}
	}
	// Verbatim span annotations survive on the steps.
	if cp.Steps[0].Phases[0] != (PhaseSegment{Phase: PhaseNet, NS: 90}) {
		t.Fatalf("step phases rewritten: %+v", cp.Steps[0].Phases)
	}
	// Aggregate: net 90-(100-20)=10, queue 5, serve 75-(80-20)=15,
	// apply 40, fsync 20 — attributed 90 of 100, remainder unattributed.
	want := []PhaseSegment{
		{Phase: PhaseApply, NS: 40},
		{Phase: PhaseFsync, NS: 20},
		{Phase: PhaseNet, NS: 10},
		{Phase: PhaseQueue, NS: 5},
		{Phase: PhaseServe, NS: 15},
		{Phase: PhaseUnattributed, NS: 10},
	}
	if !reflect.DeepEqual(cp.Phases, want) {
		t.Fatalf("phases:\n got %+v\nwant %+v", cp.Phases, want)
	}
	out := cp.Format()
	for _, frag := range []string{"trace=1 fault total=100ns", "fsync=20ns", "unattributed=10ns(10%)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("format missing %q:\n%s", frag, out)
		}
	}
	if out != cp.Format() {
		t.Fatal("two renders differ")
	}
}

// TestExtractCriticalPathDescent: the walk descends into the longest
// child, breaking duration ties toward the lowest span id, and a nil
// root yields the zero path.
func TestExtractCriticalPathDescent(t *testing.T) {
	if cp := ExtractCriticalPath(nil); len(cp.Steps) != 0 || cp.TotalNS != 0 {
		t.Fatalf("nil root: %+v", cp)
	}
	spans := []SpanRecord{
		{TraceID: 1, SpanID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{TraceID: 1, SpanID: 4, Parent: 1, Name: "late-twin", StartNS: 0, EndNS: 60},
		{TraceID: 1, SpanID: 3, Parent: 1, Name: "early-twin", StartNS: 0, EndNS: 60},
		{TraceID: 1, SpanID: 2, Parent: 1, Name: "short", StartNS: 0, EndNS: 10},
	}
	cp := ExtractCriticalPath(BuildTrees(spans)[0])
	if len(cp.Steps) != 2 || cp.Steps[1].Name != "early-twin" {
		t.Fatalf("tie break: %+v", cp.Steps)
	}
}

// randomForestSpans builds a random acyclic span set: unique ids, each
// parent either absent (root), an earlier id, or a dangling id that
// names no span — the permutation property BuildTrees guarantees only
// holds for well-formed (duplicate-free) input, which is what live
// tracer rings and scrapes produce.
func randomForestSpans(rng *rand.Rand) []SpanRecord {
	n := 1 + rng.Intn(40)
	spans := make([]SpanRecord, n)
	for i := range spans {
		var parent uint64
		switch {
		case i > 0 && rng.Intn(3) > 0:
			parent = spans[rng.Intn(i)].SpanID
		case rng.Intn(4) == 0:
			parent = uint64(10_000 + rng.Intn(100)) // dangling: orphan root
		}
		spans[i] = SpanRecord{
			TraceID: uint64(1 + rng.Intn(4)),
			SpanID:  uint64(i + 1),
			Parent:  parent,
			Name:    "op",
			StartNS: int64(rng.Intn(1000)),
			EndNS:   int64(rng.Intn(2000)),
		}
	}
	return spans
}

// TestBuildTreesPermutationInvariant: for any permutation of a
// well-formed span set, BuildTrees yields the identical forest — the
// property that makes fleet-assembled trees (spans arriving in scrape
// order, not record order) deterministic.
func TestBuildTreesPermutationInvariant(t *testing.T) {
	f := func(seed, shuffleSeed int64) bool {
		spans := randomForestSpans(rand.New(rand.NewSource(seed)))
		shuffled := append([]SpanRecord(nil), spans...)
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		a, b := BuildTrees(spans), BuildTrees(shuffled)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		// The critical paths extracted from the forest are then identical
		// too — the end-to-end determinism obiwan-admin slow rests on.
		for i := range a {
			if !reflect.DeepEqual(ExtractCriticalPath(a[i]), ExtractCriticalPath(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBuildTreesMalformedParents feeds BuildTrees arbitrary id/parent
// bytes — duplicates, self-parents, mutual cycles, dangling parents —
// and asserts it terminates with every unique id placed exactly once,
// and that ExtractCriticalPath over the result terminates too.
func FuzzBuildTreesMalformedParents(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 1})            // root + child
	f.Add([]byte{1, 2, 1, 2, 1, 1})            // mutual cycle
	f.Add([]byte{3, 3, 1})                     // self-parent
	f.Add([]byte{7, 0, 1, 7, 9, 2, 5, 200, 3}) // duplicate id + dangling parent
	f.Fuzz(func(t *testing.T, data []byte) {
		var spans []SpanRecord
		for i := 0; i+2 < len(data); i += 3 {
			spans = append(spans, SpanRecord{
				SpanID:  uint64(data[i]),
				Parent:  uint64(data[i+1]),
				TraceID: uint64(data[i+2]),
				Name:    "fz",
				EndNS:   int64(data[i+1]) - int64(data[i]), // may be negative
			})
		}
		unique := map[uint64]bool{}
		for _, sp := range spans {
			unique[sp.SpanID] = true
		}
		placed := 0
		for _, root := range BuildTrees(spans) {
			root.Walk(func(d int, sp SpanRecord) { placed++ })
			cp := ExtractCriticalPath(root)
			if cp.TotalNS < 0 {
				t.Fatalf("negative total: %+v", cp)
			}
			for _, st := range cp.Steps {
				if st.SelfNS < 0 || st.DurNS < 0 {
					t.Fatalf("negative step: %+v", st)
				}
			}
			_ = cp.Format()
		}
		if placed != len(unique) {
			t.Fatalf("placed %d of %d unique spans", placed, len(unique))
		}
	})
}

// TestObserveExemplarRetention: the histogram keeps the histExemplars
// largest traced samples; ties keep the earliest-recorded trace (so
// deterministic replays retain identical ids); untraced observations
// count but leave no exemplar.
func TestObserveExemplarRetention(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat_ns")
	for i := int64(1); i <= int64(histExemplars); i++ {
		h.ObserveExemplar(i*10, uint64(i))
	}
	h.ObserveExemplar(10, 999) // ties the current min: earliest wins
	h.ObserveExemplar(90, 200) // evicts the min (10, trace 1)
	h.ObserveExemplar(1, 300)  // below the floor: dropped
	h.ObserveExemplar(500, 0)  // untraced: observed, not retained
	hv := m.Snapshot("s", 0).GetHistogram("lat_ns")
	if hv.Count != uint64(histExemplars)+4 {
		t.Fatalf("count: %d", hv.Count)
	}
	if len(hv.Exemplars) != histExemplars {
		t.Fatalf("exemplars: %+v", hv.Exemplars)
	}
	if hv.Exemplars[0] != (Exemplar{Value: 90, TraceID: 200}) {
		t.Fatalf("head: %+v", hv.Exemplars[0])
	}
	for _, ex := range hv.Exemplars {
		if ex.TraceID == 999 || ex.TraceID == 1 || ex.TraceID == 300 || ex.TraceID == 0 {
			t.Fatalf("retained wrong exemplar: %+v", hv.Exemplars)
		}
		if ex.Value < hv.Exemplars[len(hv.Exemplars)-1].Value {
			t.Fatalf("not value-descending: %+v", hv.Exemplars)
		}
	}
}

// TestExemplarMergeOrderIndependent: merging histogram values keeps the
// top histExemplars of the union under the canonical order, whichever
// side folds first — top-K selection is associative, so the fleet fold
// is scrape-order independent.
func TestExemplarMergeOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() HistogramValue {
			m := NewMetrics()
			h := m.Histogram("lat_ns")
			for i, n := 0, 1+rng.Intn(2*histExemplars); i < n; i++ {
				h.ObserveExemplar(rng.Int63n(1000), uint64(1+rng.Intn(1_000_000)))
			}
			return m.Snapshot("s", 0).GetHistogram("lat_ns")
		}
		a, b, c := mk(), mk(), mk()
		left := a.Merge(b).Merge(c)
		right := c.Merge(b).Merge(a)
		if len(left.Exemplars) > histExemplars {
			return false
		}
		return reflect.DeepEqual(left.Exemplars, right.Exemplars)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomCriticalPath fabricates a plausible extracted path: a few steps,
// phase totals drawn from the taxonomy, total covering them.
func randomCriticalPath(rng *rand.Rand) CriticalPath {
	phases := []string{PhaseNet, PhaseApply, PhaseFsync, PhaseElectWait, PhaseServe}
	cp := CriticalPath{TraceID: uint64(1 + rng.Intn(1000)), Root: "fault"}
	for _, ph := range phases[:1+rng.Intn(len(phases))] {
		ns := 1 + rng.Int63n(int64(1_000_000))
		cp.Phases = append(cp.Phases, PhaseSegment{Phase: ph, NS: ns})
		cp.TotalNS += ns
	}
	cp.Steps = []PathStep{{Name: "fault", DurNS: cp.TotalNS, SelfNS: cp.TotalNS}}
	return cp
}

// TestAttributionBuilderOrderIndependent: folding the same critical paths
// into a builder in any order yields identical path counts, per-phase
// histograms and shares — so the collector's profile does not depend on
// the order its scrapes buffered the traces in.
func TestAttributionBuilderOrderIndependent(t *testing.T) {
	f := func(seed, shuffleSeed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		paths := make([]CriticalPath, n)
		forward := make([]int, n)
		for i := range paths {
			paths[i] = randomCriticalPath(rng)
			forward[i] = i
		}
		fold := func(order []int) *AttributionProfile {
			b := NewAttributionBuilder()
			for _, i := range order {
				b.Add(paths[i])
			}
			return b.Profile("s", 0)
		}
		a, b := fold(forward), fold(shuffledOrder(n, shuffleSeed))
		if !reflect.DeepEqual(a, b) {
			return false
		}
		return a.Format() == b.Format()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionBuilderProfileShares: shares are exact integer permille
// of the total histogram's sum; empty paths are ignored.
func TestAttributionBuilderProfileShares(t *testing.T) {
	b := NewAttributionBuilder()
	b.Add(CriticalPath{}) // zero-length: ignored
	b.Add(CriticalPath{
		TotalNS: 1000,
		Steps:   []PathStep{{Name: "fault"}},
		Phases: []PhaseSegment{
			{Phase: PhaseNet, NS: 750},
			{Phase: PhaseApply, NS: 250},
		},
	})
	p := b.Profile("site-a", 42)
	if p.Paths != 1 || p.Site != "site-a" || p.TakenAtNS != 42 {
		t.Fatalf("profile header: %+v", p)
	}
	if got := p.SharePermille(PhaseNet); got != 750 {
		t.Fatalf("net share: %d", got)
	}
	if got := p.SharePermille(PhaseApply); got != 250 {
		t.Fatalf("apply share: %d", got)
	}
	if got := p.SharePermille("absent"); got != 0 {
		t.Fatalf("absent share: %d", got)
	}
	if names := p.PhaseNames(); !reflect.DeepEqual(names, []string{PhaseApply, PhaseNet}) {
		t.Fatalf("phase names: %v", names)
	}
	out := p.Format()
	if !strings.Contains(out, "attribution over 1 critical paths") || !strings.Contains(out, "75.0%") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestRankSlow: tail exemplars resolve against a site's spans into slow
// traces that carry their spans, rank canonically, and render the
// annotated critical path byte-identically.
func TestRankSlow(t *testing.T) {
	h := NewHub("alpha")
	slow := h.StartRoot("fault", tick())
	slow.Phase(PhaseNet, 900)
	slow.End(tick())
	fast := h.StartRoot("fault", tick())
	fast.End(tick())
	h.Metrics().Histogram("rmi.call.latency_ns").ObserveExemplar(900, slow.Context().TraceID)
	h.Metrics().Histogram("rmi.call.latency_ns").ObserveExemplar(10, fast.Context().TraceID)
	h.Metrics().Histogram("untimed").ObserveExemplar(5000, fast.Context().TraceID) // not _ns: skipped

	obs := []SiteObservation{{Site: "alpha", Metrics: h.MetricsSnapshot(tick())}, {Site: "unscraped"}}
	got := RankSlow(obs, h.Spans(0), 1)
	if len(got) != 1 {
		t.Fatalf("slow traces: %+v", got)
	}
	st := got[0]
	if st.Site != "alpha" || st.Metric != "rmi.call.latency_ns" || st.ValueNS != 900 || st.TraceID != slow.Context().TraceID {
		t.Fatalf("ranked wrong trace: %+v", st)
	}
	if len(st.Spans) == 0 {
		t.Fatal("slow trace carries no spans")
	}
	out := st.Format()
	for _, frag := range []string{"alpha rmi.call.latency_ns = 900ns", "fault", "net=900ns"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("format missing %q:\n%s", frag, out)
		}
	}
	if out != st.Format() {
		t.Fatal("two renders differ")
	}

	var nilHub *Hub
	off := []SiteObservation{{Site: "off", Metrics: nilHub.MetricsSnapshot(tick())}}
	if RankSlow(off, nilHub.Spans(0), 4) != nil {
		t.Fatal("a disabled hub's snapshot ranked slow traces")
	}
}

// TestSpanPhaseAccumulates: repeated Phase calls on one name accumulate
// in place, zero/negative durations are dropped, and nil spans no-op.
func TestSpanPhaseAccumulates(t *testing.T) {
	h := NewHub("s")
	sp := h.StartRoot("op", tick())
	sp.Phase(PhaseRetryBackoff, 5)
	sp.Phase(PhaseNet, 10)
	sp.Phase(PhaseRetryBackoff, 7)
	sp.Phase(PhaseNet, 0)
	sp.Phase(PhaseNet, -3)
	sp.End(tick())
	rec := h.Spans(0)[0]
	want := []PhaseSegment{{Phase: PhaseRetryBackoff, NS: 12}, {Phase: PhaseNet, NS: 10}}
	if !reflect.DeepEqual(rec.Phases, want) {
		t.Fatalf("phases: %+v", rec.Phases)
	}
	var nilSpan *Span
	nilSpan.Phase(PhaseNet, 10) // must not panic
}
