package telemetry

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestNilProfilerAndFlightAreFree(t *testing.T) {
	var p *Profiler
	p.RecordFault(1, false, false, 2, 64, time.Millisecond)
	p.RecordRefresh(1, false, 1, 32, time.Millisecond)
	p.RecordServe(1, 1, 32)
	p.RecordInvoke(1, true)
	p.RecordPutShipped(1)
	p.RecordPutApplied(1)
	if _, ok := p.FaultCost(1); ok {
		t.Fatal("nil profiler has a fault cost")
	}
	if p.Len() != 0 {
		t.Fatal("nil profiler tracks objects")
	}
	if snap := p.Snapshot("x", 0, 10); len(snap.Objects) != 0 {
		t.Fatalf("nil profiler snapshot: %+v", snap)
	}

	var f *FlightRecorder
	f.Record(FlightEvent{Kind: "x"})
	if f.Snapshot() != nil {
		t.Fatal("nil recorder holds events")
	}
	if d := f.Dump("r"); d != nil {
		t.Fatalf("nil recorder dumped: %+v", d)
	}
	if d := f.Current("r"); d == nil || len(d.Events) != 0 {
		t.Fatalf("nil recorder current: %+v", d)
	}
	if _, ok := f.LastDump(); ok {
		t.Fatal("nil recorder has a dump")
	}
}

func TestProfilerAggregatesPerObject(t *testing.T) {
	p := NewProfiler(0)
	// Object 7: one remote demand (3 objects, 300 bytes, 2ms), then a
	// heap-served fault, then mixed invocations and puts.
	p.RecordFault(7, false, true, 3, 300, 2*time.Millisecond)
	p.RecordFault(7, true, false, 0, 0, 0)
	p.RecordInvoke(7, false)
	p.RecordInvoke(7, false)
	p.RecordInvoke(7, true)
	p.RecordPutShipped(7)
	p.RecordServe(9, 2, 128)

	snap := p.Snapshot("site", 42, 0)
	if snap.Site != "site" || snap.TakenAtNS != 42 || snap.Tracked != 2 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	o, ok := snap.Get(7)
	if !ok {
		t.Fatal("object 7 untracked")
	}
	if o.Faults != 2 || o.HeapHits != 1 || o.RemoteDemands != 1 || o.ClusterDemands != 1 {
		t.Fatalf("fault counts: %+v", o)
	}
	if o.DemandObjects != 3 || o.DemandBytes != 300 {
		t.Fatalf("demand sizes: %+v", o)
	}
	if o.LMICalls != 2 || o.RMICalls != 1 || o.PutsShipped != 1 {
		t.Fatalf("invoke counts: %+v", o)
	}
	if got := o.HeapHitRate(); got != 0.5 {
		t.Fatalf("hit rate: %v", got)
	}
	if got := o.AvgFaultNS(); got != int64(2*time.Millisecond) {
		t.Fatalf("avg fault: %v", got)
	}
	if got := o.BytesPerDemand(); got != 300 {
		t.Fatalf("bytes/demand: %v", got)
	}
	if o9, _ := snap.Get(9); o9.Serves != 1 || o9.ServeBytes != 128 {
		t.Fatalf("serve side: %+v", o9)
	}
	if !strings.Contains(snap.Format(), "0x7") {
		t.Fatalf("format: %s", snap.Format())
	}
}

func TestProfilerTopKOrderAndEviction(t *testing.T) {
	p := NewProfiler(3)
	// Heat: oid 1 → 1, oid 2 → 2, oid 3 → 3.
	for oid := uint64(1); oid <= 3; oid++ {
		for i := uint64(0); i < oid; i++ {
			p.RecordInvoke(oid, false)
		}
	}
	// A fourth object evicts the coldest (oid 1).
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)

	snap := p.Snapshot("s", 0, 2)
	if snap.Tracked != 3 || snap.Evicted != 1 {
		t.Fatalf("bookkeeping: tracked=%d evicted=%d", snap.Tracked, snap.Evicted)
	}
	if len(snap.Objects) != 2 || snap.Objects[0].OID != 4 || snap.Objects[1].OID != 3 {
		t.Fatalf("topK order: %+v", snap.Objects)
	}
	if _, ok := snap.Get(1); ok {
		t.Fatal("evicted object still tracked")
	}
}

// scanModel is the eviction rule as it was first written, kept as the
// reference: heat per tracked OID, and on a first touch of a full table a
// scan of the whole map for the coldest entry (lowest heat, highest OID on
// ties).
type scanModel struct {
	capacity int
	heat     map[uint64]uint64
	evicted  uint64
}

func (m *scanModel) touch(oid, by uint64) {
	if _, ok := m.heat[oid]; !ok && len(m.heat) >= m.capacity {
		var coldOID uint64
		coldHeat := ^uint64(0)
		for id, h := range m.heat {
			if h < coldHeat || (h == coldHeat && id > coldOID) {
				coldOID, coldHeat = id, h
			}
		}
		delete(m.heat, coldOID)
		m.evicted++
	}
	m.heat[oid] += by
}

// TestProfilerKeepSetMatchesScan: the lazy eviction heap keeps exactly the
// set the whole-map scan kept. Mixed Record* calls over OID streams that
// mix a hot set with an ascending walk, compared after every call.
func TestProfilerKeepSetMatchesScan(t *testing.T) {
	const seeds, calls = 60, 5000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		hot := 1 + rng.Intn(2*capacity)
		p := NewProfiler(capacity)
		ref := &scanModel{capacity: capacity, heat: map[uint64]uint64{}}
		walk := uint64(1000)
		for i := 0; i < calls; i++ {
			var oid uint64
			switch rng.Intn(3) {
			case 0:
				walk++
				oid = walk
			case 1:
				oid = walk - uint64(rng.Intn(capacity+2)) // just behind the walk: ties on low heat
			default:
				oid = uint64(1 + rng.Intn(hot))
			}
			switch rng.Intn(5) {
			case 0:
				p.RecordInvoke(oid, rng.Intn(2) == 0)
				ref.touch(oid, 1)
			case 1:
				p.RecordServe(oid, 1, 64)
				ref.touch(oid, 1)
			case 2:
				p.RecordPutApplied(oid)
				ref.touch(oid, 1)
			case 3:
				p.RecordFault(oid, true, false, 0, 0, 0)
				ref.touch(oid, 1)
			default:
				p.RecordFault(oid, false, false, 1, 64, time.Microsecond)
				ref.touch(oid, 2) // Faults and RemoteDemands
			}
			if len(p.objects) != len(ref.heat) || p.evicted != ref.evicted {
				t.Fatalf("seed %d call %d: tracked %d evicted %d, scan keeps %d evicted %d",
					seed, i, len(p.objects), p.evicted, len(ref.heat), ref.evicted)
			}
			for id, want := range ref.heat {
				if o, ok := p.objects[id]; !ok || o.OID != id || o.Heat() != want {
					t.Fatalf("seed %d call %d (capacity %d): oid %d tracked=%v, scan has heat %d", seed, i, capacity, id, ok, want)
				}
			}
		}
		if len(p.cold) != len(p.objects) {
			t.Fatalf("seed %d: heap holds %d entries for %d objects", seed, len(p.cold), len(p.objects))
		}
		for _, c := range p.cold {
			if p.objects[c.o.OID] != c.o || c.heat > c.o.Heat() {
				t.Fatalf("seed %d: heap entry %+v: not the tracked record, or its key is above the true heat %d", seed, c, c.o.Heat())
			}
		}
	}
}

func TestProfilerFaultCostFallsBackToSiteAverage(t *testing.T) {
	p := NewProfiler(0)
	if _, ok := p.FaultCost(5); ok {
		t.Fatal("cost before any demand")
	}
	p.RecordFault(5, false, false, 1, 100, 10*time.Millisecond)
	if cost, ok := p.FaultCost(5); !ok || cost != 10*time.Millisecond {
		t.Fatalf("per-object cost: %v %v", cost, ok)
	}
	// An object never demanded here borrows the site-wide average.
	if cost, ok := p.FaultCost(999); !ok || cost != 10*time.Millisecond {
		t.Fatalf("site-wide cost: %v %v", cost, ok)
	}
	// Heap hits do not skew the average.
	p.RecordFault(5, true, false, 0, 0, 0)
	if cost, _ := p.FaultCost(5); cost != 10*time.Millisecond {
		t.Fatalf("heap hit skewed cost: %v", cost)
	}
}

func TestFlightRecorderRingAndDumps(t *testing.T) {
	f := newFlightRecorder("s", fakeClock(), 4)
	for i := 0; i < 6; i++ {
		f.Record(FlightEvent{Kind: "k", OID: uint64(i)})
	}
	events := f.Snapshot()
	if len(events) != 4 || events[0].OID != 2 || events[3].OID != 5 {
		t.Fatalf("ring contents: %+v", events)
	}
	if events[0].Seq != 2 || events[3].Seq != 5 {
		t.Fatalf("seq stamping: %+v", events)
	}
	if f.total != 6 {
		t.Fatalf("total: %d", f.total)
	}

	d := f.Dump("first")
	if d.Seq != 1 || d.Total != 6 || d.Dropped != 2 || len(d.Events) != 4 {
		t.Fatalf("dump: %+v", d)
	}
	if last, ok := f.LastDump(); !ok || last.Reason != "first" {
		t.Fatalf("last dump: %+v ok=%v", last, ok)
	}
	// Only the last few dumps are retained.
	for i := 0; i < 6; i++ {
		f.Dump("later")
	}
	if dumps := f.dumps; len(dumps) != 4 || dumps[0].Seq != 4 {
		t.Fatalf("dump retention: %d dumps, first seq %d", len(dumps), dumps[0].Seq)
	}
}

func TestFlightDumpContainsAndFormat(t *testing.T) {
	f := newFlightRecorder("s", fakeClock(), 0)
	f.Record(FlightEvent{Kind: "rmi.retry", SpanID: 0xbeef, Detail: "attempt=2"})
	f.Record(FlightEvent{Kind: "repl.unavailable", OID: 9, Err: "boom"})
	d := f.Current("live")
	if !d.Contains(0xbeef) || d.Contains(0xdead) {
		t.Fatalf("contains: %+v", d)
	}
	out := d.Format()
	for _, want := range []string{"rmi.retry", "attempt=2", "err=boom", "reason: live"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSnapshotSinceCursor(t *testing.T) {
	h := NewHub("s", WithClock(fakeClock()), WithSpanCapacity(4))
	finish := func(name string) {
		h.StartRoot(name).End()
	}
	finish("a")
	finish("b")

	spans, next, missed := h.SpansSince(0, 10)
	if len(spans) != 2 || next != 2 || missed != 0 {
		t.Fatalf("first poll: %d spans next=%d missed=%d", len(spans), next, missed)
	}
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("order: %+v", spans)
	}

	// No new spans: empty delta, cursor unchanged.
	if spans, next, _ = h.SpansSince(next, 10); len(spans) != 0 || next != 2 {
		t.Fatalf("idle poll: %d spans next=%d", len(spans), next)
	}

	// max bounds a delta; the cursor resumes mid-stream.
	finish("c")
	finish("d")
	finish("e")
	spans, next, _ = h.SpansSince(2, 2)
	if len(spans) != 2 || spans[0].Name != "c" || spans[1].Name != "d" || next != 4 {
		t.Fatalf("bounded poll: %+v next=%d", spans, next)
	}
	spans, next, _ = h.SpansSince(next, 2)
	if len(spans) != 1 || spans[0].Name != "e" || next != 5 {
		t.Fatalf("resume poll: %+v next=%d", spans, next)
	}

	// A cursor behind the ring reports eviction and clamps forward.
	for i := 0; i < 6; i++ {
		finish("burst")
	}
	spans, next, missed = h.SpansSince(5, 100)
	if missed != 2 || len(spans) != 4 || next != 11 {
		t.Fatalf("evicted poll: %d spans next=%d missed=%d", len(spans), next, missed)
	}
}

func TestRuntimeSamplerPublishesGauges(t *testing.T) {
	h := NewHub("s")
	stop := h.StartRuntimeSampler(time.Hour) // immediate sample, then idle
	defer stop()
	snap := h.MetricsSnapshot()
	found := map[string]bool{}
	for _, g := range snap.Gauges {
		found[g.Name] = true
	}
	for _, want := range []string{"go.goroutines", "go.heap.alloc_bytes", "go.gc.cycles"} {
		if !found[want] {
			t.Fatalf("missing gauge %q in %+v", want, snap.Gauges)
		}
	}
	stop()
	stop() // idempotent

	var nilHub *Hub
	nilStop := nilHub.StartRuntimeSampler(time.Millisecond)
	nilStop()
}
