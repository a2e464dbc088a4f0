package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
)

// TestSpanSizePinned: the ring retains 4096 records per site by value, so
// the record's size is live heap. 184 bytes holds two numeric attributes
// and two phases inline (a 384-byte span measured +10 % live heap on the
// benchmark's walk_step1). An idle hub holds no slab: a site that records
// nothing pays for none of its ring.
func TestSpanSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(spanData{}); got > 184 {
		t.Fatalf("a ring record is %d bytes, pinned at 184", got)
	}
	h := NewHub("idle")
	h.Spans(0)
	h.SpansSince(0, 0)
	for i, slab := range h.tracer.slabs {
		if slab != nil {
			t.Fatalf("an idle hub holds slab %d", i)
		}
	}
}

// TestRecordingAllocationsPinned: with nobody reading, a span of the demand
// path's shape allocates nothing (it lives in its caller's frame until End
// copies it into the ring), a fresh ring allocates one slab per spanSlabLen
// spans and nothing once full, a counted flight event is none, and a first
// touch at a full profiler is none (the evicted record serves the newcomer).
func TestRecordingAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	h := NewHub("s")
	var oid uint64
	for ; oid < 2*defaultProfileCapacity; oid++ {
		h.Profiler().RecordServe(oid, 1, 64)
	}
	root := h.StartRoot("root", tick()).Context()
	for _, c := range []struct {
		what string
		max  float64
		fn   func()
	}{
		{"a span with two numbers and two phases", 0, func() {
			s := h.StartPrefixed(root, PrefixServe, "Get", tick())
			s.AnnotateOID("oid", oid)
			s.AnnotateUint("objects", 1)
			s.Phase(PhaseQueue, 1)
			s.Phase(PhaseServe, 1)
			s.Phase(PhaseQueue, 1)
			s.End(tick())
		}},
		{"a counted flight event", 0, func() { h.Flight().RecordCounts("repl.fault-resolved", oid, 1, 64, tick()) }},
		{"a first touch at a full profiler", 0, func() {
			oid++
			h.Profiler().RecordInvoke(oid, false)
		}},
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.max {
			t.Fatalf("%s allocates %.1f objects, pinned at %.0f", c.what, got, c.max)
		}
	}
	// Mallocs is process-wide: the least of three readings cannot be
	// inflated by a straggler goroutine.
	const slabs, spans = 2, 4 * spanSlabLen
	least := ^uint64(0)
	for round := 0; round < 3; round++ {
		fresh := NewHub("fresh", WithSpanCapacity(slabs*spanSlabLen))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < spans; i++ {
			s := fresh.StartPrefixed(root, PrefixServe, "Get", tick())
			s.AnnotateOID("oid", oid)
			s.Phase(PhaseServe, 1)
			s.End(tick())
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > slabs {
		t.Fatalf("%d spans on a fresh %d-slab ring allocate %d objects, pinned at %d (one per slab)", spans, slabs, least, slabs)
	}
}

// oldRing is the span ring as one array of capacity records, written in
// place once full: the model whose answers the slab ring must match.
type oldRing struct {
	ring  []string
	next  int
	total uint64
}

func (r *oldRing) commit(name string) {
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, name)
		return
	}
	r.ring[r.next] = name
	r.next = (r.next + 1) % len(r.ring)
}

func (r *oldRing) since(cursor uint64, max int) (names []string, next, missed uint64) {
	oldest := r.total - uint64(len(r.ring))
	if cursor > r.total {
		cursor = r.total
	}
	if cursor < oldest {
		missed = oldest - cursor
		cursor = oldest
	}
	n := r.total - cursor
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	names = []string{}
	for i := uint64(0); i < n; i++ {
		pos := int(cursor + i - oldest)
		if len(r.ring) == cap(r.ring) {
			pos = (r.next + pos) % len(r.ring)
		}
		names = append(names, r.ring[pos])
	}
	return names, cursor + n, missed
}

func (r *oldRing) snapshot(max int) []string {
	cursor := uint64(0)
	if max > 0 && len(r.ring) > max {
		cursor = r.total - uint64(max)
	}
	names, _, _ := r.since(cursor, max)
	return names
}

// TestSpanRingWrapsAcrossSlabs: a ring whose capacity is not a multiple of
// the slab length wraps across its slab boundaries, allocates each slab
// once, and answers Spans and SpansSince (records, cursors, missed counts)
// exactly as the one-array ring did, before, at and past every boundary.
func TestSpanRingWrapsAcrossSlabs(t *testing.T) {
	const capacity = spanSlabLen + 100
	h := NewHub("s", WithSpanCapacity(capacity))
	model := &oldRing{ring: make([]string, 0, capacity)}
	names := func(recs []SpanRecord) []string {
		out := []string{}
		for _, r := range recs {
			out = append(out, r.Name)
		}
		return out
	}
	var firstSlabs [][]spanData
	const slab, ring = uint64(spanSlabLen), uint64(capacity)
	for _, total := range []uint64{0, 1, slab - 1, slab, slab + 1, ring - 1, ring, ring + 1, ring + slab, 2*ring + 3, 5*ring + slab + 7} {
		for model.total < total {
			name := strconv.FormatUint(model.total, 10)
			h.StartRoot(name, tick()).End(tick())
			model.commit(name)
		}
		for _, max := range []int{0, 1, 7, spanSlabLen, capacity, capacity + 1} {
			if got, want := names(h.Spans(max)), model.snapshot(max); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d spans, Spans(%d) = %v, want %v", total, max, got, want)
			}
			for _, cursor := range []uint64{0, total - min(total, ring) - 1, total - min(total, ring), total / 2, total - 1, total, total + 5} {
				recs, next, missed := h.SpansSince(cursor, max)
				want, wantNext, wantMissed := model.since(cursor, max)
				if got := names(recs); !reflect.DeepEqual(got, want) || next != wantNext || missed != wantMissed {
					t.Fatalf("after %d spans, SpansSince(%d, %d) = %v next %d missed %d, want %v next %d missed %d",
						total, cursor, max, got, next, missed, want, wantNext, wantMissed)
				}
			}
		}
		if total == ring {
			firstSlabs = append([][]spanData(nil), h.tracer.slabs...)
		}
	}
	if len(firstSlabs) != 2 || len(firstSlabs[0]) != spanSlabLen || len(firstSlabs[1]) != 100 {
		t.Fatalf("a %d-record ring holds %d slabs", capacity, len(firstSlabs))
	}
	for i, slab := range h.tracer.slabs {
		if &slab[0] != &firstSlabs[i][0] {
			t.Fatalf("slab %d was reallocated after the ring wrapped", i)
		}
	}
}

// eager builds a SpanRecord the way spans were recorded before export
// became lazy: every attribute formatted and concatenated as it arrives.
type eager struct{ rec SpanRecord }

func (e *eager) annotate(key, value string) { e.rec.Attrs = append(e.rec.Attrs, key+"="+value) }

func (e *eager) phase(name string, d time.Duration) {
	for i := range e.rec.Phases {
		if e.rec.Phases[i].Phase == name {
			e.rec.Phases[i].NS += int64(d)
			return
		}
	}
	e.rec.Phases = append(e.rec.Phases, PhaseSegment{Phase: name, NS: int64(d)})
}

// TestSpanExportMatchesEagerRendering: for every shape a call site records,
// the exported record is byte for byte what the eager code produced, and
// survives the codec unchanged.
func TestSpanExportMatchesEagerRendering(t *testing.T) {
	const oid = uint64(2)<<48 | 1
	oidText := objmodel.OID(oid).String()
	shapes := []struct {
		name   string
		prefix SpanPrefix
		record func(s *Span, e *eager)
	}{
		{"bare", PrefixNone, func(*Span, *eager) {}},
		{"oid only", PrefixNone, func(s *Span, e *eager) {
			s.AnnotateOID("oid", oid)
			e.annotate("oid", oidText)
		}},
		{"oid + objects", PrefixNone, func(s *Span, e *eager) {
			s.AnnotateOID("oid", oid)
			s.AnnotateUint("objects", 100)
			e.annotate("oid", oidText)
			e.annotate("objects", fmt.Sprint(100))
			s.Phase(PhaseAssemble, 7)
			e.phase(PhaseAssemble, 7)
		}},
		{"oid + from_heap", PrefixNone, func(s *Span, e *eager) {
			s.AnnotateOID("oid", oid)
			s.Annotate("from_heap", "true")
			e.annotate("oid", oidText)
			e.annotate("from_heap", "true")
		}},
		{"string then numbers", PrefixNone, func(s *Span, e *eager) {
			s.Annotate("peer", "site-b")
			e.annotate("peer", "site-b")
			for i, key := range []string{"updates", "commits", "bases", "skipped"} {
				s.AnnotateUint(key, uint64(i*10))
				e.annotate(key, fmt.Sprint(i*10))
			}
		}},
		{"three numbers", PrefixNone, func(s *Span, e *eager) {
			s.AnnotateUint("a", 0)
			s.AnnotateOID("root", ^uint64(0))
			s.AnnotateUint("c", ^uint64(0))
			e.annotate("a", "0")
			e.annotate("root", objmodel.OID(^uint64(0)).String())
			e.annotate("c", fmt.Sprint(^uint64(0)))
		}},
		{"rmi retry", PrefixRMI, func(s *Span, e *eager) {
			s.AnnotateUint("attempt", 2)
			e.annotate("attempt", "2")
			s.Phase(PhaseRetryBackoff, 5)
			s.Phase(PhaseNet, 11)
			e.phase(PhaseRetryBackoff, 5)
			e.phase(PhaseNet, 11)
			s.SetErr(errors.New("boom"))
			e.rec.Err = "boom"
		}},
		{"serve fault", PrefixServe, func(s *Span, e *eager) {
			s.Annotate("fault", "no-such-method")
			e.annotate("fault", "no-such-method")
		}},
		{"five phases, a repeat inline and one in the overflow", PrefixNone, func(s *Span, e *eager) {
			for _, p := range []struct {
				name string
				d    time.Duration
			}{
				{PhaseQueue, 1}, {PhaseServe, 2}, {PhaseQueue, 4}, {PhaseApply, 8},
				{PhaseFsync, 16}, {PhaseFsyncWait, 32}, {PhaseFsync, 64}, {PhaseServe, 128}, {PhaseNet, 0},
			} {
				s.Phase(p.name, p.d)
				if p.d > 0 {
					e.phase(p.name, p.d)
				}
			}
		}},
	}
	for _, shape := range shapes {
		h := NewHub("site-a")
		parent := SpanContext{TraceID: 77, SpanID: 78}
		s := h.StartPrefixed(parent, shape.prefix, "Get", tick())
		var e eager
		shape.record(s, &e)
		s.End(tick())
		got := h.Spans(0)[0]
		want := e.rec
		want.TraceID, want.Parent, want.SpanID = 77, 78, s.Context().SpanID
		want.Site, want.Name = "site-a", spanPrefixes[shape.prefix]+"Get"
		want.StartNS, want.EndNS = got.StartNS, got.EndNS
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", shape.name, got, want)
		}
		if since, _, _ := h.SpansSince(0, 0); !reflect.DeepEqual(since[0], want) {
			t.Fatalf("%s: SpansSince renders %+v", shape.name, since[0])
		}
		// On the wire: the frame of the rendered record is the frame of the
		// eager one, and decoding and re-encoding it changes nothing.
		frame := encodeRecord(t, &got)
		if !bytes.Equal(frame, encodeRecord(t, &want)) {
			t.Fatalf("%s: encoded record differs from the eager one", shape.name)
		}
		back, err := codec.NewDecoder(frame).Value(codec.DefaultRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, encodeRecord(t, back.(*SpanRecord))) {
			t.Fatalf("%s: codec round trip %+v", shape.name, back)
		}
	}
}

func encodeRecord(t *testing.T, r *SpanRecord) []byte {
	t.Helper()
	enc := codec.NewEncoder(256)
	if err := enc.Value(codec.DefaultRegistry(), r); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestAnnotateOIDRendersAsObjmodel: telemetry cannot import objmodel, so
// the site/sequence rendering is written twice; they must agree.
func TestAnnotateOIDRendersAsObjmodel(t *testing.T) {
	same := func(x uint64) bool {
		return spanAttr{key: "oid", num: x, kind: attrOID}.render() == "oid="+objmodel.OID(x).String()
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{0, 1, 1 << 48, 1<<48 - 1, ^uint64(0)} {
		if !same(x) {
			t.Fatalf("oid %#x renders %q", x, spanAttr{key: "oid", num: x, kind: attrOID}.render())
		}
	}
}

// TestFlightCountsRenderOnRead: a counted event's Detail is the text the
// call site used to format, in a snapshot, a dump and through eviction.
func TestFlightCountsRenderOnRead(t *testing.T) {
	f := newFlightRecorder("s", 3)
	f.Record(FlightEvent{Kind: "rmi.retry", Detail: "Get to b attempt=2"})
	counts := [][2]int{{0, 0}, {1, 67}, {100, 1 << 31}}
	for _, c := range counts {
		f.RecordCounts("repl.fault-resolved", 9, c[0], c[1], tick())
	}
	for _, events := range [][]FlightEvent{f.Snapshot(), f.Dump("test", tick()).Events, f.Current("test", tick()).Events} {
		if len(events) != 3 {
			t.Fatalf("ring holds %d events", len(events))
		}
		for i, ev := range events {
			want := FlightEvent{
				Seq: uint64(i + 1), AtNS: ev.AtNS, Kind: "repl.fault-resolved", OID: 9,
				Detail: fmt.Sprintf("objects=%d bytes=%d", counts[i][0], counts[i][1]),
			}
			if ev != want {
				t.Fatalf("event %d: %+v, want %+v", i, ev, want)
			}
		}
	}
}

// TestSpanRingReadWhileWritten is for the race detector: readers render
// records from the ring while eight goroutines start, annotate and end
// spans, which fills the ring's slabs, allocating them, and wraps it across
// their boundary. Every span a drain returns is whole.
func TestSpanRingReadWhileWritten(t *testing.T) {
	const writers, each = 8, 500
	h := NewHub("s", WithSpanCapacity(spanSlabLen+100))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := h.StartPrefixed(SpanContext{}, PrefixRMI, "Get", tick())
				s.AnnotateOID("oid", uint64(w)<<48|uint64(i))
				s.AnnotateUint("objects", uint64(i))
				s.Annotate("from_heap", "true")
				s.Phase(PhaseNet, 1)
				s.Phase(PhaseServe, 1)
				s.Phase(PhaseQueue, 1)
				s.End(tick())
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var cursor, seen, missed uint64
	for running := true; running; {
		select {
		case <-done:
			running = false // one last drain below picks up the tail
		default:
		}
		h.Spans(8)
		spans, next, gone := h.SpansSince(cursor, 16)
		for _, r := range spans {
			if r.Name != "rmi:Get" || len(r.Attrs) != 3 || len(r.Phases) != 3 || r.Attrs[2] != "from_heap=true" || r.EndNS == 0 {
				t.Fatalf("torn span: %+v", r)
			}
		}
		seen += uint64(len(spans))
		missed += gone
		if next != cursor {
			running = true
		}
		cursor = next
	}
	if seen+missed != writers*each || cursor != writers*each {
		t.Fatalf("drained %d + missed %d of %d spans, cursor %d", seen, missed, writers*each, cursor)
	}
}
