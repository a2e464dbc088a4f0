package replication

import (
	"sync"
	"testing"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/telemetry"
)

// eventLog collects engine events for assertions.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) observe(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) byKind(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestEventTraceOfAWalk(t *testing.T) {
	master, client := twoSites(t)
	serverLog, clientLog := &eventLog{}, &eventLog{}
	master.engine.AddEventObserver(serverLog.observe)
	client.engine.AddEventObserver(clientLog.observe)

	docs := buildChain(t, master, 4, 8)
	ref := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 2})
	if err := walkChain(t, ref, 4); err != nil {
		t.Fatal(err)
	}

	// Two demands of two objects each.
	assembled := serverLog.byKind(EventPayloadAssembled)
	if len(assembled) != 2 {
		t.Fatalf("assembled: %d events", len(assembled))
	}
	for _, e := range assembled {
		if e.Objects != 2 || e.Requester != "s1" {
			t.Fatalf("assembled event: %+v", e)
		}
	}
	materialized := clientLog.byKind(EventPayloadMaterialized)
	if len(materialized) != 2 {
		t.Fatalf("materialized: %d events", len(materialized))
	}
	// Exactly two faults crossed the network; batched neighbours were
	// bound at materialization and never fault.
	faults := clientLog.byKind(EventFaultResolved)
	if len(faults) != 2 {
		t.Fatalf("faults: %d events", len(faults))
	}
	for _, e := range faults {
		if e.FromHeap {
			t.Fatalf("chain walk should not heap-serve: %+v", e)
		}
		if e.Objects != 2 || e.Elapsed < 0 {
			t.Fatalf("fault event: %+v", e)
		}
	}
	if s := faults[0].String(); s == "" {
		t.Fatal("event string")
	}
}

func TestEventTraceHeapServedFault(t *testing.T) {
	// Two roots share a target: the second path's fault is served from the
	// heap and flagged FromHeap.
	master, client := twoSites(t)
	clientLog := &eventLog{}
	client.engine.AddEventObserver(clientLog.observe)

	shared := &doc{Name: "shared"}
	left := &doc{Name: "left"}
	right := &doc{Name: "right"}
	for _, o := range []*doc{shared, left, right} {
		if _, err := master.engine.RegisterMaster(o); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if left.Next, err = master.engine.NewRef(shared); err != nil {
		t.Fatal(err)
	}
	if right.Next, err = master.engine.NewRef(shared); err != nil {
		t.Fatal(err)
	}
	refL := exportHead(t, master, client, left, DefaultSpec)
	refR := exportHead(t, master, client, right, DefaultSpec)
	l, err := derefDoc(t, refL)
	if err != nil {
		t.Fatal(err)
	}
	r, err := derefDoc(t, refR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := derefDoc(t, l.Next); err != nil {
		t.Fatal(err)
	}
	if _, err := derefDoc(t, r.Next); err != nil {
		t.Fatal(err)
	}
	heapServed := 0
	for _, e := range clientLog.byKind(EventFaultResolved) {
		if e.FromHeap {
			heapServed++
		}
	}
	if heapServed != 1 {
		t.Fatalf("heap-served faults: %d, want 1", heapServed)
	}
}

func TestEventTraceOfAPut(t *testing.T) {
	master, client := twoSites(t)
	serverLog, clientLog := &eventLog{}, &eventLog{}
	master.engine.AddEventObserver(serverLog.observe)
	client.engine.AddEventObserver(clientLog.observe)

	docs := buildChain(t, master, 1, 8)
	ref := exportHead(t, master, client, docs[0], DefaultSpec)
	a, err := derefDoc(t, ref)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "edited"
	if err := client.engine.Put(telemetry.SpanContext{}, a); err != nil {
		t.Fatal(err)
	}
	if got := serverLog.byKind(EventPutApplied); len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("put-applied: %+v", got)
	}
	if got := clientLog.byKind(EventPutShipped); len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("put-shipped: %+v", got)
	}
}

// TestGuardAnswerEmitsNoPutApplied: a retried put answered from the
// exactly-once guard installs nothing, so neither the single master nor a
// group leader's admission reports it as applied. The one install carries
// its guard key.
func TestGuardAnswerEmitsNoPutApplied(t *testing.T) {
	master, client := twoSites(t)
	serverLog := &eventLog{}
	master.engine.AddEventObserver(serverLog.observe)

	docs := buildChain(t, master, 1, 8)
	a, err := derefDoc(t, exportHead(t, master, client, docs[0], DefaultSpec))
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "edited"
	entry, _ := client.heap.EntryOf(a)
	req, err := client.engine.buildPutRequest(entry)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the put, then its retry
		if reply, err := master.engine.applyPut(telemetry.SpanContext{}, time.Time{}, &req, false); err != nil || reply.NewVersion != 2 {
			t.Fatalf("apply %d: %+v, %v", i, reply, err)
		}
	}
	if reply, done, err := master.engine.PreparePut(&req); err != nil || !done || reply.NewVersion != 2 {
		t.Fatalf("grouped retry: %+v, done=%v, %v", reply, done, err)
	}
	got := serverLog.byKind(EventPutApplied)
	if len(got) != 1 || got[0].Version != 2 || got[0].Base != req.BaseVersion || got[0].Checksum != stateCRC(req.State) {
		t.Fatalf("put-applied: %+v, want one install of v2 keyed (v%d, %016x)", got, req.BaseVersion, stateCRC(req.State))
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventFaultResolved, EventPayloadAssembled, EventPayloadMaterialized,
		EventPutApplied, EventPutShipped, EventKind(99),
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d string %q", k, s)
		}
		seen[s] = true
	}
}

// walkChain drives n invocations down a doc chain.
func walkChain(t *testing.T, ref *objmodel.Ref, n int) error {
	t.Helper()
	cur := ref
	for i := 0; i < n; i++ {
		if _, err := cur.Invoke("Title"); err != nil {
			return err
		}
		d, err := objmodel.Deref[*doc](cur)
		if err != nil {
			return err
		}
		cur = d.Next
	}
	return nil
}

// derefDoc resolves a ref to *doc.
func derefDoc(t *testing.T, ref *objmodel.Ref) (*doc, error) {
	t.Helper()
	return objmodel.Deref[*doc](ref)
}

func TestAddEventObserverFanOut(t *testing.T) {
	master, client := twoSites(t)

	// Three observers on the client engine. All must see the same events.
	slotLog, addLogA, addLogB := &eventLog{}, &eventLog{}, &eventLog{}
	removeSlot := client.engine.AddEventObserver(slotLog.observe)
	removeA := client.engine.AddEventObserver(addLogA.observe)
	removeB := client.engine.AddEventObserver(addLogB.observe)

	docs := buildChain(t, master, 2, 8)
	ref := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 2})
	if _, err := client.engine.Replicate(telemetry.SpanContext{}, ref, GetSpec{Mode: Incremental, Batch: 2}); err != nil {
		t.Fatal(err)
	}

	nFault := len(slotLog.byKind(EventFaultResolved))
	if nFault == 0 {
		t.Fatal("slot observer saw no fault events")
	}
	for name, l := range map[string]*eventLog{"addA": addLogA, "addB": addLogB} {
		if got := len(l.byKind(EventFaultResolved)); got != nFault {
			t.Fatalf("%s saw %d fault events, slot saw %d", name, got, nFault)
		}
	}

	// fault emits one more EventFaultResolved (served from the heap via
	// identity dedupe — the docs are already replicated).
	fault := func() {
		ref2 := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 1})
		if _, err := client.engine.Replicate(telemetry.SpanContext{}, ref2, GetSpec{Mode: Incremental, Batch: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Removal detaches exactly that observer; double-remove is harmless.
	removeA()
	removeA()
	beforeA := len(addLogA.byKind(EventFaultResolved))
	fault()
	if got := len(addLogA.byKind(EventFaultResolved)); got != beforeA {
		t.Fatalf("removed observer still firing: %d -> %d", beforeA, got)
	}
	if got := len(addLogB.byKind(EventFaultResolved)); got <= nFault {
		t.Fatalf("remaining observer stopped firing: %d", got)
	}
	removeB()

	// With the last observer gone the engine still emits (to metrics).
	removeSlot()
	before := len(slotLog.byKind(EventFaultResolved))
	fault()
	if got := len(slotLog.byKind(EventFaultResolved)); got != before {
		t.Fatalf("removed first observer still firing: %d -> %d", before, got)
	}
}
