package replication

import (
	"errors"
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

func TestSnapshotRoundTrip(t *testing.T) {
	master, _ := twoSites(t)
	docs := buildChain(t, master, 2, 8)

	snap, err := master.engine.CaptureSnapshot(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	docs[0].Name = "mutated"
	docs[0].Next = nil
	if err := master.engine.RestoreSnapshot(docs[0], snap); err != nil {
		t.Fatal(err)
	}
	if docs[0].Name != "doc-0" {
		t.Fatalf("restored name: %q", docs[0].Name)
	}
	if docs[0].Next == nil || !docs[0].Next.IsResolved() {
		t.Fatal("restored ref must rebind locally")
	}
	target, err := objmodel.Deref[*doc](docs[0].Next)
	if err != nil || target != docs[1] {
		t.Fatalf("rebind target: %v %v", target, err)
	}
}

func TestSnapshotOfUnmanagedObject(t *testing.T) {
	master, _ := twoSites(t)
	loose := &doc{Name: "loose"}
	snap, err := master.engine.CaptureSnapshot(loose)
	if err != nil {
		t.Fatal(err)
	}
	loose.Name = "changed"
	if err := master.engine.RestoreSnapshot(loose, snap); err != nil {
		t.Fatal(err)
	}
	if loose.Name != "loose" {
		t.Fatalf("restored: %q", loose.Name)
	}
}

func TestBuildFrontierAndRestoreWithFrontier(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 3, 8)

	// Replicate only the head at the client.
	ref := exportHead(t, master, client, docs[0], DefaultSpec)
	replica, err := objmodel.Deref[*doc](ref)
	if err != nil {
		t.Fatal(err)
	}

	// Master-side: capture head state + frontier (its edge to doc-1).
	frontier, err := master.engine.BuildFrontier(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != 1 {
		t.Fatalf("frontier: %+v", frontier)
	}
	docs[0].Name = "pushed"
	state, err := master.engine.CaptureSnapshot(docs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Client-side: apply the state; the ref rebinds through the frontier.
	if err := client.engine.RestoreWithFrontier(replica, state, frontier); err != nil {
		t.Fatal(err)
	}
	if replica.Name != "pushed" {
		t.Fatalf("restored: %q", replica.Name)
	}
	res, err := replica.Next.Invoke("Title")
	if err != nil || res[0] != "doc-1" {
		t.Fatalf("frontier rebind: %v %v", res, err)
	}
}

func TestEngineAccessorsAndSetters(t *testing.T) {
	master, _ := twoSites(t)
	eng := master.engine
	if eng.Heap() != master.heap || eng.Runtime() != master.rt || eng.GC() == nil {
		t.Fatal("accessors")
	}
	eng.SetPolicy(nil) // restores accept-all without panicking
	if err := eng.getPolicy().ApplyPut(1, 2, 3); err != nil {
		t.Fatal("accept-all default")
	}
	called := false
	eng.SetCrossover(func(transport.Addr, objmodel.OID, uint64) bool {
		called = true
		return true
	})
	if c := eng.getCrossover(); c == nil || !c("x", 1, 1) || !called {
		t.Fatal("crossover setter")
	}
}

func TestProxyAccessors(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 8)
	desc, err := master.engine.ExportObject(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	pout := client.engine.newProxyOut(objmodel.OID(desc.OID), desc.Provider, DefaultSpec)
	if pout.OID() != objmodel.OID(desc.OID) || pout.Provider() != desc.Provider {
		t.Fatal("proxy-out accessors")
	}
	// Default crossover: always prefer local.
	if !pout.PreferLocal(1) {
		t.Fatal("default PreferLocal")
	}

	// Version over RMI.
	res, err := client.rt.Call(desc.Provider, "Version")
	if err != nil || res[0] != uint64(1) {
		t.Fatalf("version: %v %v", res, err)
	}
}

func TestProxyInGetNilSpecDefaults(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 2, 8)
	desc, err := master.engine.ExportObject(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Passing nil spec over RMI uses the default (batch 1).
	res, err := client.rt.Call(desc.Provider, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res[0].(*Payload)
	if !ok || len(p.Objects) != 1 || len(p.Frontier) != 1 {
		t.Fatalf("payload: %#v", res[0])
	}
}

func TestPutAddressedToWrongProxy(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 2, 8)
	d0, err := master.engine.ExportObject(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := master.heap.EntryOf(docs[1])
	req := &PutRequest{OID: uint64(e1.OID), BaseVersion: 1, State: []byte{}}
	if _, err := client.rt.Call(d0.Provider, "Put", req); err == nil {
		t.Fatal("put addressed to the wrong proxy-in must fail")
	}
}

func TestRefreshErrorPaths(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 8)
	if err := client.engine.Refresh(telemetry.SpanContext{}, &doc{}); !errors.Is(err, heap.ErrUnknownObject) {
		t.Fatalf("unknown: %v", err)
	}
	if err := master.engine.Refresh(telemetry.SpanContext{}, docs[0]); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("master: %v", err)
	}
}

func TestReplicateOnResolvedRefIsNoop(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 8)
	ref := exportHead(t, master, client, docs[0], DefaultSpec)
	if _, err := ref.Resolve(); err != nil {
		t.Fatal(err)
	}
	calls := client.rt.Stats().CallsSent
	obj, err := client.engine.Replicate(telemetry.SpanContext{}, ref, GetSpec{Mode: Transitive})
	if err != nil || obj == nil {
		t.Fatalf("replicate resolved: %v %v", obj, err)
	}
	if client.rt.Stats().CallsSent != calls {
		t.Fatal("resolved ref must not re-demand")
	}
	// A ref with no proxy-out faulter cannot be replicated.
	bare := objmodel.NewFaultingRef(1, nil, nil)
	if _, err := client.engine.Replicate(telemetry.SpanContext{}, bare, DefaultSpec); !errors.Is(err, objmodel.ErrUnboundRef) {
		t.Fatalf("bare ref: %v", err)
	}
}

func TestEventObserverOnFreshEngine(t *testing.T) {
	master, _ := twoSites(t)
	var seen int
	eng := NewEngine(master.rt, master.heap)
	eng.AddEventObserver(func(Event) { seen++ })
	obj := &doc{Name: "observed"}
	if _, err := eng.RegisterMaster(obj); err != nil {
		t.Fatal(err)
	}
	entry, _ := eng.Heap().EntryOf(obj)
	if _, err := eng.assemble(telemetry.SpanContext{}, entry, DefaultSpec, "tester"); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("observer added to a fresh engine never fired")
	}
}
