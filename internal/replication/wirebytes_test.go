package replication

import (
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// The wire-byte pins: what one operation puts on the wire, frames sent
// plus frames received at the mobile site, on the mem network. Like the
// allocation pins, each is a ceiling that only ever goes down: lower it
// when a change takes bytes off a frame. The counts are exact: both sites
// are fresh, and since protocol revision 4 a call frame names no client
// (its connection's Hello does, once), so no reading depends on what ran
// before in the process.
const (
	// faultWireBytes is a single-object fault of a doc with a 64 B body,
	// the benchmark's walk_step1 shape: a Get call and its step reply.
	// 266.94 at protocol revision 2, whose frames carried the codec type
	// names, an interface name per provider, the frontier's type name, the
	// replier's own address per provider and the root OID; 163.94 at
	// revision 3, whose Get call named its caller twice (the frame's client
	// id and the requester argument); 153.94 now.
	faultWireBytes = 153.94
	// nullCallWireBytes is a call of a method with no arguments and no
	// results, and its reply: 21 at revision 3, whose call frame carried the
	// client id "s1#1"; 15 now.
	nullCallWireBytes = 15
	// remoteInvokeWireBytes is a ModeRemote Ref.Invoke through a proxy-in
	// of a method with no arguments and one int result, the benchmark's
	// rmi_null shape: 29 at revision 4, whose call wrapped the method's name
	// and arguments in an Invoke call and whose reply wrapped the results
	// in a list; 17 now. remoteInvokeAllocs is what the same call
	// allocates, both sites together: 23 at revision 4, 14 now.
	remoteInvokeWireBytes = 17
	remoteInvokeAllocs    = 14
)

// wirePinSites starts a master "s2" and a mobile "s1" on a zero-latency
// mem network.
func wirePinSites(t *testing.T) (master, mobile *testSite) {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	sites := make([]*testSite, 2)
	for i, name := range []string{"s2", "s1"} {
		rt, err := rmi.NewRuntime(net, transport.Addr(name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		h := heap.New(uint16(2 - i))
		sites[i] = &testSite{name: name, rt: rt, heap: h, engine: NewEngine(rt, h)}
	}
	return sites[0], sites[1]
}

// mobileWireBytes returns what the mobile site's runtime sent and
// received per run of op, over runs runs.
func mobileWireBytes(mobile *testSite, runs int, op func()) float64 {
	before := mobile.rt.Stats()
	for i := 0; i < runs; i++ {
		op()
	}
	after := mobile.rt.Stats()
	moved := after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
	return float64(moved) / float64(runs)
}

// TestFaultWireBytesPinned: a single-object fault of a 64 B object ships
// at most faultWireBytes, connection set-up excluded.
func TestFaultWireBytesPinned(t *testing.T) {
	const warm, runs = 2, 100
	master, mobile := wirePinSites(t)
	docs := buildChain(t, master, warm+runs+1, 64)
	next := exportHead(t, master, mobile, docs[0], DefaultSpec)
	fault := func() {
		d, err := derefDoc(t, next)
		if err != nil {
			t.Fatal(err)
		}
		next = d.Next
	}
	for i := 0; i < warm; i++ {
		fault()
	}
	got := mobileWireBytes(mobile, runs, fault)
	if mobile.heap.Len() != warm+runs {
		t.Fatalf("walk replicated %d objects, want %d: not one object per fault", mobile.heap.Len(), warm+runs)
	}
	t.Logf("a single-object fault moves %.2f wire bytes", got)
	if got > faultWireBytes {
		t.Fatalf("a single-object fault moves %.2f wire bytes, pinned at %.2f", got, faultWireBytes)
	}
}

// toucher is the target of a null call.
type toucher struct{}

func (*toucher) Touch() {}

// TestNullCallWireBytesPinned: a call with no arguments and no results
// moves at most nullCallWireBytes, and exactly as much again after the
// process has made and closed 10 000 more runtimes, one at a time.
func TestNullCallWireBytesPinned(t *testing.T) {
	nullCall := func() float64 {
		master, mobile := wirePinSites(t)
		ref, err := master.rt.Export(&toucher{})
		if err != nil {
			t.Fatal(err)
		}
		call := func() {
			if _, err := mobile.rt.Call(ref, "Touch"); err != nil {
				t.Fatal(err)
			}
		}
		call() // the connection and its preamble
		return mobileWireBytes(mobile, 100, call)
	}
	got := nullCall()
	t.Logf("a null call moves %.2f wire bytes", got)
	if got > nullCallWireBytes {
		t.Fatalf("a null call moves %.2f wire bytes, pinned at %d", got, nullCallWireBytes)
	}
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	for i := 0; i < 10000; i++ {
		rt, err := rmi.NewRuntime(net, "churn")
		if err != nil {
			t.Fatal(err)
		}
		_ = rt.Close()
	}
	if again := nullCall(); again != got {
		t.Fatalf("a null call moves %.2f wire bytes after 10 000 more runtimes, %.2f before", again, got)
	}
}

// TestRemoteInvokeWireBytesPinned: a remote invocation through a proxy-in,
// Ref.Invoke in ModeRemote, moves at most remoteInvokeWireBytes and
// allocates at most remoteInvokeAllocs.
func TestRemoteInvokeWireBytesPinned(t *testing.T) {
	master, mobile := wirePinSites(t)
	ref := exportHead(t, master, mobile, buildChain(t, master, 1, 64)[0], DefaultSpec)
	ref.SetMode(objmodel.ModeRemote)
	call := func() {
		if res, err := ref.Invoke("Size"); err != nil || len(res) != 1 || res[0] != int64(64) {
			t.Fatalf("Size: %v %v", res, err)
		}
	}
	call() // the connection and its preamble
	got := mobileWireBytes(mobile, 100, call)
	t.Logf("a remote invocation moves %.2f wire bytes", got)
	if got > remoteInvokeWireBytes {
		t.Fatalf("a remote invocation moves %.2f wire bytes, pinned at %d", got, remoteInvokeWireBytes)
	}
	if mobile.heap.Len() != 0 {
		t.Fatalf("ModeRemote replicated %d objects", mobile.heap.Len())
	}
	if raceflag.Enabled {
		return // allocation counts are not repeatable under the race detector
	}
	allocs := testing.AllocsPerRun(2000, call)
	t.Logf("a remote invocation allocates %.0f objects", allocs)
	if allocs > remoteInvokeAllocs {
		t.Fatalf("a remote invocation allocates %.0f objects, pinned at %d", allocs, remoteInvokeAllocs)
	}
}
