package site

import (
	"bytes"
	"runtime"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/replication"
	"obiwan/internal/transport"
)

// TestSiteStartAllocationPinned bounds what an idle site costs: starting
// and closing one allocates at most 200 KB. The span ring used to be
// 4096 eager records (545 KB, scanned whole by every GC cycle), then 4096
// pointers (32 KB); it now allocates its slabs as spans arrive, so an idle
// site holds none. Heap bytes are a deterministic count, not a timing.
func TestSiteStartAllocationPinned(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	start := func(name string) {
		s, err := New(name, net)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	start("warm") // one-time registrations and lazy package state
	// TotalAlloc is process-wide, so a straggler goroutine of an earlier
	// test can add to one reading; the minimum of three cannot be inflated.
	best := ^uint64(0)
	for _, name := range []string{"pin1", "pin2", "pin3"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start(name)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	const limit = 200 << 10
	if best > limit {
		t.Fatalf("site start+close allocated %d bytes, limit %d", best, limit)
	}
	t.Logf("site start+close allocated %d bytes", best)
}

// blob is an object that is nearly all payload.
type blob struct {
	Data []byte
	Next *objmodel.Ref
}

func (b *blob) Size() int { return len(b.Data) }

func init() {
	objmodel.MustRegisterType("site_test.blob", (*blob)(nil))
}

// exportChain registers a chain of n blobs of size bytes at master and
// exports its head.
func exportChain(t *testing.T, master *Site, n, size int) replication.Descriptor {
	_, head := blobChain(t, master, n, size)
	return head
}

// blobChain is exportChain that also returns the masters; blob i holds
// size bytes of the value i+1.
func blobChain(t *testing.T, master *Site, n, size int) ([]*blob, replication.Descriptor) {
	t.Helper()
	chain := make([]*blob, n)
	for i := range chain {
		chain[i] = &blob{Data: bytes.Repeat([]byte{byte(i + 1)}, size)}
		if err := master.Register(chain[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		next, err := master.NewRef(chain[i+1])
		if err != nil {
			t.Fatal(err)
		}
		chain[i].Next = next
	}
	head, err := master.Export(chain[0])
	if err != nil {
		t.Fatal(err)
	}
	return chain, head
}

// allocatedBy returns the heap bytes and objects fn allocates,
// process-wide: the least of three readings each, which a straggler
// goroutine cannot inflate. prep runs before each reading, outside it.
func allocatedBy(prep, fn func(round int)) (bytes, objects uint64) {
	bytes, objects = ^uint64(0), ^uint64(0)
	for round := 0; round < 3; round++ {
		prep(round)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn(round)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// The per-byte pins: what moving payload bytes between a master's object
// and a replica's allocates, both sites included, as a multiple of the
// payload. Each only ever goes down: lower it when a change removes a copy.
// The mem network's queue copy is one of the multiples (over TCP the
// receive buffer takes its place).
const (
	// 10.5 before frames were sized, decode borrowed and CaptureState
	// stopped copying out; 4.2 before the reply frame referenced the
	// captured states instead of copying them (a vector); 3.21 before the
	// fresh replicas adopted their states where the frame put them; 2.21
	// before a demand's reply left the dedupe table (Get is idempotent), so
	// that its states come back once it is sent; 1.09 now: queue copy 1, the
	// rest small objects (the master captures into the earlier round's
	// buffers).
	clusterDemandAllocFactor = 1.2
	// 7.6 before; 5.1 before the call frame referenced the captured state;
	// 3.95 before the proxy-in dispatched its own calls; 3.88 before the
	// master adopted the put's state from its call frame; 2.82 before the
	// replica captured into the state buffers its runtime got back from
	// earlier puts; 1.63 now: the master's receive buffer 1.19 (its size
	// class), the rest small objects. A 4 KiB put carries ~1.8 KB of fixed
	// cost (spans, call bookkeeping, the reply).
	putAllocFactor = 1.7
	// A 100 x 16 KiB cluster put, warm: the replica captures into given-back
	// buffers, and the master adopts each member where its receive buffer
	// holds it: 2.04 while the master copied the members out, 1.04 now.
	clusterPutAllocFactor = 1.1
)

// clusterDemandAllocsPerMember pins the heap objects one cluster demand
// allocates per member, both sites included; it only ever goes down. 13.5
// while each reference walk (the master's traversal, its frontier walk and
// the replica's binding) returned a fresh slice; 10.5 while each member's
// capture and restore heap-allocated a codec header and its type name and
// provider strings were copied out of the reply; 7.5 (readings spread by
// ±0.05 between runs) while the master captured each round into fresh
// buffers; 5.23 now, into buffers an earlier reply gave back.
const clusterDemandAllocsPerMember = 5.3

// TestClusterDemandAllocationPinned: one demand of a 100 x 16 KiB cluster
// (the paper's Fig. 6 regime, the benchmark's walk_cluster16k). Every round
// closes the previous mobile and opens a new incarnation under the same
// name: the rounds are alike, each a first demand of a new client, which
// leaves no log in the master's dedupe table. A demand's reply is not kept
// in the master's dedupe table, so its states come back once it is sent:
// from the second round on the master captures into the buffers the round
// before gave back.
func TestClusterDemandAllocationPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not repeatable under the race detector")
	}
	const members, size = 100, 16 << 10
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	master, err := New("master", net)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	head := exportChain(t, master, members, size)
	spec := replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true}
	var mobile *Site
	demand := func(int) {
		root, err := mobile.Engine().RefFromDescriptor(head, spec).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if got := mobile.ReplicaCount(); got != members || root.(*blob).Size() != size {
			t.Fatalf("demand shipped %d replicas, want %d", got, members)
		}
	}
	fresh := func(int) {
		if mobile != nil {
			if err := mobile.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if mobile, err = New("mobile", net); err != nil {
			t.Fatal(err)
		}
		// New leaves its start-up goroutines (the accept loop, the runtime
		// sampler) runnable on this P; yield so they run to where they park
		// now, not once the demand blocks inside the reading. On a loaded
		// host no other P picks them up first, and a fresh site per round
		// put their allocations in all three readings (7.63 per member).
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
	}
	fresh(-1)
	demand(-1) // warm: type plans, the connection, lazy package state
	got, objects := allocatedBy(fresh, demand)
	_ = mobile.Close()
	if perMember := float64(objects) / members; perMember > clusterDemandAllocsPerMember {
		t.Fatalf("a %d-member cluster demand allocated %.2f objects per member, pinned at %.1f", members, perMember, clusterDemandAllocsPerMember)
	}
	t.Logf("a %d-member cluster demand allocated %d objects (%.2f per member)", members, objects, float64(objects)/members)
	const payload = members * size
	if limit := uint64(clusterDemandAllocFactor * payload); got > limit {
		t.Fatalf("a %d-byte cluster demand allocated %d bytes (%.2fx), pinned at %.1fx", payload, got, float64(got)/payload, clusterDemandAllocFactor)
	}
	t.Logf("a %d-byte cluster demand allocated %d bytes (%.2fx)", payload, got, float64(got)/payload)
}

// recycledDemandAllocFactor bounds what a cluster demand allocates, both
// sites included, once the master captures into buffers an earlier reply
// gave back: the demand factor without the capture's 1.125 (2.21 before
// the master's free list of state buffers).
const recycledDemandAllocFactor = 1.2

// TestClusterDemandRecyclesStates: one mobile walks a 1000 x 16 KiB chain in
// clusters of 100 (the benchmark's walk_cluster16k client). A demand's
// reply is not kept in the master's dedupe table, so its states are given
// back once it is sent; from the second demand on every capture reuses one.
func TestClusterDemandRecyclesStates(t *testing.T) {
	walkRecycling(t, false)
}

// TestClusterDemandRecyclesStatesBesidePuts: the same walk, while the master
// also puts a 4 KiB replica of a third site's object back between demands.
// Its puts capture into a list of their own, so they never evict the 16 KiB
// class its replies recycle.
func TestClusterDemandRecyclesStatesBesidePuts(t *testing.T) {
	walkRecycling(t, true)
}

// walkRecycling is TestClusterDemandRecyclesStates, with a put by the master
// before each demand when putBetween is set.
func walkRecycling(t *testing.T, putBetween bool) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not repeatable under the race detector")
	}
	const objects, members, size = 1000, 100, 16 << 10
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	master, err := New("master", net)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := New("mobile", net)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	step := func() {}
	if putBetween {
		third, err := New("third", net)
		if err != nil {
			t.Fatal(err)
		}
		defer third.Close()
		head, err := third.Export(&blob{Data: make([]byte, 4<<10)})
		if err != nil {
			t.Fatal(err)
		}
		root, err := master.Engine().RefFromDescriptor(head, replication.DefaultSpec).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		replica := root.(*blob)
		step = func() {
			replica.Data[0]++
			if err := master.Put(replica); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := exportChain(t, master, objects, size)
	ref := mobile.Engine().RefFromDescriptor(head, replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true})
	for d := 1; d <= objects/members; d++ {
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		obj, err := ref.Resolve()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		factor := float64(after.TotalAlloc-before.TotalAlloc) / (members * size)
		t.Logf("demand %d allocated %.2fx its payload", d, factor)
		if d >= 2 && factor > recycledDemandAllocFactor {
			t.Errorf("demand %d allocated %.2fx its payload, pinned at %.1fx", d, factor, recycledDemandAllocFactor)
		}
		b := obj.(*blob)
		for i := 1; i < members; i++ { // the cluster is local: walk to its last member
			next, err := b.Next.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			b = next.(*blob)
		}
		if want := bytes.Repeat([]byte{byte(d * members)}, size); !bytes.Equal(b.Data, want) {
			t.Fatalf("demand %d: member %d holds %d, want %d", d, d*members-1, b.Data[0], byte(d*members))
		}
		ref = b.Next
	}
	if ref != nil {
		t.Fatalf("the walk ended before the chain did")
	}
}

// TestPutAllocationPinned: one-byte edits of a 4 KiB replica, each put back
// (the benchmark's edit_put4k).
func TestPutAllocationPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not repeatable under the race detector")
	}
	const size, puts = 4 << 10, 200
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	master, err := New("master", net)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := New("mobile", net)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	head, err := master.Export(&blob{Data: make([]byte, size)})
	if err != nil {
		t.Fatal(err)
	}
	root, err := mobile.Engine().RefFromDescriptor(head, replication.DefaultSpec).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	replica := root.(*blob)
	edit := func(int) {
		for i := 0; i < puts; i++ {
			replica.Data[i%size]++
			if err := mobile.Put(replica); err != nil {
				t.Fatal(err)
			}
		}
	}
	edit(-1) // warm
	bytes, _ := allocatedBy(func(int) {}, edit)
	got := float64(bytes) / puts
	if limit := putAllocFactor * size; got > limit {
		t.Fatalf("a %d-byte put allocated %.0f bytes (%.2fx), pinned at %.1fx", size, got, got/size, putAllocFactor)
	}
	t.Logf("a %d-byte put allocated %.0f bytes (%.2fx)", size, got, got/size)
}

// TestClusterPutAllocationPinned: a 100 x 16 KiB cluster put back, after a
// warm-up put that gives the replica's runtime its capture buffers.
func TestClusterPutAllocationPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not repeatable under the race detector")
	}
	const members, size = 100, 16 << 10
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	master, err := New("master", net)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := New("mobile", net)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	head := exportChain(t, master, members, size)
	spec := replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true}
	root, err := mobile.Engine().RefFromDescriptor(head, spec).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	replica := root.(*blob)
	put := func(int) {
		replica.Data[0]++
		if err := mobile.PutCluster(replica); err != nil {
			t.Fatal(err)
		}
	}
	put(-1) // warm
	got, _ := allocatedBy(func(int) {}, put)
	const payload = members * size
	if limit := uint64(clusterPutAllocFactor * payload); got > limit {
		t.Fatalf("a %d-byte cluster put allocated %d bytes (%.2fx), pinned at %.1fx", payload, got, float64(got)/payload, clusterPutAllocFactor)
	}
	t.Logf("a %d-byte cluster put allocated %d bytes (%.2fx)", payload, got, float64(got)/payload)
}

// faultAllocs returns the heap objects one single-object fault allocates,
// both sites included: a walk of a 64 B chain over the mem network, one
// object per demand (the benchmark's walk_step1, the paper's Fig. 5 worst
// case). The walk is warmed past the profilers' 256 entries, so a fault
// evicts at both sites.
func faultAllocs(t *testing.T, opts ...Option) float64 {
	const warm, runs = 300, 1000
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	master, err := New("master", net, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := New("mobile", net, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	head := exportChain(t, master, warm+runs+2, 64)
	next := mobile.Engine().RefFromDescriptor(head, replication.GetSpec{Mode: replication.Incremental, Batch: 1})
	fault := func() {
		obj, err := next.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		next = obj.(*blob).Next
	}
	for i := 0; i < warm; i++ {
		fault()
	}
	got := testing.AllocsPerRun(runs, fault)
	if want := warm + runs + 1; mobile.ReplicaCount() != want {
		t.Fatalf("walk replicated %d objects, want %d: not one object per fault", mobile.ReplicaCount(), want)
	}
	return got
}

// faultAllocsOff is what a single-object fault allocates with telemetry
// off. Exact, and it only ever goes down. (83 while span attributes
// were formatted before the nil-span check, 68 while the server made a
// closure per served call, 67 while the proxy-in's Get went through the
// reflective skeleton and the codec copied each wire type name out, 57
// while each reference walk returned a fresh slice, 55 while the six
// codec headers of a fault (call and reply, each encoded and decoded, the
// capture and the restore) reached the heap through the Marshaler hook and
// nine strings (type names, provider addresses, the method name, the client
// id) were copied out of every frame instead of out of a connection memo,
// 40 while the Get call passed the requester's address as an argument,
// boxed into an interface at either end, 38 while the master recorded
// every Get in its dedupe table, 37 while a frame's head grew in a buffer
// of its own from a guessed size instead of being copied out of a lent
// encoder.)
const faultAllocsOff = 36

// TestFaultTelemetryAllocationsPinned: what a site records about a fault
// with nobody reading it allocates nothing. Its five spans (fault, rmi:get,
// materialize; serve:get, assemble) live in their callers' frames until End
// copies them into the ring's slabs, and a slab is one allocation per 178
// spans, which a per-fault count rounds away. With telemetry off no
// allocation is made for its sake. (28.9 before spans rendered on export,
// flight events deferred their detail and the profiler reused the evicted
// record, and that under-counted: see faultAllocsOff; 5.4 while each span
// was a heap object.)
func TestFaultTelemetryAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	off := faultAllocs(t, WithoutTelemetry())
	on := faultAllocs(t)
	t.Logf("a single-object fault allocates %.2f objects, %.2f with telemetry off", on, off)
	if off != faultAllocsOff {
		t.Fatalf("a fault with telemetry off allocates %.2f objects, pinned at %d", off, faultAllocsOff)
	}
	if on != off {
		t.Fatalf("telemetry adds %.2f allocations to a fault (%.2f on, %.2f off), pinned at 0", on-off, on, off)
	}
}

// TestObservedLMIAllocationsPinned: an LMI through a resolved ref on a
// default site, its profiler on, allocates what an LMI through a ref
// nobody observes does; this is the path the benchmark's lmi_ns times. A
// cycle of an LMI that joins the profiler's log and a drain of that log
// allocates nothing more once warm.
func TestObservedLMIAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	w := newWorld(t)
	server, mobile := w.site("server"), w.site("mobile")
	d, err := server.Export(&note{Text: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	obj, err := ref.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	lmi := func(r *objmodel.Ref) func() {
		return func() {
			if _, err := r.Invoke("Read"); err != nil {
				t.Fatal(err)
			}
		}
	}
	observed, prof := lmi(ref), mobile.Telemetry().Profiler()
	unobserved := testing.AllocsPerRun(1000, lmi(objmodel.NewLocalRef(obj, objmodel.OID(d.OID))))
	hit := testing.AllocsPerRun(1000, observed)
	cycle := testing.AllocsPerRun(1000, func() { observed(); prof.Len() })
	t.Logf("an LMI allocates %.1f objects unobserved, %.1f observed, %.1f with a drain", unobserved, hit, cycle)
	if hit != unobserved || cycle != unobserved {
		t.Fatalf("observing an LMI adds %.1f allocations, a join and drain %.1f; pinned at 0", hit-unobserved, cycle-unobserved)
	}
}
