package replication

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// doc is the test object type: a list element with a payload and a Next
// reference — the shape of both the paper's A→B→C walkthrough and its
// evaluation workload.
type doc struct {
	Name string
	Body []byte
	Next *objmodel.Ref
}

func (d *doc) Title() string { return d.Name }

func (d *doc) SetBody(b []byte) { d.Body = b }

func (d *doc) Size() int { return len(d.Body) }

func (d *doc) Sum() uint64 { return uint64(crc32.ChecksumIEEE(d.Body)) }

func init() {
	objmodel.MustRegisterType("repl_test.doc", (*doc)(nil))
}

// testSite bundles one site's runtime + heap + engine.
type testSite struct {
	name   string
	rt     *rmi.Runtime
	heap   *heap.Heap
	engine *Engine
}

func newTestSite(t *testing.T, net transport.Network, name string, siteID uint16, opts ...Option) *testSite {
	t.Helper()
	rt, err := rmi.NewRuntime(net, transport.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	h := heap.New(siteID)
	return &testSite{name: name, rt: rt, heap: h, engine: NewEngine(rt, h, opts...)}
}

// buildChain creates a master list a→b→c... of n docs at site s and returns
// the objects, head first.
func buildChain(t *testing.T, s *testSite, n int, bodySize int) []*doc {
	t.Helper()
	docs := make([]*doc, n)
	for i := range docs {
		docs[i] = &doc{Name: fmt.Sprintf("doc-%d", i), Body: make([]byte, bodySize)}
		if _, err := s.engine.RegisterMaster(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		ref, err := s.engine.NewRef(docs[i+1])
		if err != nil {
			t.Fatal(err)
		}
		docs[i].Next = ref
	}
	return docs
}

// exportHead exports the chain head at the master and returns a client-side
// faulting ref with the given spec.
func exportHead(t *testing.T, master, client *testSite, head *doc, spec GetSpec) *objmodel.Ref {
	t.Helper()
	desc, err := master.engine.ExportObject(head)
	if err != nil {
		t.Fatal(err)
	}
	return client.engine.RefFromDescriptor(desc, spec)
}

func twoSites(t *testing.T, opts ...Option) (master, client *testSite) {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	master = newTestSite(t, net, "s2", 2, opts...) // the paper's S2 holds the graph
	client = newTestSite(t, net, "s1", 1, opts...)
	return master, client
}

// TestPaperWalkthrough reproduces the scenario of Figures 1 and 2: S2 holds
// A→B→C; S1 obtains A, faults in B on first use, then C; afterwards all
// invocations are local and the proxies are gone.
func TestPaperWalkthrough(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 3, 8) // A, B, C

	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 1})

	// Situation (a): nothing replicated yet.
	if client.heap.Len() != 0 {
		t.Fatalf("client heap should be empty, has %d", client.heap.Len())
	}

	// Demand A (situation (b)): A' plus BProxyOut.
	res, err := refA.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-0" {
		t.Fatalf("A title: %#v", res[0])
	}
	if client.heap.Len() != 1 {
		t.Fatalf("after A: heap %d, want 1", client.heap.Len())
	}
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	if a.Next == nil || a.Next.IsResolved() {
		t.Fatal("A'.Next must be a proxy-out (unresolved)")
	}
	gcStats := client.engine.GC().Snapshot()
	if gcStats.ProxyOutsCreated != 2 { // head proxy + BProxyOut
		t.Fatalf("proxy-outs created: %d, want 2", gcStats.ProxyOutsCreated)
	}
	if gcStats.LiveProxyOuts() != 1 { // head proxy reclaimed, B's alive
		t.Fatalf("live proxy-outs: %d, want 1", gcStats.LiveProxyOuts())
	}

	// Fault B (situation (c)); C stays proxied.
	res, err = a.Next.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-1" {
		t.Fatalf("B title: %#v", res[0])
	}
	if !a.Next.IsResolved() {
		t.Fatal("updateMember should have spliced B' in")
	}
	b, err := objmodel.Deref[*doc](a.Next)
	if err != nil {
		t.Fatal(err)
	}
	if b.Next == nil || b.Next.IsResolved() {
		t.Fatal("B'.Next must be proxied")
	}

	// Fault C.
	if _, err := b.Next.Invoke("Title"); err != nil {
		t.Fatal(err)
	}
	c, err := objmodel.Deref[*doc](b.Next)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "doc-2" || c.Next != nil {
		t.Fatalf("C': %+v", c)
	}

	// All proxy-outs are now garbage.
	gcStats = client.engine.GC().Snapshot()
	if gcStats.LiveProxyOuts() != 0 {
		t.Fatalf("live proxy-outs after full walk: %d", gcStats.LiveProxyOuts())
	}
	// Master exported one proxy-in per object.
	if masterGC := master.engine.GC().Snapshot(); masterGC.ProxyInsExported != 3 {
		t.Fatalf("master proxy-ins: %d, want 3", masterGC.ProxyInsExported)
	}

	// Post-resolution invocations hit the replica directly: no new RMI.
	calls := client.rt.Stats().CallsSent
	for i := 0; i < 5; i++ {
		if _, err := a.Next.Invoke("Title"); err != nil {
			t.Fatal(err)
		}
	}
	if after := client.rt.Stats().CallsSent; after != calls {
		t.Fatalf("post-resolution invocations issued %d RMIs", after-calls)
	}
}

func TestTransitiveClosureReplication(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 10, 4)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Transitive})

	if _, err := refA.Resolve(); err != nil {
		t.Fatal(err)
	}
	// One demand shipped everything.
	if client.heap.Len() != 10 {
		t.Fatalf("heap: %d, want 10", client.heap.Len())
	}
	if calls := client.rt.Stats().CallsSent; calls != 1 {
		t.Fatalf("RMI calls: %d, want 1", calls)
	}
	// Walk the whole replica chain locally.
	cur, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; cur.Next != nil; i++ {
		if !cur.Next.IsResolved() {
			t.Fatalf("ref %d unresolved after transitive get", i)
		}
		cur, err = objmodel.Deref[*doc](cur.Next)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cur.Name != "doc-9" {
		t.Fatalf("tail: %s", cur.Name)
	}
}

func TestBatchReplication(t *testing.T) {
	const n, batch = 20, 5
	master, client := twoSites(t)
	docs := buildChain(t, master, n, 4)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: batch})

	// Walk the list; every batch-th step faults.
	cur := refA
	for i := 0; i < n; i++ {
		res, err := cur.Invoke("Title")
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res[0] != fmt.Sprintf("doc-%d", i) {
			t.Fatalf("step %d: %#v", i, res[0])
		}
		d, err := objmodel.Deref[*doc](cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = d.Next
	}
	if calls := client.rt.Stats().CallsSent; calls != n/batch {
		t.Fatalf("RMI calls: %d, want %d", calls, n/batch)
	}
	// Non-clustered: every object got its own proxy-in at the master.
	if got := master.engine.GC().Snapshot().ProxyInsExported; got != n {
		t.Fatalf("proxy-ins: %d, want %d", got, n)
	}
}

func TestClusterReplication(t *testing.T) {
	const n, batch = 20, 5
	master, client := twoSites(t)
	docs := buildChain(t, master, n, 4)
	refA := exportHead(t, master, client, docs[0],
		GetSpec{Mode: Incremental, Batch: batch, Clustered: true})

	cur := refA
	for i := 0; i < n; i++ {
		if _, err := cur.Invoke("Title"); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		d, err := objmodel.Deref[*doc](cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = d.Next
	}
	if calls := client.rt.Stats().CallsSent; calls != n/batch {
		t.Fatalf("RMI calls: %d, want %d", calls, n/batch)
	}
	// Clustered: one proxy-in per cluster, not per object (§4.3).
	if got := master.engine.GC().Snapshot().ProxyInsExported; got != n/batch {
		t.Fatalf("proxy-ins: %d, want %d", got, n/batch)
	}
	// Members are marked and cannot be put individually.
	d5, ok := client.heap.Get(mustOIDOf(t, master, docs[5]))
	if !ok {
		t.Fatal("doc-5 replica missing")
	}
	if !d5.ClusterMember() {
		t.Fatal("doc-5 should be a cluster member")
	}
	if err := client.engine.Put(telemetry.SpanContext{}, d5.Obj); !errors.Is(err, ErrClusterMember) {
		t.Fatalf("individual put of cluster member: %v", err)
	}
}

func mustOIDOf(t *testing.T, s *testSite, obj any) objmodel.OID {
	t.Helper()
	e, ok := s.heap.EntryOf(obj)
	if !ok {
		t.Fatalf("object %T not in heap", obj)
	}
	return e.OID
}

func TestPutUpdatesMaster(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 2, 4)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)

	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "edited at s1"
	if err := client.engine.Put(telemetry.SpanContext{}, a); err != nil {
		t.Fatal(err)
	}
	if docs[0].Name != "edited at s1" {
		t.Fatalf("master after put: %q", docs[0].Name)
	}
	// Master's Next ref must still point at doc-1.
	if docs[0].Next == nil || !docs[0].Next.IsResolved() {
		t.Fatal("master ref lost by put")
	}
	tgt, err := objmodel.Deref[*doc](docs[0].Next)
	if err != nil || tgt != docs[1] {
		t.Fatalf("master ref target: %v %v", tgt, err)
	}
	// Version advanced on both sides.
	me, _ := master.heap.EntryOf(docs[0])
	ce, _ := client.heap.Get(me.OID)
	if me.Version() != 2 || ce.Version() != 2 {
		t.Fatalf("versions: master %d client %d", me.Version(), ce.Version())
	}
}

func TestRefreshPullsMasterState(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 2, 4)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}

	docs[0].Name = "edited at master"
	if err := master.engine.MarkUpdated(docs[0]); err != nil {
		t.Fatal(err)
	}
	if a.Name == "edited at master" {
		t.Fatal("replica must not see master edits before refresh")
	}
	if err := client.engine.Refresh(telemetry.SpanContext{}, a); err != nil {
		t.Fatal(err)
	}
	if a.Name != "edited at master" {
		t.Fatalf("after refresh: %q", a.Name)
	}
	ce, _ := client.heap.EntryOf(a)
	if ce.Version() != 2 {
		t.Fatalf("replica version: %d", ce.Version())
	}
}

func TestPutClusterShipsWholeCluster(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	masterHub, clientHub := telemetry.NewHub("s2"), telemetry.NewHub("s1")
	master := newTestSite(t, net, "s2", 2, WithTelemetry(masterHub))
	client := newTestSite(t, net, "s1", 1, WithTelemetry(clientHub))
	docs := buildChain(t, master, 4, 4)
	refA := exportHead(t, master, client, docs[0],
		GetSpec{Mode: Incremental, Batch: 4, Clustered: true})
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	// Edit two members, then put the cluster.
	b, err := objmodel.Deref[*doc](a.Next)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "a2"
	b.Name = "b2"
	if err := client.engine.PutCluster(telemetry.SpanContext{}, a); err != nil {
		t.Fatal(err)
	}
	if docs[0].Name != "a2" || docs[1].Name != "b2" {
		t.Fatalf("masters after cluster put: %q %q", docs[0].Name, docs[1].Name)
	}
	// The cluster ships as its four members: each is reported shipped
	// here, as the master reports each applied.
	shipped := clientHub.Metrics().Counter("repl.puts.shipped").Load()
	applied := masterHub.Metrics().Counter("repl.puts.applied").Load()
	if shipped != 4 || applied != 4 {
		t.Fatalf("cluster put of 4 members: repl.puts.shipped=%d repl.puts.applied=%d", shipped, applied)
	}
}

func TestDedupeSharedTarget(t *testing.T) {
	// Two objects both reference the same target; replicating through both
	// paths must yield one replica (identity preserved).
	master, client := twoSites(t)
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

	l, err := objmodel.Deref[*doc](refL)
	if err != nil {
		t.Fatal(err)
	}
	r, err := objmodel.Deref[*doc](refR)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := objmodel.Deref[*doc](l.Next)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := objmodel.Deref[*doc](r.Next)
	if err != nil {
		t.Fatal(err)
	}
	if ls != rs {
		t.Fatal("shared target replicated twice: identity lost")
	}
	// The second fault was served from the heap, not the network.
	if stats := client.engine.GC().Snapshot(); stats.FaultsServedFromHeap == 0 {
		t.Fatal("expected a heap-served fault")
	}
}

func TestRemoteModeInvokesMaster(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 4)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)
	refA.SetMode(objmodel.ModeRemote)

	res, err := refA.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-0" {
		t.Fatalf("title via RMI: %#v", res[0])
	}
	if client.heap.Len() != 0 {
		t.Fatal("ModeRemote must not replicate")
	}
	// Mutations through RMI happen at the master.
	if _, err := refA.Invoke("SetBody", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if string(docs[0].Body) != "abc" {
		t.Fatalf("master body: %q", docs[0].Body)
	}
	// Run-time switch to replication: same ref, now local.
	refA.SetMode(objmodel.ModeLocal)
	res, err = refA.Invoke("Size")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int(3) {
		t.Fatalf("size: %#v", res[0])
	}
	if client.heap.Len() != 1 {
		t.Fatal("ModeLocal should have replicated")
	}
}

func TestRemoteModeAfterReplicationStillHitsMaster(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 0)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)
	if _, err := refA.Resolve(); err != nil {
		t.Fatal(err)
	}
	// Mutate the master behind the replica's back.
	docs[0].Name = "master-only edit"
	refA.SetMode(objmodel.ModeRemote)
	res, err := refA.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "master-only edit" {
		t.Fatalf("RMI after replication returned %#v", res[0])
	}
	refA.SetMode(objmodel.ModeLocal)
	res, err = refA.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-0" {
		t.Fatalf("LMI should see stale replica: %#v", res[0])
	}
}

func TestExplicitReplicateOverridesSpec(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 8, 4)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 1})
	// Override to transitive: the run-time mode decision of §2.1.
	if _, err := client.engine.Replicate(telemetry.SpanContext{}, refA, GetSpec{Mode: Transitive}); err != nil {
		t.Fatal(err)
	}
	if client.heap.Len() != 8 {
		t.Fatalf("heap: %d, want 8", client.heap.Len())
	}
	if calls := client.rt.Stats().CallsSent; calls != 1 {
		t.Fatalf("calls: %d", calls)
	}
}

func TestDisconnectedFaultFailsButLocalWorkContinues(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master := newTestSite(t, net, "s2", 2)
	client := newTestSite(t, net, "s1", 1)
	docs := buildChain(t, master, 3, 4)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 2})

	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := objmodel.Deref[*doc](a.Next) // heap-served: same batch
	if err != nil {
		t.Fatal(err)
	}

	net.Disconnect("s1", "s2")

	// Colocated objects keep working — the paper's disconnected-operation
	// headline.
	if _, err := refA.Invoke("Title"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Next.Invoke("Title"); err != nil {
		t.Fatal(err)
	}
	// The frontier fault fails while disconnected...
	if _, err := b.Next.Invoke("Title"); err == nil {
		t.Fatal("fault across a dead link must fail")
	}
	// ...and succeeds after reconnection (the ref retries).
	net.Reconnect("s1", "s2")
	res, err := b.Next.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-2" {
		t.Fatalf("after reconnect: %#v", res[0])
	}
}

func TestThirdSiteChain(t *testing.T) {
	// S3 replicates from S1 what S1 replicated from S2: the frontier of a
	// replica payload forwards the upstream provider.
	net := transport.NewMemNetwork(netsim.Loopback)
	s2 := newTestSite(t, net, "s2", 2)
	s1 := newTestSite(t, net, "s1", 1)
	s3 := newTestSite(t, net, "s3", 3)
	docs := buildChain(t, s2, 3, 4)

	// S1 replicates the head only; its replica's Next proxies to S2.
	ref1 := exportHead(t, s2, s1, docs[0], GetSpec{Mode: Incremental, Batch: 1})
	a1, err := objmodel.Deref[*doc](ref1)
	if err != nil {
		t.Fatal(err)
	}

	// S3 now replicates the head from S1's replica.
	desc1, err := s1.engine.ExportObject(a1)
	if err != nil {
		t.Fatal(err)
	}
	ref3 := s3.engine.RefFromDescriptor(desc1, GetSpec{Mode: Incremental, Batch: 1})
	a3, err := objmodel.Deref[*doc](ref3)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Name != "doc-0" {
		t.Fatalf("S3 head: %q", a3.Name)
	}
	// Walking onward from S3 reaches S2's objects through the forwarded
	// frontier.
	res, err := a3.Next.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "doc-1" {
		t.Fatalf("S3 next: %#v", res[0])
	}
}

func TestPolicyHooksFire(t *testing.T) {
	rec := &recordingPolicy{}
	master, client := twoSites(t)
	// Only the master's engine needs the policy; rebuild it with one.
	master.engine = NewEngine(master.rt, master.heap, WithPolicy(rec))
	docs := buildChain(t, master, 2, 4)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "x"
	if err := client.engine.Put(telemetry.SpanContext{}, a); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.created != 1 {
		t.Fatalf("ReplicaCreated fired %d times", rec.created)
	}
	if rec.applied != 1 || rec.updated != 1 {
		t.Fatalf("ApplyPut %d, MasterUpdated %d", rec.applied, rec.updated)
	}
	if rec.lastSite != "s1" {
		t.Fatalf("requester: %q", rec.lastSite)
	}
}

type recordingPolicy struct {
	mu       sync.Mutex
	created  int
	applied  int
	updated  int
	lastSite string
	reject   error
}

func (p *recordingPolicy) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reject != nil {
		return p.reject
	}
	p.applied++
	return nil
}

func (p *recordingPolicy) ReplicaCreated(oid objmodel.OID, site string, v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.created++
	p.lastSite = site
}

func (p *recordingPolicy) MasterUpdated(oid objmodel.OID, v uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.updated++
}

func TestPolicyCanRejectPut(t *testing.T) {
	rec := &recordingPolicy{reject: errors.New("stale update")}
	master, client := twoSites(t)
	master.engine = NewEngine(master.rt, master.heap, WithPolicy(rec))
	docs := buildChain(t, master, 1, 4)
	refA := exportHead(t, master, client, docs[0], DefaultSpec)
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "conflicting"
	err = client.engine.Put(telemetry.SpanContext{}, a)
	var re *rmi.RemoteError
	if !errors.As(err, &re) || re.Code != "app" {
		t.Fatalf("rejected put: %v", err)
	}
	if docs[0].Name == "conflicting" {
		t.Fatal("rejected put must not reach the master")
	}
}

func TestPutErrorsOnWrongObjects(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 1, 4)
	if err := master.engine.Put(telemetry.SpanContext{}, docs[0]); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("put on master: %v", err)
	}
	if err := client.engine.Put(telemetry.SpanContext{}, &doc{}); !errors.Is(err, heap.ErrUnknownObject) {
		t.Fatalf("put on unknown: %v", err)
	}
}

func TestConcurrentWalkersShareReplicas(t *testing.T) {
	const n = 30
	master, client := twoSites(t)
	docs := buildChain(t, master, n, 4)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 3})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := refA
			for i := 0; i < n; i++ {
				d, err := objmodel.Deref[*doc](cur)
				if err != nil {
					errs <- fmt.Errorf("step %d: %w", i, err)
					return
				}
				if d.Name != fmt.Sprintf("doc-%d", i) {
					errs <- fmt.Errorf("step %d: got %q", i, d.Name)
					return
				}
				cur = d.Next
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if client.heap.Len() != n {
		t.Fatalf("heap: %d, want %d", client.heap.Len(), n)
	}
}

func TestSpecNormalize(t *testing.T) {
	s := GetSpec{}.normalize()
	if s.Batch != 1 {
		t.Fatalf("default batch: %d", s.Batch)
	}
	s = GetSpec{Mode: Transitive, Batch: 5, Clustered: true}.normalize()
	if s.Batch != 0 || s.Clustered {
		t.Fatalf("transitive normalize: %+v", s)
	}
}

func TestModeString(t *testing.T) {
	if Incremental.String() != "incremental" || Transitive.String() != "transitive" {
		t.Fatal("mode strings")
	}
}

func TestRefreshClusterMemberRefreshesWholeCluster(t *testing.T) {
	master, client := twoSites(t)
	docs := buildChain(t, master, 3, 4)
	refA := exportHead(t, master, client, docs[0],
		GetSpec{Mode: Incremental, Batch: 3, Clustered: true})
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := objmodel.Deref[*doc](a.Next)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate two masters behind the replicas' backs.
	docs[0].Name = "a-v2"
	docs[1].Name = "b-v2"
	if err := master.engine.MarkUpdated(docs[0]); err != nil {
		t.Fatal(err)
	}
	if err := master.engine.MarkUpdated(docs[1]); err != nil {
		t.Fatal(err)
	}

	// Refreshing ONE member pulls the whole cluster (it is the unit of
	// replication and update).
	if err := client.engine.Refresh(telemetry.SpanContext{}, b); err != nil {
		t.Fatal(err)
	}
	if a.Name != "a-v2" || b.Name != "b-v2" {
		t.Fatalf("cluster refresh: %q %q", a.Name, b.Name)
	}
}

func TestDepthBoundedCluster(t *testing.T) {
	// A star: root with 4 children, each child with 2 grandchildren.
	master, client := twoSites(t)
	root := &doc{Name: "root"}
	if _, err := master.engine.RegisterMaster(root); err != nil {
		t.Fatal(err)
	}
	var docs []*doc
	link := func(parent *doc, name string) *doc {
		child := &doc{Name: name}
		ref, err := master.engine.NewRef(child)
		if err != nil {
			t.Fatal(err)
		}
		// Chain via Next is single-edge; use a helper type? doc has only
		// Next — build a chain of depth 3 instead.
		parent.Next = ref
		docs = append(docs, child)
		return child
	}
	c1 := link(root, "d1")
	c2 := link(c1, "d2")
	link(c2, "d3")

	ref := exportHead(t, master, client, root,
		GetSpec{Mode: Incremental, Batch: 100, Depth: 1, Clustered: true})
	if _, err := ref.Resolve(); err != nil {
		t.Fatal(err)
	}
	// Depth 1 from the root: root + d1 only.
	if client.heap.Len() != 2 {
		t.Fatalf("depth-1 cluster: %d objects", client.heap.Len())
	}
}
