package replication

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// gnode is a general graph node for the property tests.
type gnode struct {
	Label string
	Data  []byte
	Kids  []*objmodel.Ref
}

func (g *gnode) Name() string { return g.Label }

func init() {
	objmodel.MustRegisterType("repl_test.gnode", (*gnode)(nil))
}

// buildRandomGraph creates a random connected digraph of n nodes at the
// master: node i gets edges to random nodes (possibly forming cycles,
// diamonds, self-loops), with node 0 reaching everything through a
// spanning chain.
func buildRandomGraph(t *testing.T, s *testSite, rng *rand.Rand, n int) []*gnode {
	t.Helper()
	nodes := make([]*gnode, n)
	for i := range nodes {
		nodes[i] = &gnode{
			Label: fmt.Sprintf("g%d", i),
			Data:  make([]byte, rng.Intn(64)),
		}
		rng.Read(nodes[i].Data)
		if _, err := s.engine.RegisterMaster(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	addEdge := func(from, to int) {
		ref, err := s.engine.NewRef(nodes[to])
		if err != nil {
			t.Fatal(err)
		}
		nodes[from].Kids = append(nodes[from].Kids, ref)
	}
	// Spanning chain guarantees reachability from node 0.
	for i := 0; i < n-1; i++ {
		addEdge(i, i+1)
	}
	// Random extra edges: back, forward, self.
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return nodes
}

// isomorphic checks that the replica graph rooted at rr mirrors the master
// graph rooted at mr: same labels, same payloads, same edge structure,
// with replica identity consistent (one replica per master node).
func isomorphic(mr *gnode, rr *gnode) error {
	mapping := map[*gnode]*gnode{} // master → replica
	var walk func(m, r *gnode) error
	walk = func(m, r *gnode) error {
		if prev, seen := mapping[m]; seen {
			if prev != r {
				return fmt.Errorf("node %s mapped to two replicas", m.Label)
			}
			return nil
		}
		mapping[m] = r
		if m.Label != r.Label {
			return fmt.Errorf("label %q vs %q", m.Label, r.Label)
		}
		if string(m.Data) != string(r.Data) {
			return fmt.Errorf("node %s payload mismatch", m.Label)
		}
		if len(m.Kids) != len(r.Kids) {
			return fmt.Errorf("node %s has %d vs %d edges", m.Label, len(m.Kids), len(r.Kids))
		}
		for i := range m.Kids {
			mk, err := objmodel.Deref[*gnode](m.Kids[i])
			if err != nil {
				return fmt.Errorf("master deref %s[%d]: %w", m.Label, i, err)
			}
			rk, err := objmodel.Deref[*gnode](r.Kids[i])
			if err != nil {
				return fmt.Errorf("replica deref %s[%d]: %w", m.Label, i, err)
			}
			if err := walk(mk, rk); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(mr, rr)
}

// TestQuickTransitiveReplicationIsomorphic: for random graphs, transitive
// replication yields a structurally identical graph at the client, with
// one replica per master object (sharing and cycles preserved).
func TestQuickTransitiveReplicationIsomorphic(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizeRaw%20) + 2
		master, client := twoSites(t)
		nodes := buildRandomGraph(t, master, rng, n)

		desc, err := master.engine.ExportObject(nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		cref := client.engine.RefFromDescriptor(desc, GetSpec{Mode: Transitive})
		root, err := objmodel.Deref[*gnode](cref)
		if err != nil {
			t.Logf("replicate: %v", err)
			return false
		}
		if client.heap.Len() != n {
			t.Logf("heap %d want %d", client.heap.Len(), n)
			return false
		}
		if err := isomorphic(nodes[0], root); err != nil {
			t.Logf("isomorphism: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newRetrySite is newTestSite with an explicit client retry policy.
func newRetrySite(t *testing.T, net transport.Network, name string, siteID uint16, p rmi.RetryPolicy) *testSite {
	t.Helper()
	rt, err := rmi.NewRuntime(net, transport.Addr(name), rmi.WithRetryPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	h := heap.New(siteID)
	return &testSite{name: name, rt: rt, heap: h, engine: NewEngine(rt, h)}
}

// TestQuickIncrementalWalkUnderFaultsIsomorphic: the incremental walk of a
// random graph stays correct when the client→master link runs a seeded
// fault schedule. Every demand either completes (possibly after transparent
// retries) or fails typed with ErrUnavailable; re-walking after failures
// makes progress (the schedule always ends reconnected), and the final
// replica graph is isomorphic to the master graph.
func TestQuickIncrementalWalkUnderFaultsIsomorphic(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizeRaw%10) + 2
		net := transport.NewMemNetworkSeeded(netsim.Loopback, seed)
		master := newTestSite(t, net, "s2", 2)
		client := newRetrySite(t, net, "s1", 1, rmi.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
			Multiplier:  2,
		})
		nodes := buildRandomGraph(t, master, rng, n)
		desc, err := master.engine.ExportObject(nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		net.SetFaultSchedule("s1", "s2", netsim.RandomSchedule(seed, 40, 3, 4, 3))
		cref := client.engine.RefFromDescriptor(desc, GetSpec{Mode: Incremental, Batch: 1})

		// A walk step may exhaust its retries mid-outage; such failures must
		// be typed, and re-walking must converge: every attempt (even a
		// rejected one) advances the schedule clock toward the scripted
		// reconnect, so the round bound is generous, not load-bearing.
		var root *gnode
		for round := 0; ; round++ {
			root, err = objmodel.Deref[*gnode](cref)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrUnavailable) {
				t.Logf("seed %d: root demand failed untyped: %v", seed, err)
				return false
			}
			if round > 100 {
				t.Logf("seed %d: root demand never recovered: %v", seed, err)
				return false
			}
		}
		for round := 0; ; round++ {
			err = isomorphic(nodes[0], root)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrUnavailable) {
				t.Logf("seed %d: walk failed untyped: %v", seed, err)
				return false
			}
			if round > 200 {
				t.Logf("seed %d: walk never recovered: %v", seed, err)
				return false
			}
		}
		if client.heap.Len() != n {
			t.Logf("seed %d: heap %d want %d", seed, client.heap.Len(), n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrementalWalkEqualsTransitive: walking the same random graph
// with one-at-a-time faults ends in the same structure as a single
// transitive get.
func TestQuickIncrementalWalkEqualsTransitive(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizeRaw%12) + 2
		master, client := twoSites(t)
		nodes := buildRandomGraph(t, master, rng, n)
		desc, err := master.engine.ExportObject(nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		cref := client.engine.RefFromDescriptor(desc, GetSpec{Mode: Incremental, Batch: 1})
		root, err := objmodel.Deref[*gnode](cref)
		if err != nil {
			return false
		}
		// Drive every fault by BFS over the replica graph.
		if err := isomorphic(nodes[0], root); err != nil {
			t.Logf("isomorphism after incremental walk: %v", err)
			return false
		}
		if client.heap.Len() != n {
			t.Logf("heap %d want %d", client.heap.Len(), n)
			return false
		}
		// Every proxy-out created during the walk was reclaimed or served
		// from the heap; none leak.
		gc := client.engine.GC().Snapshot()
		if gc.LiveProxyOuts() != 0 {
			t.Logf("leaked proxy-outs: %d", gc.LiveProxyOuts())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// staleLimit is the property test's consistency policy: a put more than
// two versions behind the master is rejected, a fresher one is admitted.
// It also records every MasterUpdated notification it receives.
type staleLimit struct {
	acceptAll
	notified []string
}

func (p *staleLimit) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	if cur-base > 2 {
		return fmt.Errorf("stale put on %v: base %d, master at %d", oid, base, cur)
	}
	return nil
}

func (p *staleLimit) MasterUpdated(oid objmodel.OID, v uint64) {
	p.notified = append(p.notified, fmt.Sprintf("%v@%d", oid, v))
}

// TestQuickPutPathsEquivalent: the single-master put (applyPut) and the
// grouped one (PreparePut at the leader, ApplyReplicatedPut in replay, the
// hook after it — what site.Group.RoutePut does around the log) compose
// the same admit and install steps. One random sequence of fresh puts,
// retries, stale bases and policy rejections therefore leaves two engines
// with identical replies, master state, versions, exactly-once guards,
// notifications and put-applied event counts.
func TestQuickPutPathsEquivalent(t *testing.T) {
	type world struct {
		site    *testSite
		policy  *staleLimit
		applied int
	}
	newWorld := func(docs int) *world {
		w := &world{policy: &staleLimit{}}
		w.site = newTestSite(t, transport.NewMemNetwork(netsim.Loopback), "m", 7, WithPolicy(w.policy))
		buildChain(t, w.site, docs, 4)
		w.site.engine.AddEventObserver(func(ev Event) {
			if ev.Kind == EventPutApplied {
				w.applied++
			}
		})
		return w
	}
	single := func(e *Engine, req *PutRequest) (*PutReply, error) {
		return e.applyPut(telemetry.SpanContext{}, req)
	}
	grouped := func(e *Engine, req *PutRequest) (*PutReply, error) {
		reply, done, err := e.PreparePut(req)
		if err != nil || done {
			return reply, err
		}
		if reply, err = e.ApplyReplicatedPut(req); err == nil {
			e.NotifyMasterUpdated(objmodel.OID(req.OID), reply.NewVersion)
		}
		return reply, err
	}

	var retried, rejected int // across all sequences: the cases must occur
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const docs = 3
		a, b := newWorld(docs), newWorld(docs)
		entries := a.site.heap.Entries()
		last := make(map[objmodel.OID]*PutRequest)
		for op := 0; op < 40; op++ {
			entry := entries[rng.Intn(docs)]
			req := last[entry.OID]
			if req != nil && rng.Intn(4) == 0 {
				retried++ // the last request again, verbatim
			} else {
				state, err := objmodel.CaptureState(a.site.rt.Registry(), &doc{Name: fmt.Sprintf("edit-%d", op), Body: make([]byte, rng.Intn(16))})
				if err != nil {
					t.Fatal(err)
				}
				base := entry.Version()
				if behind := uint64(rng.Intn(5)); rng.Intn(3) == 0 && behind < base {
					base -= behind // stale: admitted up to two behind, rejected past that
				}
				req = &PutRequest{OID: uint64(entry.OID), BaseVersion: base, State: state}
				last[entry.OID] = req
			}
			ra, ea := single(a.site.engine, req)
			rb, eb := grouped(b.site.engine, req)
			if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
				t.Logf("op %d: errors differ: %v vs %v", op, ea, eb)
				return false
			}
			if ea != nil {
				rejected++
			} else if ra.NewVersion != rb.NewVersion {
				t.Logf("op %d: replies differ: %d vs %d", op, ra.NewVersion, rb.NewVersion)
				return false
			}
		}
		for _, ea := range entries {
			eb, ok := b.site.heap.Get(ea.OID)
			if !ok || ea.Version() != eb.Version() {
				t.Logf("%v: versions differ", ea.OID)
				return false
			}
			sa, _ := a.site.engine.captureEntry(ea)
			sb, _ := b.site.engine.captureEntry(eb)
			if string(sa) != string(sb) {
				t.Logf("%v: state differs", ea.OID)
				return false
			}
		}
		if !reflect.DeepEqual(a.site.engine.appliedPuts, b.site.engine.appliedPuts) {
			t.Logf("guards differ: %v vs %v", a.site.engine.appliedPuts, b.site.engine.appliedPuts)
			return false
		}
		if a.applied != b.applied || a.applied == 0 || !reflect.DeepEqual(a.policy.notified, b.policy.notified) {
			t.Logf("put-applied events %d vs %d, notifications %v vs %v", a.applied, b.applied, a.policy.notified, b.policy.notified)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
	if retried == 0 || rejected == 0 {
		t.Fatalf("sequences held %d retries and %d rejections; both must occur", retried, rejected)
	}
}
