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
		return e.applyPut(telemetry.SpanContext{}, time.Time{}, req, true)
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
			sa, _, _ := a.site.engine.captureEntry(ea, nil)
			sb, _, _ := b.site.engine.captureEntry(eb, nil)
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

// journalTape records the journal calls of one engine, in order.
type journalTape struct{ lines []string }

func (j *journalTape) MasterChanged(rec JournalMaster) error {
	j.lines = append(j.lines, fmt.Sprintf("master %d v%d", rec.OID, rec.Version))
	return nil
}

func (j *journalTape) ReplicaDirtied(rec JournalReplica) error {
	j.lines = append(j.lines, fmt.Sprintf("dirty %d v%d %x", rec.OID, rec.Version, rec.State))
	return nil
}

func (j *journalTape) ReplicaCleaned(oid objmodel.OID, v uint64) error {
	j.lines = append(j.lines, fmt.Sprintf("clean %d v%d", uint64(oid), v))
	return nil
}

func (j *journalTape) ProxyInExported(oid objmodel.OID, id uint64) error {
	j.lines = append(j.lines, fmt.Sprintf("proxy-in %d at %d", uint64(oid), id))
	return nil
}

// TestQuickInstallPathsEquivalent: an image of a replica already held
// arrives three ways — inside the payload of a demand for a neighbour, as
// the payload of a refresh, and as a pushed update — and all three are
// installReplica followed by bindEntry. The same master state, random in
// content, version and in whether a local edit is overwritten, therefore
// leaves the replica with identical state bytes, version, dirty flag,
// lease stamp renewal, provider, outgoing reference and journal records.
func TestQuickInstallPathsEquivalent(t *testing.T) {
	type world struct {
		master, client *testSite
		docs           []*doc // head → mid → tail at the master
		mid            *doc   // the client's replica under test
		entry          *heap.Entry
		tape           *journalTape
	}
	newWorld := func() *world {
		w := &world{tape: &journalTape{}}
		w.master, w.client = twoSites(t)
		w.docs = buildChain(t, w.master, 3, 4)
		// The client holds mid on its own (one object, its own proxy pair)
		// and not its neighbours.
		obj, err := exportHead(t, w.master, w.client, w.docs[1], DefaultSpec).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		w.mid = obj.(*doc)
		w.entry, _ = w.client.heap.EntryOf(w.mid)
		w.client.engine.SetJournal(w.tape)
		return w
	}
	paths := map[string]func(w *world) error{
		"demand": func(w *world) error {
			_, err := exportHead(t, w.master, w.client, w.docs[0], GetSpec{Mode: Incremental, Batch: 2}).Resolve()
			return err
		},
		"refresh": func(w *world) error {
			return w.client.engine.Refresh(telemetry.SpanContext{}, w.mid)
		},
		"push": func(w *world) error { // what dissemination.Applier.Apply does with an Update
			me, _ := w.master.heap.EntryOf(w.docs[1])
			state, err := w.master.engine.CaptureSnapshot(w.docs[1])
			if err != nil {
				return err
			}
			frontier, err := w.master.engine.BuildFrontier(w.docs[1])
			if err != nil {
				return err
			}
			return w.client.engine.InstallPushed(w.entry, &ObjectRecord{
				OID: uint64(me.OID), TypeName: me.TypeName, Version: me.Version(), State: state,
			}, frontier)
		},
	}

	overwrote := 0 // across all cases: a dirty replica must occur
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		body := make([]byte, rng.Intn(32))
		rng.Read(body)
		updates, dirty := 1+rng.Intn(3), rng.Intn(2) == 0
		if dirty {
			overwrote++
		}
		var want []string
		for name, install := range paths {
			w := newWorld()
			if dirty {
				w.mid.Body = []byte("local edit")
				if err := w.client.engine.MarkUpdated(w.mid); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < updates; i++ {
				w.docs[1].Name, w.docs[1].Body = fmt.Sprintf("rev-%d", i), body
				if err := w.master.engine.MarkUpdated(w.docs[1]); err != nil {
					t.Fatal(err)
				}
			}
			provider, fetched := w.entry.Provider(), w.entry.FetchedAt()
			if err := install(w); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			state, _, _ := w.client.engine.captureEntry(w.entry, nil)
			tail, _ := w.master.heap.EntryOf(w.docs[2])
			got := []string{
				fmt.Sprintf("state %x v%d dirty=%v", state, w.entry.Version(), w.entry.Dirty()),
				fmt.Sprintf("pinned=%v renewed=%v", w.entry.Provider() == provider, w.entry.FetchedAt().After(fetched)),
				fmt.Sprintf("next=%v resolved=%v", w.mid.Next.OID() == tail.OID, w.mid.Next.IsResolved()),
			}
			got = append(got, w.tape.lines...)
			if w.entry.Version() != uint64(1+updates) || w.entry.Dirty() || string(w.mid.Body) != string(body) {
				t.Logf("%s: replica not at the master's state: %v", name, got)
				return false
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Logf("%s differs:\n got %v\nwant %v", name, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
	if overwrote == 0 {
		t.Fatal("no case overwrote a local edit")
	}
}
