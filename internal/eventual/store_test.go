package eventual

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// note is the tracked test object: an append-only text plus a capped
// counter, enough to observe ordering, rollback, and declines.
type note struct {
	Text  string
	Total int64
}

// Sum satisfies objmodel's exported-method requirement.
func (n *note) Sum() int64 { return n.Total }

func init() {
	objmodel.MustRegisterType("eventual_test.note", (*note)(nil))
	// Append args as a segment: the final Text spells out apply order.
	MustRegisterUpdate("evtest.append", func(obj any, args []byte) error {
		n := obj.(*note)
		n.Text += string(args) + "|"
		return nil
	})
	// Add args[0] but decline (deterministically) past 100.
	MustRegisterUpdate("evtest.add", func(obj any, args []byte) error {
		n := obj.(*note)
		v := int64(args[0])
		if n.Total+v > 100 {
			return errors.New("over cap")
		}
		n.Total += v
		return nil
	})
}

// evsite is one simulated site at the store level: heap + engine + store,
// no network (sync tests exchange batches by direct call).
type evsite struct {
	id  uint16
	eng *replication.Engine
	st  *Store
	obj *note
}

// newEvSites builds n sites tracking one shared note. Site 1 masters it
// (the primary); the rest hold replicas created from the identical zero
// state.
func newEvSites(t *testing.T, n int) []*evsite {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	sites := make([]*evsite, n)
	var oid objmodel.OID
	for i := range sites {
		id := uint16(i + 1)
		rt, err := rmi.NewRuntime(net, transport.Addr(fmt.Sprintf("ev%d", id)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		h := heap.New(id)
		eng := replication.NewEngine(rt, h)
		s := &evsite{id: id, eng: eng, st: NewStore(fmt.Sprintf("ev%d", id), eng, nil), obj: &note{}}
		if i == 0 {
			entry, err := eng.RegisterMaster(s.obj)
			if err != nil {
				t.Fatal(err)
			}
			oid = entry.OID
		} else {
			h.AddReplica(s.obj, oid, "eventual_test.note", 1)
		}
		if err := s.st.Track(s.obj); err != nil {
			t.Fatal(err)
		}
		sites[i] = s
	}
	return sites
}

func (s *evsite) oid() objmodel.OID { return s.st.Tracked()[0] }

// syncPair runs one full anti-entropy session a↔b, mirroring
// Site.AntiEntropy: a pulls b's summary, ships what b is missing, applies
// b's return batch.
func syncPair(t *testing.T, a, b *evsite) {
	t.Helper()
	req := &SyncRequest{
		From:    a.st.name,
		Summary: *a.st.Summary(),
		Batch:   *a.st.BuildBatch(b.st.Summary()),
	}
	reply, err := b.st.HandleSync(req)
	if err != nil {
		t.Fatalf("handle sync: %v", err)
	}
	if _, err := a.st.ApplyBatch(reply.From, &reply.Batch); err != nil {
		t.Fatalf("apply reply: %v", err)
	}
	a.st.RecordPeerFrontiers(b.st.name, reply.Frontiers)
}

func TestAppendPrimaryCommitsImmediately(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]

	id, err := p.st.Append(p.obj, "evtest.append", []byte("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if id.IsZero() {
		t.Fatal("zero update id")
	}
	if got := p.st.TentativeCount(p.oid()); got != 0 {
		t.Fatalf("primary tentative = %d, want 0 (commit-on-receipt)", got)
	}
	if _, frontier, _ := p.st.CommittedState(p.oid()); frontier != 1 {
		t.Fatalf("primary frontier = %d, want 1", frontier)
	}
	if p.obj.Text != "a1|" {
		t.Fatalf("primary text = %q", p.obj.Text)
	}

	if _, err := r.st.Append(r.obj, "evtest.append", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	if got := r.st.TentativeCount(r.oid()); got != 1 {
		t.Fatalf("replica tentative = %d, want 1", got)
	}
	if _, frontier, _ := r.st.CommittedState(r.oid()); frontier != 0 {
		t.Fatalf("replica frontier = %d, want 0", frontier)
	}
	if r.obj.Text != "b1|" {
		t.Fatalf("replica text = %q (tentative application)", r.obj.Text)
	}
}

func TestAppendUntrackedAndUnknownFn(t *testing.T) {
	sites := newEvSites(t, 1)
	p := sites[0]
	other := &note{}
	if _, err := p.eng.RegisterMaster(other); err != nil {
		t.Fatal(err)
	}
	if _, err := p.st.Append(other, "evtest.append", nil); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("untracked append err = %v, want ErrNotTracked", err)
	}
	if _, err := p.st.Append(p.obj, "evtest.nosuch", nil); !errors.Is(err, ErrUnknownUpdateFunc) {
		t.Fatalf("unknown fn err = %v, want ErrUnknownUpdateFunc", err)
	}
}

func TestRollbackReplayOnSync(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]

	// Disconnected concurrent edits: replica first (clock 1), primary after
	// (clock 1 too — same clock, lower site id, so p's sorts first).
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.st.Append(p.obj, "evtest.append", []byte("p1")); err != nil {
		t.Fatal(err)
	}

	// Session r↔p: r ships r1, the primary commits it after p1; the reply
	// carries p1 plus both commit positions, forcing r to roll back.
	syncPair(t, r, p)

	if p.obj.Text != "p1|r1|" {
		t.Fatalf("primary text = %q, want p1|r1|", p.obj.Text)
	}
	if r.obj.Text != "p1|r1|" {
		t.Fatalf("replica text = %q, want p1|r1| after rollback/replay", r.obj.Text)
	}
	if got := r.st.Stats().Rollbacks; got == 0 {
		t.Fatal("replica recorded no rollback")
	}
	ps, pf, _ := p.st.CommittedState(p.oid())
	rs, rf, _ := r.st.CommittedState(r.oid())
	if pf != 2 || rf != 2 {
		t.Fatalf("frontiers = %d/%d, want 2/2", pf, rf)
	}
	if !bytes.Equal(ps, rs) {
		t.Fatal("committed states differ")
	}
}

func TestCommittedPrefixStable(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]

	if _, err := p.st.Append(p.obj, "evtest.append", []byte("p1")); err != nil {
		t.Fatal(err)
	}
	syncPair(t, r, p)
	firstState, firstFrontier, _ := r.st.CommittedState(r.oid())

	// Later activity must only extend the committed prefix, never rewrite
	// the part below the old frontier.
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	syncPair(t, r, p)
	_, f2, _ := r.st.CommittedState(r.oid())
	if f2 <= firstFrontier {
		t.Fatalf("frontier did not advance: %d -> %d", firstFrontier, f2)
	}
	_ = firstState
	if r.obj.Text != "p1|r1|" {
		t.Fatalf("text = %q, want p1|r1| (old prefix intact)", r.obj.Text)
	}
}

func TestDeterministicDeclineCountsNoOp(t *testing.T) {
	sites := newEvSites(t, 1)
	p := sites[0]
	if _, err := p.st.Append(p.obj, "evtest.add", []byte{90}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.st.Append(p.obj, "evtest.add", []byte{20}); err != nil {
		t.Fatal(err)
	}
	if p.obj.Total != 90 {
		t.Fatalf("total = %d, want 90 (second add declined)", p.obj.Total)
	}
	if got := p.st.Stats().NoOps; got != 1 {
		t.Fatalf("noops = %d, want 1", got)
	}
}

func TestCommitGapRejected(t *testing.T) {
	sites := newEvSites(t, 2)
	r := sites[1]
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	// A commit record skipping CSN 1 must be rejected atomically.
	id := UpdateID{Clock: 1, Site: r.id}
	_, err := r.st.ApplyBatch("bogus", &Batch{
		Commits: []CommitRec{{OID: uint64(r.oid()), Clock: id.Clock, Site: uint64(id.Site), CSN: 2}},
	})
	if !errors.Is(err, ErrCommitGap) {
		t.Fatalf("err = %v, want ErrCommitGap", err)
	}
	if _, frontier, _ := r.st.CommittedState(r.oid()); frontier != 0 {
		t.Fatalf("frontier mutated to %d by rejected batch", frontier)
	}
}

func TestCorruptBatchFailsClosed(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	batch := r.st.BuildBatch(p.st.Summary())
	if len(batch.Updates) != 1 {
		t.Fatalf("batch ships %d updates, want 1", len(batch.Updates))
	}
	batch.Updates[0][len(batch.Updates[0])-1] ^= 0xFF // flip a CRC byte
	_, err := p.st.ApplyBatch(r.st.name, batch)
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", err)
	}
	if _, frontier, _ := p.st.CommittedState(p.oid()); frontier != 0 {
		t.Fatal("corrupt batch mutated state")
	}
}

// converge runs seeded random pairwise sessions until every pair is
// mutually quiescent, then asserts byte-identical committed state.
func converge(t *testing.T, sites []*evsite, rng *rand.Rand) []byte {
	t.Helper()
	for round := 0; round < 20*len(sites); round++ {
		order := rng.Perm(len(sites))
		for _, i := range order {
			j := rng.Intn(len(sites))
			if i == j {
				continue
			}
			syncPair(t, sites[i], sites[j])
		}
		if allConverged(sites) {
			break
		}
	}
	base, bf, err := sites[0].st.CommittedState(sites[0].oid())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites[1:] {
		st, f, err := s.st.CommittedState(s.oid())
		if err != nil {
			t.Fatal(err)
		}
		if f != bf {
			t.Fatalf("site %d frontier %d != %d", s.id, f, bf)
		}
		if !bytes.Equal(st, base) {
			t.Fatalf("site %d committed state diverged", s.id)
		}
		if n := s.st.TentativeCount(s.oid()); n != 0 {
			t.Fatalf("site %d still holds %d tentative updates", s.id, n)
		}
	}
	return base
}

func allConverged(sites []*evsite) bool {
	_, bf, _ := sites[0].st.CommittedState(sites[0].oid())
	if sites[0].st.TentativeCount(sites[0].oid()) != 0 {
		return false
	}
	for _, s := range sites[1:] {
		_, f, _ := s.st.CommittedState(s.oid())
		if f != bf || s.st.TentativeCount(s.oid()) != 0 {
			return false
		}
	}
	return true
}

func runSeededSwarm(t *testing.T, seed int64) ([]byte, string) {
	sites := newEvSites(t, 4)
	rng := rand.New(rand.NewSource(seed))
	// Everyone edits fully disconnected.
	for k := 0; k < 12; k++ {
		s := sites[rng.Intn(len(sites))]
		if _, err := s.st.Append(s.obj, "evtest.append", []byte(fmt.Sprintf("s%dk%d", s.id, k))); err != nil {
			t.Fatal(err)
		}
	}
	state := converge(t, sites, rng)
	return state, sites[0].obj.Text
}

func TestSeededPairwiseConvergenceDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		s1, t1 := runSeededSwarm(t, seed)
		s2, t2 := runSeededSwarm(t, seed)
		if !bytes.Equal(s1, s2) || t1 != t2 {
			t.Fatalf("seed %d: two runs diverged (%q vs %q)", seed, t1, t2)
		}
	}
}

func TestTruncationAndBaseSyncResync(t *testing.T) {
	sites := newEvSites(t, 3)
	p, r1, r2 := sites[0], sites[1], sites[2]

	for i := 0; i < 5; i++ {
		if _, err := p.st.Append(p.obj, "evtest.append", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// r1 catches up; r2 stays dark. Truncation only considers peers the
	// store has synced with, so p may drop records r2 never saw.
	syncPair(t, p, r1)
	dropped, err := p.st.TruncateCommitted()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 5 {
		t.Fatalf("dropped = %d, want 5", dropped)
	}
	if got := p.st.Stats().Truncated; got != 5 {
		t.Fatalf("truncated stat = %d, want 5", got)
	}

	// r2's frontier (0) is below p's floor (5): the session must fall back
	// to a full-state base sync and still converge.
	req := &SyncRequest{From: r2.st.name, Summary: *r2.st.Summary(), Batch: *r2.st.BuildBatch(p.st.Summary())}
	reply, err := p.st.HandleSync(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Batch.Bases) != 1 {
		t.Fatalf("reply ships %d bases, want 1", len(reply.Batch.Bases))
	}
	stats, err := r2.st.ApplyBatch(reply.From, &reply.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bases != 1 {
		t.Fatalf("applied %d bases, want 1", stats.Bases)
	}
	ps, pf, _ := p.st.CommittedState(p.oid())
	rs, rf, _ := r2.st.CommittedState(r2.oid())
	if pf != rf || !bytes.Equal(ps, rs) {
		t.Fatalf("base sync did not converge: frontiers %d/%d", pf, rf)
	}
	if r2.obj.Text != p.obj.Text {
		t.Fatalf("text %q != %q", r2.obj.Text, p.obj.Text)
	}
}

func TestBaseSyncDropsFoldedTentative(t *testing.T) {
	sites := newEvSites(t, 3)
	p, r1, r2 := sites[0], sites[1], sites[2]

	// r2 edits, syncs with p (its update commits), then p truncates below
	// the fleet frontier recorded from BOTH replicas.
	if _, err := r2.st.Append(r2.obj, "evtest.append", []byte("r2a")); err != nil {
		t.Fatal(err)
	}
	syncPair(t, r2, p)
	syncPair(t, r1, p)
	if _, err := p.st.TruncateCommitted(); err != nil {
		t.Fatal(err)
	}

	// A *stale* r2 (simulated: fresh store with the old tentative update)
	// would now receive a base that already folds r2a in; the Hist vector
	// must drop the local copy instead of double-applying it. The live r2
	// exercises the same path when it re-syncs: its retained copy is below
	// the base's hist, so nothing replays twice.
	syncPair(t, r2, p)
	if got := p.obj.Text; got != "r2a|" {
		t.Fatalf("primary text = %q, want r2a|", got)
	}
	if got := r2.obj.Text; got != "r2a|" {
		t.Fatalf("replica text = %q, want r2a| (no double apply)", got)
	}
}

// memJournal collects journal records in order.
type memJournal struct {
	recs []JournalRecord
}

func (m *memJournal) AppendEventual(rec JournalRecord) error {
	p := append([]byte(nil), rec.Payload...)
	m.recs = append(m.recs, JournalRecord{Kind: rec.Kind, Payload: p})
	return nil
}

func TestJournalRecoverRoundTrip(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]
	j := &memJournal{}
	r.st.SetJournal(j)
	if err := r.st.Track(r.obj); err != nil { // no-op, already tracked
		t.Fatal(err)
	}
	// The base record predates SetJournal (Track ran in the fixture), so
	// seed it the way recovery sees it: from a snapshot.
	pre := r.st.SnapshotRecords()

	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r1")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.st.Append(p.obj, "evtest.append", []byte("p1")); err != nil {
		t.Fatal(err)
	}
	syncPair(t, r, p)
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r2")); err != nil {
		t.Fatal(err)
	}

	// Rebuild a fresh site from base snapshot + journaled suffix.
	net := transport.NewMemNetwork(netsim.Loopback)
	rt, err := rmi.NewRuntime(net, "ev-reborn")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	eng := replication.NewEngine(rt, heap.New(r.id))
	st2 := NewStore("ev2-reborn", eng, nil)
	if err := st2.Recover(append(pre, j.recs...)); err != nil {
		t.Fatal(err)
	}

	wantState, wantFrontier, _ := r.st.CommittedState(r.oid())
	gotState, gotFrontier, err := st2.CommittedState(r.oid())
	if err != nil {
		t.Fatal(err)
	}
	if gotFrontier != wantFrontier || !bytes.Equal(gotState, wantState) {
		t.Fatalf("recovered frontier %d != %d or state differs", gotFrontier, wantFrontier)
	}
	if got, want := st2.TentativeCount(r.oid()), r.st.TentativeCount(r.oid()); got != want {
		t.Fatalf("recovered tentative = %d, want %d", got, want)
	}
	// The recovered clock must not regress: a fresh append must sort after
	// everything recovered.
	entry, _ := eng.Heap().Get(r.oid())
	id, err := st2.Append(entry.Obj, "evtest.append", []byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	vv := map[uint16]uint64{}
	for _, pair := range r.st.VersionVector() {
		vv[uint16(pair.Site)] = pair.Clock
	}
	if id.Clock <= vv[r.id] {
		t.Fatalf("recovered clock regressed: new id %v vs old vv %d", id, vv[r.id])
	}
}

func TestSnapshotRecordsRecoverEquivalence(t *testing.T) {
	sites := newEvSites(t, 2)
	p, r := sites[0], sites[1]
	for i := 0; i < 3; i++ {
		if _, err := p.st.Append(p.obj, "evtest.append", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.st.Append(r.obj, "evtest.append", []byte("r0")); err != nil {
		t.Fatal(err)
	}
	syncPair(t, r, p)

	snap := r.st.SnapshotRecords()
	net := transport.NewMemNetwork(netsim.Loopback)
	rt, err := rmi.NewRuntime(net, "ev-snap")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	eng := replication.NewEngine(rt, heap.New(r.id))
	st2 := NewStore("ev-snap", eng, nil)
	// Replaying the snapshot TWICE must be idempotent (compaction crash
	// window: snapshot + stale log suffix).
	if err := st2.Recover(append(snap, snap...)); err != nil {
		t.Fatal(err)
	}
	wantState, wantFrontier, _ := r.st.CommittedState(r.oid())
	gotState, gotFrontier, err := st2.CommittedState(r.oid())
	if err != nil {
		t.Fatal(err)
	}
	if gotFrontier != wantFrontier || !bytes.Equal(gotState, wantState) {
		t.Fatal("snapshot recovery diverged from live store")
	}
	entry, _ := eng.Heap().Get(r.oid())
	if entry.Obj.(*note).Text != r.obj.Text {
		t.Fatalf("recovered text %q != live %q", entry.Obj.(*note).Text, r.obj.Text)
	}
}

// TestBaseSyncLiveAndRecoveredAgree: a base re-anchor is one routine, so a
// store re-anchored by a live BaseSync (with one tentative update the base
// folds in and one that survives it) and a fresh store recovering the
// same history from the journal end up with the same committed state,
// floor, frontier, version vector, tentative list and live object.
func TestBaseSyncLiveAndRecoveredAgree(t *testing.T) {
	sites := newEvSites(t, 3)
	p, r1, r2 := sites[0], sites[1], sites[2]
	j := &memJournal{}
	r2.st.SetJournal(j)
	pre := r2.st.SnapshotRecords() // Track's base record predates SetJournal

	for i := 0; i < 5; i++ {
		if _, err := p.st.Append(p.obj, "evtest.append", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	syncPair(t, p, r1)
	if _, err := p.st.TruncateCommitted(); err != nil { // r2 now lies below p's floor
		t.Fatal(err)
	}
	if _, err := r2.st.Append(r2.obj, "evtest.append", []byte("folded")); err != nil {
		t.Fatal(err)
	}
	req := &SyncRequest{From: r2.st.name, Summary: *r2.st.Summary(), Batch: *r2.st.BuildBatch(p.st.Summary())}
	reply, err := p.st.HandleSync(req) // p commits "folded"; its base carries it
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.st.Append(r2.obj, "evtest.append", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if stats, err := r2.st.ApplyBatch(reply.From, &reply.Batch); err != nil || stats.Bases != 1 {
		t.Fatalf("live base sync: %+v, %v", stats, err)
	}

	rt, err := rmi.NewRuntime(transport.NewMemNetwork(netsim.Loopback), "ev-reborn")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	eng := replication.NewEngine(rt, heap.New(r2.id))
	reborn := NewStore("ev-reborn", eng, nil)
	if err := reborn.Recover(append(pre, j.recs...)); err != nil {
		t.Fatal(err)
	}

	oid := r2.oid()
	live, rec := r2.st.objs[oid], reborn.objs[oid]
	if live.floor != rec.floor || live.frontier != rec.frontier || live.frontier != 6 || !bytes.Equal(live.committedState, rec.committedState) {
		t.Fatalf("live floor/frontier %d/%d, recovered %d/%d (want frontier 6), committed state equal: %v",
			live.floor, live.frontier, rec.floor, rec.frontier, bytes.Equal(live.committedState, rec.committedState))
	}
	if !reflect.DeepEqual(r2.st.VersionVector(), reborn.VersionVector()) {
		t.Fatalf("version vectors: live %v, recovered %v", r2.st.VersionVector(), reborn.VersionVector())
	}
	ids := func(us []*Update) (out []UpdateID) {
		for _, u := range us {
			out = append(out, u.ID)
		}
		return out
	}
	if got, want := ids(rec.tentative), ids(live.tentative); len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("tentative lists: live %v, recovered %v (want the one surviving update)", want, got)
	}
	entry, _ := eng.Heap().Get(oid)
	if got := entry.Obj.(*note).Text; got != r2.obj.Text || !strings.HasSuffix(got, "folded|survives|") {
		t.Fatalf("live object %q, recovered %q", r2.obj.Text, got)
	}
}
