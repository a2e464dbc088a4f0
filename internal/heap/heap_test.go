package heap

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/rmi"
)

type item struct {
	N    int
	Kids []*objmodel.Ref
}

func (i *item) Value() int { return i.N }

func init() {
	objmodel.MustRegisterType("heap_test.item", (*item)(nil))
}

func TestAddMasterMintsDistinctOIDs(t *testing.T) {
	h := New(7)
	seen := map[objmodel.OID]bool{}
	for i := 0; i < 100; i++ {
		e, err := h.AddMaster(&item{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.OID] {
			t.Fatalf("duplicate OID %v", e.OID)
		}
		seen[e.OID] = true
		if uint64(e.OID)>>48 != 7 {
			t.Fatalf("OID %v missing site prefix", e.OID)
		}
		if e.Version() != 1 || e.Role != Master {
			t.Fatalf("entry: %+v", e)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("len: %d", h.Len())
	}
}

func TestAddMasterIdempotentPerObject(t *testing.T) {
	h := New(1)
	o := &item{}
	e1, err := h.AddMaster(o)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.AddMaster(o)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("same object must map to one entry")
	}
}

func TestAddMasterRejectsUnregistered(t *testing.T) {
	h := New(1)
	type stranger struct{ X int }
	if _, err := h.AddMaster(&stranger{}); err == nil {
		t.Fatal("unregistered type must be rejected")
	}
}

func TestAddReplicaDedupe(t *testing.T) {
	h := New(1)
	oid := objmodel.OID(uint64(9)<<48 | 5)
	r1 := &item{N: 1}
	e1, fresh := h.AddReplica(r1, oid, "heap_test.item", 3)
	if !fresh || e1.Obj != r1 || e1.Version() != 3 || e1.Role != Replica {
		t.Fatalf("first add: fresh=%v %+v", fresh, e1)
	}
	r2 := &item{N: 2}
	e2, fresh := h.AddReplica(r2, oid, "heap_test.item", 4)
	if fresh || e2 != e1 {
		t.Fatal("second add must return the existing entry")
	}
	if got, ok := h.Get(oid); !ok || got != e1 {
		t.Fatal("Get lookup")
	}
	if got, ok := h.EntryOf(r1); !ok || got != e1 {
		t.Fatal("EntryOf lookup")
	}
	if _, ok := h.EntryOf(r2); ok {
		t.Fatal("losing object must not be indexed")
	}
}

func TestRemove(t *testing.T) {
	h := New(1)
	o := &item{}
	e, _ := h.AddMaster(o)
	h.Remove(e.OID)
	if _, ok := h.Get(e.OID); ok {
		t.Fatal("removed OID still present")
	}
	if _, ok := h.EntryOf(o); ok {
		t.Fatal("removed object still indexed")
	}
	h.Remove(e.OID) // idempotent
}

func TestEntryMetadata(t *testing.T) {
	h := New(1)
	e, _ := h.AddReplica(&item{}, 42, "heap_test.item", 1)
	prov := rmi.RemoteRef{Addr: "s2", ID: 3}
	e.SetProvider(prov, 0)
	if e.Provider() != prov || e.ClusterMember() || e.ClusterRoot() != 0 {
		t.Fatalf("provider: %+v", e)
	}
	e.SetProvider(prov, objmodel.OID(7))
	if !e.ClusterMember() || e.ClusterRoot() != 7 {
		t.Fatal("cluster membership")
	}
	if e.Dirty() {
		t.Fatal("fresh replica must be clean")
	}
	e.SetDirty(true)
	if !e.Dirty() {
		t.Fatal("dirty flag")
	}
	now := time.Now()
	e.Touch(now)
	if !e.FetchedAt().Equal(now) {
		t.Fatal("fetchedAt")
	}
	e.SetVersion(9)
	if e.Version() != 9 {
		t.Fatal("version")
	}
	if v := e.BumpVersion(); v != 10 {
		t.Fatalf("bump: %d", v)
	}
	if s := e.String(); s == "" {
		t.Fatal("empty string")
	}
}

// buildStar creates root → n children.
func buildStar(t *testing.T, h *Heap, n int) (*item, []*item) {
	t.Helper()
	root := &item{}
	if _, err := h.AddMaster(root); err != nil {
		t.Fatal(err)
	}
	kids := make([]*item, n)
	for i := range kids {
		kids[i] = &item{N: i}
		e, err := h.AddMaster(kids[i])
		if err != nil {
			t.Fatal(err)
		}
		root.Kids = append(root.Kids, objmodel.NewLocalRef(kids[i], e.OID))
	}
	return root, kids
}

// buildChain creates a linked chain of n items, head first.
func buildChain(t *testing.T, h *Heap, n int) []*item {
	t.Helper()
	items := make([]*item, n)
	for i := range items {
		items[i] = &item{N: i}
		if _, err := h.AddMaster(items[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		e, _ := h.EntryOf(items[i+1])
		items[i].Kids = []*objmodel.Ref{objmodel.NewLocalRef(items[i+1], e.OID)}
	}
	return items
}

func TestTraverseUnlimited(t *testing.T) {
	h := New(1)
	items := buildChain(t, h, 10)
	entries, err := h.Traverse(items[0], TraverseLimit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("visited %d", len(entries))
	}
	// BFS on a chain preserves order.
	for i, e := range entries {
		if e.Obj.(*item).N != i {
			t.Fatalf("order at %d: %d", i, e.Obj.(*item).N)
		}
	}
}

func TestTraverseMaxObjects(t *testing.T) {
	h := New(1)
	items := buildChain(t, h, 10)
	entries, err := h.Traverse(items[0], TraverseLimit{MaxObjects: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("visited %d, want 4", len(entries))
	}
}

func TestTraverseMaxDepth(t *testing.T) {
	h := New(1)
	root, _ := buildStar(t, h, 5)
	entries, err := h.Traverse(root, TraverseLimit{MaxDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 { // unlimited: root + 5 kids
		t.Fatalf("unlimited star: %d", len(entries))
	}
	// Depth 1 on a chain: head + 1.
	h2 := New(2)
	items := buildChain(t, h2, 10)
	entries, err = h2.Traverse(items[0], TraverseLimit{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("depth 1 chain: %d", len(entries))
	}
}

func TestTraverseSharedDiamond(t *testing.T) {
	// root → a, b; a → c; b → c. c must be visited once.
	h := New(1)
	c := &item{N: 3}
	ce, _ := h.AddMaster(c)
	a := &item{N: 1, Kids: []*objmodel.Ref{objmodel.NewLocalRef(c, ce.OID)}}
	b := &item{N: 2, Kids: []*objmodel.Ref{objmodel.NewLocalRef(c, ce.OID)}}
	ae, _ := h.AddMaster(a)
	be, _ := h.AddMaster(b)
	root := &item{Kids: []*objmodel.Ref{
		objmodel.NewLocalRef(a, ae.OID), objmodel.NewLocalRef(b, be.OID),
	}}
	if _, err := h.AddMaster(root); err != nil {
		t.Fatal(err)
	}
	entries, err := h.Traverse(root, TraverseLimit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("diamond visited %d, want 4", len(entries))
	}
}

func TestTraverseCycle(t *testing.T) {
	h := New(1)
	a := &item{N: 1}
	b := &item{N: 2}
	ae, _ := h.AddMaster(a)
	be, _ := h.AddMaster(b)
	a.Kids = []*objmodel.Ref{objmodel.NewLocalRef(b, be.OID)}
	b.Kids = []*objmodel.Ref{objmodel.NewLocalRef(a, ae.OID)}
	entries, err := h.Traverse(a, TraverseLimit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("cycle visited %d, want 2", len(entries))
	}
}

func TestTraverseSkipsUnresolvedRefs(t *testing.T) {
	h := New(1)
	a := &item{N: 1, Kids: []*objmodel.Ref{objmodel.NewFaultingRef(99, nil, nil)}}
	if _, err := h.AddMaster(a); err != nil {
		t.Fatal(err)
	}
	entries, err := h.Traverse(a, TraverseLimit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("visited %d, want 1 (proxied edges are frontier)", len(entries))
	}
}

func TestTraverseUnknownRoot(t *testing.T) {
	h := New(1)
	if _, err := h.Traverse(&item{}, TraverseLimit{}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err: %v", err)
	}
}

func TestRoleString(t *testing.T) {
	if Master.String() != "master" || Replica.String() != "replica" {
		t.Fatal("role strings")
	}
}

// Property: traversal with MaxObjects=k over an n-chain visits min(k, n)
// objects, in order.
func TestQuickTraverseBound(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw%50) + 1
		h := New(1)
		items := make([]*item, n)
		for i := range items {
			items[i] = &item{N: i}
			if _, err := h.AddMaster(items[i]); err != nil {
				return false
			}
		}
		for i := 0; i < n-1; i++ {
			e, _ := h.EntryOf(items[i+1])
			items[i].Kids = []*objmodel.Ref{objmodel.NewLocalRef(items[i+1], e.OID)}
		}
		entries, err := h.Traverse(items[0], TraverseLimit{MaxObjects: k})
		if err != nil {
			return false
		}
		want := n
		if k < n {
			want = k
		}
		if len(entries) != want {
			return false
		}
		for i, e := range entries {
			if e.Obj.(*item).N != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesSnapshot(t *testing.T) {
	h := New(1)
	for i := 0; i < 5; i++ {
		if _, err := h.AddMaster(&item{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.Entries()); got != 5 {
		t.Fatalf("entries: %d", got)
	}
	if h.SiteID() != 1 {
		t.Fatalf("site id: %d", h.SiteID())
	}
}

func TestOIDStringIsStable(t *testing.T) {
	h := New(3)
	e, _ := h.AddMaster(&item{})
	if want := fmt.Sprintf("3/%d", uint64(e.OID)&((1<<48)-1)); e.OID.String() != want {
		t.Fatalf("oid: %s want %s", e.OID, want)
	}
}

// folder reaches its children through a map only.
type folder struct {
	ByName map[string]*objmodel.Ref
}

func (f *folder) Len() int { return len(f.ByName) }

func init() {
	objmodel.MustRegisterType("heap_test.folder", (*folder)(nil))
}

// TestTraverseThroughMapRefsIsDeterministic: a traversal bounded below the
// reachable count picks the same objects on every run when they hang off a
// map, the ones under the smallest keys, as the codec orders a map.
func TestTraverseThroughMapRefsIsDeterministic(t *testing.T) {
	h := New(1)
	root := &folder{ByName: map[string]*objmodel.Ref{}}
	if _, err := h.AddMaster(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		kid := &item{N: i}
		e, err := h.AddMaster(kid)
		if err != nil {
			t.Fatal(err)
		}
		root.ByName[fmt.Sprintf("k%02d", i)] = objmodel.NewLocalRef(kid, e.OID)
	}
	for run := 0; run < 50; run++ {
		entries, err := h.Traverse(root, TraverseLimit{MaxObjects: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 5 {
			t.Fatalf("run %d visited %d, want 5", run, len(entries))
		}
		for i, e := range entries[1:] {
			if n := e.Obj.(*item).N; n != i {
				t.Fatalf("run %d: object %d is item %d, want %d", run, i+1, n, i)
			}
		}
	}
}

// TestTraverseAllocationsPinned: a bounded traversal allocates its output,
// which is also its queue, and a visited set sized by the bound: a 100-member
// cluster's walk allocates at most 4 objects (116 while the queue was a
// slice of its own, re-sliced and appended to), a one-object step exactly 1.
func TestTraverseAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	h := New(1)
	items := buildChain(t, h, 101)
	for _, c := range []struct{ max, limit int }{{100, 4}, {1, 1}} {
		var got []*Entry
		allocs := testing.AllocsPerRun(100, func() {
			got, _ = h.Traverse(items[0], TraverseLimit{MaxObjects: c.max})
		})
		if len(got) != c.max || allocs > float64(c.limit) {
			t.Errorf("MaxObjects %d: %d entries, %.0f allocations (pinned at %d)", c.max, len(got), allocs, c.limit)
		}
		t.Logf("MaxObjects %d: %.0f allocations", c.max, allocs)
	}
}

// TestTraverseBoundInBreadthOrder: the bound keeps the first objects in
// breadth-first order, also when one object's references overrun it.
func TestTraverseBoundInBreadthOrder(t *testing.T) {
	h := New(1)
	root, _ := buildStar(t, h, 5)
	for max := 1; max <= 6; max++ {
		entries, err := h.Traverse(root, TraverseLimit{MaxObjects: max, MaxDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != max || entries[0].Obj != root {
			t.Fatalf("MaxObjects %d: %d entries", max, len(entries))
		}
		for i, e := range entries[1:] {
			if e.Obj.(*item).N != i {
				t.Fatalf("MaxObjects %d: entry %d is kid %d", max, i+1, e.Obj.(*item).N)
			}
		}
	}
}

// TestTraverseHugeBoundSizesByWhatItFinds: MaxObjects arrives off the wire
// as a demand's Batch, so a bound of math.MaxInt walks a short chain to its
// end without sizing anything by the bound.
func TestTraverseHugeBoundSizesByWhatItFinds(t *testing.T) {
	h := New(1)
	items := buildChain(t, h, 5)
	for _, max := range []int{math.MaxInt, 1 << 40} {
		entries, err := h.Traverse(items[0], TraverseLimit{MaxObjects: max})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(items) || cap(entries) > traverseHint {
			t.Fatalf("MaxObjects %d: %d entries, capacity %d", max, len(entries), cap(entries))
		}
	}
}
