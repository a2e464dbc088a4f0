package site

import (
	"errors"
	"testing"

	"obiwan/internal/consistency"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
)

func TestSiteDisseminationPush(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}

	pub := server.EnableDissemination()
	if again := server.EnableDissemination(); again != pub {
		t.Fatal("EnableDissemination must be idempotent")
	}
	pub.Subscribe("mobile")

	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	if replica.Text != "v2" {
		t.Fatalf("pushed replica: %q", replica.Text)
	}
	e, _ := mobile.Heap().EntryOf(replica)
	if e.Version() != 2 {
		t.Fatalf("replica version: %d", e.Version())
	}
}

func TestSiteDisseminationOfflineCatchUp(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	pub := server.EnableDissemination()
	pub.Subscribe("mobile")

	w.net.PartitionHost("mobile")
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	if replica.Text != "v1" {
		t.Fatal("partitioned replica must not update")
	}
	if pub.Lag("mobile") != 1 {
		t.Fatalf("lag: %d", pub.Lag("mobile"))
	}
	w.net.HealHost("mobile")
	if got := pub.Flush(); got != 1 {
		t.Fatalf("flush: %d", got)
	}
	if replica.Text != "v2" {
		t.Fatalf("after catch-up: %q", replica.Text)
	}
}

func TestSiteDisseminationComposesWithPolicyAndInvalidation(t *testing.T) {
	w := newWorld(t)
	server := w.site("server",
		WithPolicy(consistency.FirstWriterWins{}),
		WithInvalidation())
	alice := w.site("alice")
	bob := w.site("bob")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	pub := server.EnableDissemination()
	pub.Subscribe("alice")

	refA, err := alice.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := objmodel.Deref[*note](refA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := bob.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := objmodel.Deref[*note](refB)
	if err != nil {
		t.Fatal(err)
	}

	// Alice's put wins; it is disseminated to her (no-op: she is the
	// writer and already current) — and bob, who is not subscribed, gets
	// an invalidation instead.
	a.Write("alice v2")
	if err := alice.Put(a); err != nil {
		t.Fatal(err)
	}
	be, _ := bob.Heap().EntryOf(b)
	if _, stale := bob.StaleSet().IsStale(be.OID); !stale {
		t.Fatal("bob should be invalidated")
	}

	// Bob's stale put is still rejected: the base policy survived the
	// layering.
	b.Write("bob clobbering")
	err = bob.Put(b)
	var re *rmi.RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("stale put must be rejected through the policy chain: %v", err)
	}
	if master.Text != "alice v2" {
		t.Fatalf("master: %q", master.Text)
	}
}

// TestDurablePushedUpdateRetractsDirtyRecord: a pushed update that lands
// on a dirty replica installs exactly as a refresh does. The overwritten
// edit's journal record is retracted (so a crash does not resurrect it for
// SyncDirty to put over the master's newer state), the lease stamp is
// renewed, and the staleness mark the invalidation left is cleared.
func TestDurablePushedUpdateRetractsDirtyRecord(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithInvalidation())
	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	server.EnableDissemination().Subscribe("mobile")

	dir := t.TempDir()
	mobile := w.site("mobile", WithDurability(dir))
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := mobile.Heap().EntryOf(replica)
	fetched := entry.FetchedAt()

	replica.Text = "local edit the push overwrites"
	if err := mobile.MarkUpdated(replica); err != nil {
		t.Fatal(err)
	}
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	if replica.Text != "v2" || entry.Dirty() {
		t.Fatalf("pushed replica: text %q dirty %v", replica.Text, entry.Dirty())
	}
	if !entry.FetchedAt().After(fetched) {
		t.Fatal("a pushed update must renew the lease stamp")
	}
	if v, stale := mobile.StaleSet().IsStale(entry.OID); stale {
		t.Fatalf("replica still marked stale at v%d after the push delivered v%d", v, entry.Version())
	}
	if n, err := mobile.RefreshStale(); n != 0 || err != nil {
		t.Fatalf("RefreshStale re-fetched %d replicas the push had made fresh (err %v)", n, err)
	}

	mobile.Kill()
	reborn := w.site("mobile", WithDurability(dir))
	if dirty := reborn.DirtyReplicas(); len(dirty) != 0 {
		t.Fatalf("reborn subscriber holds %d dirty replicas (text %q): the overwritten edit came back",
			len(dirty), dirty[0].(*note).Text)
	}
}
