package site

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// countingPolicy accepts every put and counts the hooks it hears.
type countingPolicy struct {
	created, updated atomic.Int32
}

func (*countingPolicy) ApplyPut(objmodel.OID, uint64, uint64) error { return nil }

func (p *countingPolicy) ReplicaCreated(objmodel.OID, string, uint64) { p.created.Add(1) }

func (p *countingPolicy) MasterUpdated(objmodel.OID, uint64) { p.updated.Add(1) }

// TestUserPolicyHearsEveryHook: a WithPolicy policy is one member of the
// site's chain, so it hears one ReplicaCreated per fetch and one
// MasterUpdated per update whichever other options the site runs, and the
// members after it (invalidation, the publisher) are notified once each.
func TestUserPolicyHearsEveryHook(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opts        []Option
		disseminate bool
		served      uint64 // calls the replica holder serves for the update
	}{
		{name: "plain"},
		{name: "invalidation", opts: []Option{WithInvalidation()}, served: 1},
		{name: "eventual", opts: []Option{WithEventual()}},
		{name: "invalidation+dissemination", opts: []Option{WithInvalidation()}, disseminate: true, served: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			user := &countingPolicy{}
			server := w.site("server", append([]Option{WithPolicy(user)}, tc.opts...)...)
			mobile := w.site("mobile")
			var mu sync.Mutex
			var ledger []int // the stale ledger's size after each change
			mobile.StaleSet().SetObserver(func(n int) {
				mu.Lock()
				defer mu.Unlock()
				ledger = append(ledger, n)
			})

			master := &note{Text: "v1"}
			if err := server.Bind("doc", master); err != nil {
				t.Fatal(err)
			}
			if tc.disseminate {
				server.EnableDissemination().Subscribe("mobile")
			}
			ref, err := mobile.Lookup("doc")
			if err != nil {
				t.Fatal(err)
			}
			replica, err := objmodel.Deref[*note](ref)
			if err != nil {
				t.Fatal(err)
			}
			before := mobile.Runtime().Stats().CallsServed
			master.Write("v2")
			if err := server.MarkUpdated(master); err != nil {
				t.Fatal(err)
			}

			if c, u := user.created.Load(), user.updated.Load(); c != 1 || u != 1 {
				t.Fatalf("user policy heard %d ReplicaCreated and %d MasterUpdated, want 1 and 1", c, u)
			}
			if got := mobile.Runtime().Stats().CallsServed - before; got != tc.served {
				t.Fatalf("replica holder served %d calls for the update, want %d", got, tc.served)
			}
			mu.Lock()
			got := fmt.Sprint(ledger)
			mu.Unlock()
			want := "[]"
			switch {
			case tc.disseminate:
				want = "[1 0]" // invalidated once, then cleared by the one push
				if replica.Text != "v2" {
					t.Fatalf("subscriber replica %q after the push, want v2", replica.Text)
				}
			case tc.served > 0:
				want = "[1]"
			}
			if got != want {
				t.Fatalf("holder's stale ledger went through sizes %s, want %s", got, want)
			}
		})
	}
}

// TestEnableDisseminationWhilePutsStream: enabling dissemination hands the
// engine a new chain instead of rewriting a member another goroutine is
// reading, so a master may start publishing while puts arrive (the race
// detector watches the handover).
func TestEnableDisseminationWhilePutsStream(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithInvalidation())
	client := w.site("client")
	watcher := w.site("watcher")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	replicaOf := func(s *Site) *note {
		t.Helper()
		ref, err := s.Lookup("doc")
		if err != nil {
			t.Fatal(err)
		}
		n, err := objmodel.Deref[*note](ref)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mine, watched := replicaOf(client), replicaOf(watcher)

	const puts = 100
	streaming := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= puts; i++ {
			if i == puts/4 {
				close(streaming)
			}
			mine.Write(fmt.Sprintf("edit %d", i))
			if err := client.Put(mine); err != nil {
				done <- err
				return
			}
			if err := client.Refresh(mine); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	<-streaming
	server.EnableDissemination().Subscribe("watcher")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	last := fmt.Sprintf("edit %d", puts)
	if mine.Text != last {
		t.Fatalf("client replica %q, want %q", mine.Text, last)
	}
	if watched.Text != last {
		t.Fatalf("subscribed watcher holds %q, want the pushed %q", watched.Text, last)
	}
}
