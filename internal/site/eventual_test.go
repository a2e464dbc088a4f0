package site

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"obiwan/internal/eventual"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

func init() {
	// The shared update function of the site-level tests: appends a segment
	// to the note's text, so the final text spells out the commit order.
	eventual.MustRegisterUpdate("sitetest.append", func(obj any, args []byte) error {
		n := obj.(*note)
		n.Text += string(args) + "|"
		return nil
	})
}

// evPair builds a server (primary) and mobile site, both WithEventual,
// with the mobile holding a tracked replica of the server's note.
func evPair(t *testing.T, w *world, extra ...Option) (*Site, *Site, *note, *note) {
	t.Helper()
	server := w.site("server", append([]Option{WithEventual()}, extra...)...)
	mobile := w.site("mobile", append([]Option{WithEventual()}, extra...)...)

	master := &note{}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	if err := server.Track(master); err != nil {
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
	if err := mobile.Track(replica); err != nil {
		t.Fatal(err)
	}
	return server, mobile, master, replica
}

func TestSiteAntiEntropyConverges(t *testing.T) {
	w := newWorld(t)
	server, mobile, master, replica := evPair(t, w)

	// Fully disconnected concurrent edits.
	w.net.Disconnect("server", "mobile")
	if _, err := server.Apply(master, "sitetest.append", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mobile.Apply(replica, "sitetest.append", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mobile.Apply(replica, "sitetest.append", []byte("m2")); err != nil {
		t.Fatal(err)
	}
	if got := mobile.Eventual().TentativeCount(mobile.Eventual().Tracked()[0]); got != 2 {
		t.Fatalf("mobile tentative = %d, want 2", got)
	}

	// Reconnect: one session ships m1,m2 up (the primary commits them) and
	// s1 plus all commit positions back down.
	w.net.Reconnect("server", "mobile")
	stats, err := mobile.AntiEntropy("server")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Updates == 0 {
		t.Fatalf("session absorbed nothing: %+v", stats)
	}

	oid := server.Eventual().Tracked()[0]
	ss, sf, err := server.Eventual().CommittedState(oid)
	if err != nil {
		t.Fatal(err)
	}
	ms, mf, err := mobile.Eventual().CommittedState(oid)
	if err != nil {
		t.Fatal(err)
	}
	if sf != 3 || mf != 3 {
		t.Fatalf("frontiers = %d/%d, want 3/3", sf, mf)
	}
	if !bytes.Equal(ss, ms) {
		t.Fatal("committed states differ after anti-entropy")
	}
	if master.Text != replica.Text {
		t.Fatalf("texts differ: %q vs %q", master.Text, replica.Text)
	}
}

func TestSiteWithoutEventualRejectsOps(t *testing.T) {
	w := newWorld(t)
	s := w.site("plain")
	n := &note{}
	if err := s.Register(n); err != nil {
		t.Fatal(err)
	}
	if err := s.Track(n); !errors.Is(err, ErrNoEventual) {
		t.Fatalf("Track err = %v, want ErrNoEventual", err)
	}
	if _, err := s.Apply(n, "sitetest.append", nil); !errors.Is(err, ErrNoEventual) {
		t.Fatalf("Apply err = %v, want ErrNoEventual", err)
	}
	if _, err := s.AntiEntropy("nowhere"); !errors.Is(err, ErrNoEventual) {
		t.Fatalf("AntiEntropy err = %v, want ErrNoEventual", err)
	}
	if s.Eventual() != nil {
		t.Fatal("plain site carries an eventual store")
	}
}

func TestTentativePolicyRejectsRawPut(t *testing.T) {
	w := newWorld(t)
	server, mobile, master, replica := evPair(t, w)
	_ = server

	// A raw state put against a log-managed object must be rejected by the
	// master's Tentative policy: it would fork from the committed prefix.
	replica.Write("raw overwrite")
	err := mobile.Put(replica)
	var re *rmi.RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("raw put on managed object: %v", err)
	}
	if master.Text != "" {
		t.Fatalf("rejected put mutated master: %q", master.Text)
	}

	// Unmanaged objects keep the ordinary put path.
	other := &note{Text: "v1"}
	if err := server.Bind("free", other); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("free")
	if err != nil {
		t.Fatal(err)
	}
	freeReplica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	freeReplica.Write("v2")
	if err := mobile.Put(freeReplica); err != nil {
		t.Fatalf("put on unmanaged object: %v", err)
	}
	if other.Text != "v2" {
		t.Fatalf("unmanaged master: %q", other.Text)
	}
}

func TestLeaseDeterministicUnderVirtualClock(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)

	var server, mobile *Site
	var replica *note
	clock.Run(func() {
		var err error
		server, err = New("server", net)
		if err != nil {
			t.Error(err)
			return
		}
		mobile, err = New("mobile", net, WithLease(10*time.Second))
		if err != nil {
			t.Error(err)
			return
		}
		master := &note{Text: "v1"}
		if err := server.Register(master); err != nil {
			t.Error(err)
			return
		}
		d, err := server.Export(master)
		if err != nil {
			t.Error(err)
			return
		}
		ref := mobile.Engine().RefFromDescriptor(d, mobile.spec)
		replica, err = objmodel.Deref[*note](ref)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	defer func() {
		clock.Run(func() { _ = mobile.Close(); _ = server.Close() })
	}()

	_ = replica
	if got := mobile.LeaseExpired(); len(got) != 0 {
		t.Fatalf("fresh replica already expired: %d", len(got))
	}
	// Under a wall clock this would need a real 10s sleep; on the virtual
	// clock expiry is exact and instant: one tick short, still fresh.
	clock.Run(func() { clock.Sleep(10*time.Second - time.Millisecond) })
	if got := mobile.LeaseExpired(); len(got) != 0 {
		t.Fatalf("replica expired early: %d", len(got))
	}
	clock.Run(func() { clock.Sleep(2 * time.Millisecond) })
	if got := mobile.LeaseExpired(); len(got) != 1 {
		t.Fatalf("replica not expired after TTL: %d", len(got))
	}
}

// TestEventualDisabledPutPathAllocParity pins the zero-overhead claim for
// sites that never enable eventual consistency: the put path allocates
// identically across two independently built plain deployments (nothing
// leaks in by construction order), and a plain site carries none of the
// eventual machinery.
func TestEventualDisabledPutPathAllocParity(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	measure := func() float64 {
		w := newWorld(t)
		server := w.site(fmt.Sprintf("server-%p", t), WithoutTelemetry())
		mobile := w.site(fmt.Sprintf("mobile-%p", t), WithoutTelemetry())
		master := &note{Text: "v"}
		if err := server.Register(master); err != nil {
			t.Fatal(err)
		}
		d, err := server.Export(master)
		if err != nil {
			t.Fatal(err)
		}
		ref := mobile.Engine().RefFromDescriptor(d, mobile.spec)
		replica, err := objmodel.Deref[*note](ref)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			replica.Write("x")
			if err := mobile.Put(replica); err != nil {
				t.Fatal(err)
			}
		})
	}
	first := measure()
	second := measure()
	if first != second {
		t.Fatalf("plain put path allocs drifted between deployments: %v vs %v", first, second)
	}
	w := newWorld(t)
	plain := w.site("alloc-plain")
	if plain.eventual != nil || plain.txnMgr != nil {
		t.Fatal("plain site carries eventual machinery")
	}
}

func TestDurableEventualSurvivesKill(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithEventual())
	dir := t.TempDir()
	mobile := w.site("mobile", WithEventual(), WithDurability(dir))

	master := &note{}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	if err := server.Track(master); err != nil {
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
	if err := mobile.Track(replica); err != nil {
		t.Fatal(err)
	}

	// Disconnected tentative edits, then a crash with no clean shutdown.
	w.net.Disconnect("server", "mobile")
	if _, err := mobile.Apply(replica, "sitetest.append", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mobile.Apply(replica, "sitetest.append", []byte("m2")); err != nil {
		t.Fatal(err)
	}
	oid := mobile.Eventual().Tracked()[0]
	mobile.Kill()
	w.net.Reconnect("server", "mobile")

	reborn := w.site("mobile", WithEventual(), WithDurability(dir))
	ev := reborn.Eventual()
	if got := ev.TentativeCount(oid); got != 2 {
		t.Fatalf("recovered tentative = %d, want 2", got)
	}
	entry, ok := reborn.Heap().Get(oid)
	if !ok {
		t.Fatal("tracked replica not recovered")
	}
	if entry.Obj.(*note).Text != "m1|m2|" {
		t.Fatalf("recovered text = %q, want m1|m2|", entry.Obj.(*note).Text)
	}

	// The recovered log syncs as if the crash never happened.
	if _, err := reborn.AntiEntropy("server"); err != nil {
		t.Fatal(err)
	}
	if master.Text != "m1|m2|" {
		t.Fatalf("master text = %q after recovered sync", master.Text)
	}
	ss, sf, _ := server.Eventual().CommittedState(oid)
	ms, mf, _ := ev.CommittedState(oid)
	if sf != mf || !bytes.Equal(ss, ms) {
		t.Fatalf("post-recovery sync diverged: frontiers %d/%d", sf, mf)
	}
}

func TestParkedTxnSurvivesKill(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	dir := t.TempDir()
	client := w.site("client", WithDurability(dir), WithRetry(rmi.RetryPolicy{MaxAttempts: 1}))

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := client.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}

	// A transaction committed while disconnected parks instead of failing.
	w.net.Disconnect("server", "client")
	mgr := client.TxnManager()
	tx := mgr.Begin()
	if err := tx.Write(replica); err != nil {
		t.Fatal(err)
	}
	replica.Write("offline edit")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.Pending()) != 1 {
		t.Fatalf("pending = %d, want 1", len(mgr.Pending()))
	}

	client.Kill()
	w.net.Reconnect("server", "client")

	// Rebirth: the parked commit and its dirty write set come back from
	// the WAL, and the adopted transaction flushes to the master.
	reborn := w.site("client", WithDurability(dir), WithRetry(rmi.RetryPolicy{MaxAttempts: 1}))
	mgr2 := reborn.TxnManager()
	if got := len(mgr2.Pending()); got != 1 {
		t.Fatalf("recovered pending = %d, want 1", got)
	}
	n, err := mgr2.FlushPending()
	if err != nil {
		t.Fatalf("flush after rebirth: %v", err)
	}
	if n != 1 {
		t.Fatalf("flushed = %d, want 1", n)
	}
	if master.Text != "offline edit" {
		t.Fatalf("master = %q, want offline edit", master.Text)
	}
	if got := len(mgr2.Pending()); got != 0 {
		t.Fatalf("pending after flush = %d", got)
	}
}
