package site

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"obiwan/internal/consistency"
	"obiwan/internal/nameserver"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// note is the test object: a shared annotation with a link to the next.
type note struct {
	Text string
	Next *objmodel.Ref
}

func (n *note) Read() string { return n.Text }

func (n *note) Write(s string) { n.Text = s }

func init() {
	objmodel.MustRegisterType("site_test.note", (*note)(nil))
}

// world is a simulated deployment: a name server plus named sites.
type world struct {
	t   *testing.T
	net *transport.MemNetwork
}

func newWorld(t *testing.T) *world {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	nsrt, err := rmi.NewRuntime(net, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nsrt.Close() })
	if _, _, err := nameserver.Serve(nsrt); err != nil {
		t.Fatal(err)
	}
	return &world{t: t, net: net}
}

func (w *world) site(name string, opts ...Option) *Site {
	w.t.Helper()
	opts = append([]Option{WithNameServer("ns")}, opts...)
	s, err := New(name, w.net, opts...)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestBindLookupInvokeAcrossSites(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	n := &note{Text: "hello"}
	if err := server.Bind("notes/greeting", n); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("notes/greeting")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Invoke("Read")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "hello" {
		t.Fatalf("read: %#v", res[0])
	}
}

func TestLookupWithoutNameServer(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	s, err := New("lonely", net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Lookup("x"); !errors.Is(err, ErrNoNameServer) {
		t.Fatalf("lookup: %v", err)
	}
	if err := s.Bind("x", &note{}); !errors.Is(err, ErrNoNameServer) {
		t.Fatalf("bind: %v", err)
	}
}

func TestDisconnectedEditAndSyncDirty(t *testing.T) {
	// The paper's mobility headline: replicate, disconnect, keep editing
	// local replicas, reconnect, push updates back.
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

	w.net.PartitionHost("mobile")

	// Local work continues while disconnected.
	replica.Write("edited offline")
	if err := mobile.MarkUpdated(replica); err != nil {
		t.Fatal(err)
	}
	if res, err := ref.Invoke("Read"); err != nil || res[0] != "edited offline" {
		t.Fatalf("offline read: %v %v", res, err)
	}
	// Sync fails while partitioned.
	if n, err := mobile.SyncDirty(); err == nil || n != 0 {
		t.Fatalf("offline sync: n=%d err=%v", n, err)
	}
	if len(mobile.DirtyReplicas()) != 1 {
		t.Fatal("replica must stay dirty after failed sync")
	}

	w.net.HealHost("mobile")

	n, err := mobile.SyncDirty()
	if err != nil || n != 1 {
		t.Fatalf("sync after heal: n=%d err=%v", n, err)
	}
	if master.Text != "edited offline" {
		t.Fatalf("master: %q", master.Text)
	}
	if len(mobile.DirtyReplicas()) != 0 {
		t.Fatal("dirty set must be empty after sync")
	}
}

func TestInvalidationEndToEnd(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithInvalidation())
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
	e, _ := mobile.Heap().EntryOf(replica)

	// Master edits; the holder site is notified.
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	if _, stale := mobile.StaleSet().IsStale(e.OID); !stale {
		t.Fatal("mobile should have been invalidated")
	}
	refreshed, err := mobile.RefreshStale()
	if err != nil || refreshed != 1 {
		t.Fatalf("refresh stale: %d %v", refreshed, err)
	}
	if replica.Text != "v2" {
		t.Fatalf("replica after refresh: %q", replica.Text)
	}
	if _, stale := mobile.StaleSet().IsStale(e.OID); stale {
		t.Fatal("staleness must clear after refresh")
	}
}

func TestInvalidationSurvivesOfflineHolder(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithInvalidation())
	mobile := w.site("mobile")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Resolve(); err != nil {
		t.Fatal(err)
	}

	w.net.PartitionHost("mobile")
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err) // best-effort delivery: no error even though mobile is off
	}
	w.net.HealHost("mobile")

	// The holder stayed registered; the next update reaches it.
	master.Write("v3")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	replica, _ := objmodel.Deref[*note](ref)
	e, _ := mobile.Heap().EntryOf(replica)
	if _, stale := mobile.StaleSet().IsStale(e.OID); !stale {
		t.Fatal("reconnected holder should be invalidated by the next update")
	}
}

func TestFirstWriterWinsConflict(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithPolicy(consistency.FirstWriterWins{}))
	alice := w.site("alice")
	bob := w.site("bob")

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	refA, err := alice.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	refB, err := bob.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := objmodel.Deref[*note](refA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := objmodel.Deref[*note](refB)
	if err != nil {
		t.Fatal(err)
	}

	a.Write("alice's edit")
	if err := alice.Put(a); err != nil {
		t.Fatal(err)
	}
	b.Write("bob's edit")
	err = bob.Put(b)
	var re *rmi.RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("bob's stale put: %v", err)
	}
	if master.Text != "alice's edit" {
		t.Fatalf("master: %q", master.Text)
	}
	// Bob refreshes and retries: now it goes through.
	if err := bob.Refresh(b); err != nil {
		t.Fatal(err)
	}
	if b.Text != "alice's edit" {
		t.Fatalf("bob after refresh: %q", b.Text)
	}
	b.Write("bob's second try")
	if err := bob.Put(b); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if master.Text != "bob's second try" {
		t.Fatalf("master: %q", master.Text)
	}
}

// TestLeaseExpiry: a lease ages on the site's clock, so on a virtual
// clock 70 ms of virtual time expire a 50 ms lease with no real wait.
func TestLeaseExpiry(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)

	var err error
	clock.Run(func() { err = leaseExpiry(clock, net) })
	if err != nil {
		t.Fatal(err)
	}
}

func leaseExpiry(clock *netsim.VirtualClock, net *transport.MemNetwork) error {
	server, err := New("server", net)
	if err != nil {
		return err
	}
	defer server.Close()
	mobile, err := New("mobile", net, WithLease(50*time.Millisecond))
	if err != nil {
		return err
	}
	defer mobile.Close()

	master := &note{Text: "v1"}
	d, err := server.Export(master)
	if err != nil {
		return err
	}
	replica, err := objmodel.Deref[*note](mobile.Engine().RefFromDescriptor(d, mobile.spec))
	if err != nil {
		return err
	}
	if got := mobile.LeaseExpired(); len(got) != 0 {
		return fmt.Errorf("fresh replica expired: %v", got)
	}
	master.Write("v2")
	clock.Sleep(70 * time.Millisecond)
	if got := mobile.LeaseExpired(); len(got) != 1 {
		return fmt.Errorf("expired: %v", got)
	}
	n, err := mobile.RefreshExpired()
	if err != nil || n != 1 {
		return fmt.Errorf("refresh expired: %d %v", n, err)
	}
	if replica.Text != "v2" {
		return fmt.Errorf("after lease refresh: %q", replica.Text)
	}
	if got := mobile.LeaseExpired(); len(got) != 0 {
		return errors.New("refresh must renew the lease")
	}
	return nil
}

func TestAutoModeCrossesOverWithQoS(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	master := &note{Text: "x"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	ref.SetMode(objmodel.ModeAuto)

	// First call: advisor has calls=1 < FetchFactor=2 → RMI, no replica.
	if _, err := ref.Invoke("Read"); err != nil {
		t.Fatal(err)
	}
	if ref.IsResolved() {
		t.Fatal("crossed over too early")
	}
	// Second call: crossover hits, the object faults in.
	if _, err := ref.Invoke("Read"); err != nil {
		t.Fatal(err)
	}
	if !ref.IsResolved() {
		t.Fatal("second call should have replicated")
	}
}

func TestAutoModeGoesLocalWhenLinkDies(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	master := &note{Text: "x"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	ref.SetMode(objmodel.ModeAuto)

	// Break the link and record a failure so the monitor learns about it:
	// an auto ref must then try the local path (fault), which also fails —
	// but after reconnection the first invocation replicates immediately
	// instead of going back to RMI.
	w.net.Disconnect("mobile", "server")
	if _, err := ref.Invoke("Read"); err == nil {
		t.Fatal("invoke across dead link must fail")
	}
	w.net.Reconnect("mobile", "server")
	if _, err := ref.Invoke("Read"); err != nil {
		t.Fatal(err)
	}
	if !ref.IsResolved() {
		t.Fatal("unhealthy link history should force replication")
	}
}

func TestSyncDirtyClusters(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	// Build a chain and bind the head.
	notes := make([]*note, 4)
	for i := range notes {
		notes[i] = &note{Text: fmt.Sprintf("n%d", i)}
		if err := server.Register(notes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		r, err := server.NewRef(notes[i+1])
		if err != nil {
			t.Fatal(err)
		}
		notes[i].Next = r
	}
	if err := server.Bind("chain", notes[0]); err != nil {
		t.Fatal(err)
	}

	ref, err := mobile.LookupSpec("chain",
		replication.GetSpec{Mode: Incremental(), Batch: 4, Clustered: true})
	if err != nil {
		t.Fatal(err)
	}
	head, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	second, err := objmodel.Deref[*note](head.Next)
	if err != nil {
		t.Fatal(err)
	}
	head.Write("h2")
	second.Write("s2")
	if err := mobile.MarkUpdated(head); err != nil {
		t.Fatal(err)
	}
	if err := mobile.MarkUpdated(second); err != nil {
		t.Fatal(err)
	}
	n, err := mobile.SyncDirty()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // one cluster put covers both dirty members
		t.Fatalf("synced %d units, want 1 cluster", n)
	}
	if notes[0].Text != "h2" || notes[1].Text != "s2" {
		t.Fatalf("masters: %q %q", notes[0].Text, notes[1].Text)
	}
}

// Incremental returns replication.Incremental; a helper so the test above
// reads naturally.
func Incremental() replication.Mode { return replication.Incremental }

func TestSiteIDHashStable(t *testing.T) {
	if hashSiteID("mobile") != hashSiteID("mobile") {
		t.Fatal("hash must be deterministic")
	}
	if hashSiteID("a") == 0 {
		t.Fatal("site id must be non-zero")
	}
}

func TestRegisterAndExportWithoutNames(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	a, err := New("a", net)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New("b", net)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	n := &note{Text: "direct"}
	d, err := a.Export(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := b.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	res, err := ref.Invoke("Read")
	if err != nil || res[0] != "direct" {
		t.Fatalf("direct descriptor exchange: %v %v", res, err)
	}
}
