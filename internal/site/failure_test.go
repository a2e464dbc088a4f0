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
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// TestLossyLinkReplicationEventuallySucceeds exercises the wireless
// profile's loss model: individual demands may fail, but the reference
// retries on the next invocation, so a persistent caller gets through.
func TestLossyLinkReplicationEventuallySucceeds(t *testing.T) {
	lossy := netsim.Profile{
		Name:     "flaky",
		Latency:  100 * time.Microsecond,
		LossRate: 0.3,
	}
	net := transport.NewMemNetwork(lossy)
	server, err := New("server", net, WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mobile, err := New("mobile", net, WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()

	master := &note{Text: "gets through"}
	d, err := server.Export(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)

	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		res, err := ref.Invoke("Read")
		if err == nil {
			if res[0] != "gets through" {
				t.Fatalf("read: %#v", res[0])
			}
			return
		}
		lastErr = err
	}
	t.Fatalf("never succeeded over lossy link: %v", lastErr)
}

// TestMasterRestartMidWalk replays a master-site failure: the master dies
// mid-walk, a replacement incarnation comes up at the same address and
// rebinds the graph root. As with Java RMI, references into the dead
// incarnation are invalid (proxy-in ids are per-runtime); recovery is a
// fresh name-server lookup — while everything already replicated keeps
// working locally.
func TestMasterRestartMidWalk(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	nsrt, err := rmi.NewRuntime(net, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrt.Close()
	if _, _, err := nameserver.Serve(nsrt); err != nil {
		t.Fatal(err)
	}

	buildServer := func(siteID uint16) (*Site, []*note, error) {
		s, err := New("server", net, WithNameServer("ns"), WithSiteID(siteID))
		if err != nil {
			return nil, nil, err
		}
		notes := make([]*note, 3)
		for i := range notes {
			notes[i] = &note{Text: fmt.Sprintf("n%d", i)}
			if err := s.Register(notes[i]); err != nil {
				return nil, nil, err
			}
		}
		for i := 0; i < 2; i++ {
			r, err := s.NewRef(notes[i+1])
			if err != nil {
				return nil, nil, err
			}
			notes[i].Next = r
		}
		if err := s.Bind("chain", notes[0]); err != nil {
			return nil, nil, err
		}
		return s, notes, nil
	}

	server1, _, err := buildServer(7)
	if err != nil {
		t.Fatal(err)
	}

	mobile, err := New("mobile", net, WithNameServer("ns"))
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	ref, err := mobile.Lookup("chain")
	if err != nil {
		t.Fatal(err)
	}
	head, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the master; faults into it fail, but the replicated head keeps
	// serving locally.
	_ = server1.Close()
	if _, err := head.Next.Invoke("Read"); err == nil {
		t.Fatal("fault against dead master must fail")
	}
	if res, err := ref.Invoke("Read"); err != nil || res[0] != "n0" {
		t.Fatalf("local replica must keep working: %v %v", res, err)
	}

	// A new incarnation comes up (fresh site id — it is a new object
	// universe) and rebinds the root. Recovery = re-lookup.
	server2, _, err := buildServer(8)
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()

	ref2, err := mobile.Lookup("chain")
	if err != nil {
		t.Fatal(err)
	}
	head2, err := objmodel.Deref[*note](ref2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := head2.Next.Invoke("Read")
	if err != nil {
		t.Fatalf("walk after re-lookup: %v", err)
	}
	if res[0] != "n1" {
		t.Fatalf("read: %#v", res[0])
	}
}

// TestPutConflictDoesNotCorruptReplica: a rejected put must leave both the
// master and the local replica in consistent states.
func TestPutConflictDoesNotCorruptReplica(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithPolicy(consistency.FirstWriterWins{}))
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
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	replica.Write("stale edit")
	if err := mobile.Put(replica); err == nil {
		t.Fatal("stale put must fail")
	}
	// Master untouched; replica still holds the local edit (the app
	// decides whether to refresh or retry).
	if master.Text != "v2" {
		t.Fatalf("master corrupted: %q", master.Text)
	}
	if replica.Text != "stale edit" {
		t.Fatalf("replica clobbered: %q", replica.Text)
	}
	// Refresh reconverges.
	if err := mobile.Refresh(replica); err != nil {
		t.Fatal(err)
	}
	if replica.Text != "v2" {
		t.Fatalf("after refresh: %q", replica.Text)
	}
}

// TestTimeoutSurfacesCleanly: a call that outlives its deadline returns
// ErrTimeout without wedging the connection for later calls.
func TestTimeoutSurfacesCleanly(t *testing.T) {
	slow := netsim.Profile{Name: "molasses", Latency: 300 * time.Millisecond}
	net := transport.NewMemNetwork(slow)
	server, err := New("server", net)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mobile, err := New("mobile", net, WithCallTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()

	master := &note{Text: "slow"}
	d, err := server.Export(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	ref.SetMode(objmodel.ModeRemote)
	if _, err := ref.Invoke("Read"); !errors.Is(err, rmi.ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	// Raise the budget: the same connection serves the retry.
	res, _, err := mobile.Runtime().CallWithin(telemetry.SpanContext{}, time.Time{}, d.Provider, 5*time.Second, "Read")
	if err != nil {
		t.Fatalf("retry with bigger budget: %v", err)
	}
	if res[0] != "slow" {
		t.Fatalf("read: %#v", res)
	}
}

// TestTCPEndToEnd runs the whole stack — name server, two sites, fault
// resolution, put — over real TCP sockets.
func TestTCPEndToEnd(t *testing.T) {
	net := transport.NewTCPNetwork()
	nsrt, err := rmi.NewRuntime(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrt.Close()
	if _, _, err := nameserver.Serve(nsrt); err != nil {
		t.Fatal(err)
	}
	nsAddr := nsrt.Addr()

	server, err := New("127.0.0.1:0", net, WithNameServer(nsAddr), WithSiteID(21))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mobile, err := New("127.0.0.1:0", net, WithNameServer(nsAddr), WithSiteID(22))
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()

	head := &note{Text: "over tcp"}
	tail := &note{Text: "really"}
	if head.Next, err = server.NewRef(tail); err != nil {
		t.Fatal(err)
	}
	if err := server.Bind("tcp/chain", head); err != nil {
		t.Fatal(err)
	}

	ref, err := mobile.Lookup("tcp/chain")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	if replica.Text != "over tcp" {
		t.Fatalf("head: %q", replica.Text)
	}
	res, err := replica.Next.Invoke("Read")
	if err != nil || res[0] != "really" {
		t.Fatalf("tail over tcp: %v %v", res, err)
	}
	master, ok := server.Heap().EntryOf(head)
	if !ok {
		t.Fatal("head is not in the server's heap")
	}
	before := master.Version()
	replica.Write("edited over tcp")
	if err := mobile.Put(replica); err != nil {
		t.Fatal(err)
	}
	// The put ran on a server handler goroutine and its reply crossed a
	// real socket: ordered for the program, but a kernel round trip is no
	// happens-before the race detector can see. Reading the version takes
	// the entry's lock, which the handler released after restoring state.
	if got := master.Version(); got <= before {
		t.Fatalf("master version after tcp put: %d, was %d", got, before)
	}
	if head.Text != "edited over tcp" {
		t.Fatalf("master after tcp put: %q", head.Text)
	}
}
