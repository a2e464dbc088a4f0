package replication

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// A step reply writes the replying site's own address as empty, and the
// receiver fills in the site that answered (Payload.swapAddr). These tests
// run each round trip over the mem network and over TCP loopback, where a
// runtime's address is the host:port its listener was given.

// dropNet loses the next reply frame a server sends once armed, so the
// client resends its call: the server runs a Get again and answers any
// other call from its dedupe table.
type dropNet struct {
	transport.Network
	armed atomic.Bool
}

func (n *dropNet) Listen(local transport.Addr) (transport.Listener, error) {
	ln, err := n.Network.Listen(local)
	return dropListener{ln, n}, err
}

type dropListener struct {
	transport.Listener
	net *dropNet
}

func (l dropListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	return dropConn{c, l.net}, err
}

type dropConn struct {
	transport.Conn
	net *dropNet
}

func (c dropConn) Send(frame []byte) error {
	if len(frame) > 0 && frame[0] == wire.KindReply && c.net.armed.CompareAndSwap(true, false) {
		return nil
	}
	return c.Conn.Send(frame)
}

// elideSites starts n sites on a fresh network of the named kind, site i
// with site id i+1. Their clients resend a call whose reply is 100 ms late.
func elideSites(t *testing.T, kind string, n int) ([]*testSite, *dropNet) {
	t.Helper()
	net := &dropNet{Network: transport.NewMemNetwork(netsim.Loopback)}
	if kind == "tcp" {
		net.Network = transport.NewTCPNetwork()
	}
	retry := rmi.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Multiplier: 2, PerTryTimeout: 100 * time.Millisecond}
	sites := make([]*testSite, n)
	for i := range sites {
		local := transport.Addr([]string{"s1", "s2", "s3"}[i])
		if kind == "tcp" {
			local = "127.0.0.1:0"
		}
		rt, err := rmi.NewRuntime(net, local, rmi.WithRetryPolicy(retry))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		h := heap.New(uint16(i + 1))
		sites[i] = &testSite{name: string(rt.Addr()), rt: rt, heap: h, engine: NewEngine(rt, h)}
	}
	return sites, net
}

// rawGet calls Get on a proxy-in directly and returns the payload as it
// arrived, before any fetch fills it in.
func rawGet(t *testing.T, client *testSite, prov rmi.RemoteRef) *Payload {
	t.Helper()
	res, err := client.rt.Call(prov, "Get", &DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(*Payload)
}

// wantProviders fails unless the replica of oid at s, and the proxy-out of
// its Next reference, lead to the sites named.
func wantProviders(t *testing.T, s *testSite, oid objmodel.OID, replica, next transport.Addr) {
	t.Helper()
	entry, ok := s.heap.Get(oid)
	if !ok {
		t.Fatalf("%v not replicated", oid)
	}
	if got := entry.Provider(); got.Addr != replica || got.ID == 0 {
		t.Errorf("replica's provider is %v, want one at %s", got, replica)
	}
	if got := entry.Obj.(*doc).Next.Faulter().(*ProxyOut).Provider(); got.Addr != next || got.ID == 0 {
		t.Errorf("frontier proxy-out's provider is %v, want one at %s", got, next)
	}
}

func forEachNetwork(t *testing.T, test func(t *testing.T, kind string)) {
	for _, kind := range []string{"mem", "tcp"} {
		t.Run(kind, func(t *testing.T) { test(t, kind) })
	}
}

// TestElidedAddressIsTheAnsweringSite: the master ships its own address
// as empty for the record and the frontier, and the client fills in the
// master, which it sent the Get to.
func TestElidedAddressIsTheAnsweringSite(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, _ := elideSites(t, kind, 2)
		client, master := sites[0], sites[1]
		docs := buildChain(t, master, 3, 8)
		desc, err := master.engine.ExportObject(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		p := rawGet(t, client, desc.Provider)
		if p.Objects[0].Provider.Addr != "" || p.Frontier[0].Provider.Addr != "" {
			t.Fatalf("the master's own address travelled: record %v, frontier %v", p.Objects[0].Provider, p.Frontier[0].Provider)
		}
		if _, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec)); err != nil {
			t.Fatal(err)
		}
		wantProviders(t, client, objmodel.OID(desc.OID), master.rt.Addr(), master.rt.Addr())
	})
}

// TestThirdSiteProviderStaysExplicit: a site serving its replica onward
// elides its own address, not the master's: the frontier it forwards
// leads to the master, by name.
func TestThirdSiteProviderStaysExplicit(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, _ := elideSites(t, kind, 3)
		third, master, relay := sites[0], sites[1], sites[2]
		docs := buildChain(t, master, 3, 8)
		desc, err := master.engine.ExportObject(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		head, err := derefDoc(t, relay.engine.RefFromDescriptor(desc, DefaultSpec))
		if err != nil {
			t.Fatal(err)
		}
		onward, err := relay.engine.ExportObject(head)
		if err != nil {
			t.Fatal(err)
		}
		p := rawGet(t, third, onward.Provider)
		if p.Objects[0].Provider.Addr != "" || p.Frontier[0].Provider.Addr != master.rt.Addr() {
			t.Fatalf("relay shipped record %v, frontier %v; want its own elided, the master's explicit",
				p.Objects[0].Provider, p.Frontier[0].Provider)
		}
		if _, err := derefDoc(t, third.engine.RefFromDescriptor(onward, DefaultSpec)); err != nil {
			t.Fatal(err)
		}
		wantProviders(t, third, objmodel.OID(desc.OID), relay.rt.Addr(), master.rt.Addr())
	})
}

// TestFailoverFillsInTheMemberThatAnswered: the first group member named
// has not exported the master, so the demand fails over to the second,
// whose address, not the first's, is what the elided providers become.
func TestFailoverFillsInTheMemberThatAnswered(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, _ := elideSites(t, kind, 3)
		client, master, lagging := sites[0], sites[1], sites[2]
		docs := buildChain(t, master, 3, 8)
		desc, err := master.engine.ExportObject(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		desc.Provider.Addr, desc.Group = lagging.rt.Addr(), []transport.Addr{lagging.rt.Addr(), master.rt.Addr()}
		if _, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec)); err != nil {
			t.Fatal(err)
		}
		wantProviders(t, client, objmodel.OID(desc.OID), master.rt.Addr(), master.rt.Addr())
	})
}

// TestReplayedReplyDecodesAlone: a Get is idempotent, so a retry of one whose
// reply was lost runs again instead of being answered from the dedupe
// table, and its reply decodes to the payload a fresh Get returns: the
// elision needs nothing from the connection. A demand whose reply is lost
// runs again the same way.
func TestReplayedReplyDecodesAlone(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, net := elideSites(t, kind, 2)
		client, master := sites[0], sites[1]
		docs := buildChain(t, master, 3, 8)
		desc, err := master.engine.ExportObject(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		rawGet(t, client, desc.Provider) // the connection
		served := master.rt.Stats().CallsServed
		net.armed.Store(true)
		retried := rawGet(t, client, desc.Provider)
		if st := master.rt.Stats(); st.CallsServed-served != 2 || st.DupsSuppressed != 0 {
			t.Fatalf("the retried Get ran %d times, %d answered from the dedupe table; want 2 and 0", st.CallsServed-served, st.DupsSuppressed)
		}
		if fresh := rawGet(t, client, desc.Provider); !reflect.DeepEqual(retried, fresh) {
			t.Fatalf("retried payload %+v, a fresh one %+v", retried, fresh)
		}
		net.armed.Store(true)
		if _, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec)); err != nil {
			t.Fatal(err)
		}
		if net.armed.Load() {
			t.Fatal("the demand's reply was not lost")
		}
		if dups := master.rt.Stats().DupsSuppressed; dups != 0 {
			t.Fatalf("the demand's reply was replayed (%d replays)", dups)
		}
		wantProviders(t, client, objmodel.OID(desc.OID), master.rt.Addr(), master.rt.Addr())
	})
}
