package replication

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// stallNet is a dropNet whose servers can be made to hold one reply frame
// in its send until released: while it waits, every later frame on its
// connection queues behind it, still referencing the states it carries.
type stallNet struct {
	*dropNet
	armed        atomic.Bool
	hit, release chan struct{}
}

func (n *stallNet) Listen(local transport.Addr) (transport.Listener, error) {
	ln, err := n.dropNet.Listen(local)
	return stallListener{ln, n}, err
}

type stallListener struct {
	transport.Listener
	net *stallNet
}

func (l stallListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	return stallConn{c, l.net}, err
}

type stallConn struct {
	transport.Conn
	net *stallNet
}

func (c stallConn) Send(frame []byte) error {
	if len(frame) > 0 && frame[0] == wire.KindReply && c.net.armed.CompareAndSwap(true, false) {
		close(c.net.hit)
		<-c.net.release
	}
	return c.Conn.Send(frame)
}

// rawClient is one connection to a runtime under a chosen identity, which
// the test writes call frames to and reads reply frames from.
type rawClient struct {
	t      *testing.T
	conn   transport.Conn
	server *rmi.Runtime
}

func dialRaw(t *testing.T, network transport.Network, server *rmi.Runtime, id wire.Identity) *rawClient {
	t.Helper()
	conn, err := network.Dial(transport.Addr(id.Addr), server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.Send(wire.EncodeHello(id)); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t, conn, server}
}

func (c *rawClient) call(id uint64, target rmi.RemoteRef, method string, args ...any) {
	c.t.Helper()
	frame, err := wire.EncodeCall(c.server.Registry(), &wire.Call{ID: id, Target: uint64(target.ID), Method: method, Args: args})
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.Send(frame); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) reply(id uint64) []any {
	c.t.Helper()
	frame, err := c.conn.Recv()
	if err != nil {
		c.t.Fatal(err)
	}
	msg, err := wire.Decode(c.server.Registry(), frame)
	if err != nil {
		c.t.Fatal(err)
	}
	r, ok := msg.(*wire.Reply)
	if !ok || r.ID != id {
		c.t.Fatalf("got %#v, want the reply to call %d", msg, id)
	}
	return r.Results
}

// waitFor polls cond until it holds; the test fails with what on a timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// sendsInFlight counts the goroutines inside an rmi sender's send: the
// one writing and those queued behind it.
func sendsInFlight() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("rmi.(*sender).send("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestReplayedReplyOutlivesEviction: a Get is idempotent, so its reply is
// not kept in the dedupe table, and its send's hold is the last on its
// states. The reply of a large cluster Get queues behind another reply held
// in its send; meanwhile, on a second connection of the same client, later
// demands capture states of the same size with other bytes, into buffers
// that earlier replies gave back. The queued reply still sends the master's
// states byte for byte: its states go back to the master's free list only
// once its send has written them.
func TestReplayedReplyOutlivesEviction(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		drop := &dropNet{Network: transport.NewMemNetwork(netsim.Loopback)}
		local, client := transport.Addr("master"), "client"
		if kind == "tcp" {
			drop.Network, local, client = transport.NewTCPNetwork(), "127.0.0.1:0", "127.0.0.1:1"
		}
		net := &stallNet{dropNet: drop, hit: make(chan struct{}), release: make(chan struct{})}
		rt, err := rmi.NewRuntime(net, local)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		released := false
		t.Cleanup(func() { // before Close, which waits for the held send
			if !released {
				close(net.release)
			}
		})
		master := &testSite{name: string(rt.Addr()), rt: rt, heap: heap.New(1)}
		master.engine = NewEngine(rt, master.heap)

		// Three chains of 150 x 16 KiB: each reply pins 2.76 MB.
		const members = 150
		spec := GetSpec{Mode: Incremental, Batch: members, Clustered: true}
		var heads []rmi.RemoteRef
		var first []*doc
		for _, fill := range []byte{0xa1, 0xb2, 0xc3} {
			docs := buildChain(t, master, members, 16<<10)
			for _, d := range docs {
				d.Body = bytes.Repeat([]byte{fill}, len(d.Body))
			}
			desc, err := master.engine.ExportObject(docs[0])
			if err != nil {
				t.Fatal(err)
			}
			heads = append(heads, desc.Provider)
			if first == nil {
				first = docs
			}
		}
		id := wire.Identity{Addr: client, Incarnation: 7, Durable: true}
		c1 := dialRaw(t, drop.Network, rt, id)

		net.armed.Store(true) // the next reply waits in its send
		c1.call(2, heads[0], "Version")
		<-net.hit
		c1.call(1, heads[0], "Get", &spec) // its reply queues behind call 2's
		waitFor(t, "the Get's reply to queue", func() bool { return sendsInFlight() >= 2 })

		c2 := dialRaw(t, drop.Network, rt, id) // the same client, as after a redial
		c2.call(3, heads[1], "Get", &spec)
		c2.reply(3)                        // its states go back to the list
		c2.call(4, heads[2], "Get", &spec) // captures 150 states of 0xc3 into them
		if p := c2.reply(4)[0].(*Payload); !bytes.Contains(p.Objects[0].State, bytes.Repeat([]byte{0xc3}, 1024)) {
			t.Fatalf("the third chain's payload does not carry its fill")
		}

		released = true
		close(net.release)
		c1.reply(2)
		queued := c1.reply(1)[0].(*Payload)
		if len(queued.Objects) != members {
			t.Fatalf("the queued reply carries %d objects, want %d", len(queued.Objects), members)
		}
		for i, rec := range queued.Objects {
			want, err := objmodel.CaptureState(rt.Registry(), first[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.State, want) {
				t.Fatalf("member %d of the queued reply is not the master's state (%d bytes, ends in %#x)", i, len(rec.State), rec.State[len(rec.State)-1])
			}
		}
		if dups := rt.Stats().DupsSuppressed; dups != 0 {
			t.Fatalf("%d replies answered from the dedupe table, want 0", dups)
		}
	})
}

// exportBody masters a doc whose 4 KiB body is filled with fill at master
// and exports it: a put of its replica ships a state that stays in place.
func exportBody(t *testing.T, master *testSite, fill byte) Descriptor {
	t.Helper()
	d := buildChain(t, master, 1, 4<<10)[0]
	d.Body = bytes.Repeat([]byte{fill}, len(d.Body))
	desc, err := master.engine.ExportObject(d)
	if err != nil {
		t.Fatal(err)
	}
	return desc
}

// masterSum reads the CRC of the master's body through RMI, so it is taken
// on the master's side of the wire.
func masterSum(t *testing.T, client *testSite, prov rmi.RemoteRef) uint64 {
	t.Helper()
	res, err := client.rt.Call(prov, "Invoke", "Sum", []any(nil))
	if err != nil {
		t.Fatal(err)
	}
	return res[0].([]any)[0].(uint64)
}

// aliasNet is a network on which dialling alias reaches target, and the
// first such dial runs onDial before it connects.
type aliasNet struct {
	transport.Network
	alias, target transport.Addr
	onDial        func()
}

func (n *aliasNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	if remote == n.alias {
		if f := n.onDial; f != nil {
			n.onDial = nil
			f()
		}
		remote = n.target
	}
	return n.Network.Dial(local, remote)
}

// TestPutStateSurvivesFailover: a put to a two-member master group whose
// first member is unreachable fails over to the second, which receives the
// replica's bytes. The second member is the master under another address,
// so the client dials it once the put's frame is encoded, and the dial puts
// another replica first: a state given back between the two members would
// be captured into, and the second member would get the other bytes.
func TestPutStateSurvivesFailover(t *testing.T) {
	net := &aliasNet{Network: transport.NewMemNetwork(netsim.Loopback), alias: "s2b", target: "s2"}
	master := newTestSite(t, net, "s2", 2)
	client := newTestSite(t, net, "s1", 1)
	desc := exportBody(t, master, 0xa1)
	const dead = transport.Addr("s9") // listens nowhere
	desc.Group = []transport.Addr{dead, net.alias}
	replica, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec))
	if err != nil {
		t.Fatal(err)
	}
	other, err := derefDoc(t, client.engine.RefFromDescriptor(exportBody(t, master, 0xb2), DefaultSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.engine.Put(telemetry.SpanContext{}, other); err != nil {
		t.Fatal(err)
	}
	net.onDial = func() {
		other.Body[0]++
		if err := client.engine.Put(telemetry.SpanContext{}, other); err != nil {
			t.Error(err)
		}
	}
	entry, _ := client.heap.EntryOf(replica)
	client.engine.repin(entry, rmi.RemoteRef{Addr: dead, ID: desc.Provider.ID}) // as after the member it came from died
	replica.Body[0] = 0x5a
	if err := client.engine.Put(telemetry.SpanContext{}, replica); err != nil {
		t.Fatal(err)
	}
	if net.onDial != nil {
		t.Fatal("the put did not fail over to the second member")
	}
	if got := entry.Provider(); got.Addr != net.alias {
		t.Fatalf("the put was answered by %v, want the second member %s", got, net.alias)
	}
	if got, want := masterSum(t, client, desc.Provider), replica.Sum(); got != want {
		t.Fatalf("the second member's body sums to %#x, the replica's to %#x", got, want)
	}
}

// TestPutStatesOfConcurrentPutsStayApart: two goroutines of one site put
// two replicas, 200 times each, capturing into and giving back buffers of
// one list. Each master ends with its own replica's bytes.
func TestPutStatesOfConcurrentPutsStayApart(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, _ := elideSites(t, kind, 2)
		client, master := sites[0], sites[1]
		var replicas [2]*doc
		var provs [2]rmi.RemoteRef
		for i := range replicas {
			desc := exportBody(t, master, byte(0x10*(i+1)))
			r, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec))
			if err != nil {
				t.Fatal(err)
			}
			replicas[i], provs[i] = r, desc.Provider
		}
		var wg sync.WaitGroup
		for g, r := range replicas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					r.Body[i] = byte(0x80*g + i)
					if err := client.engine.Put(telemetry.SpanContext{}, r); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		for i, r := range replicas {
			if got, want := masterSum(t, client, provs[i]), r.Sum(); got != want {
				t.Errorf("master %d's body sums to %#x, its replica's to %#x", i, got, want)
			}
		}
	})
}

// callDropNet drops the call frames its dialled connections send while
// armed: the caller waits for replies that never come.
type callDropNet struct {
	transport.Network
	armed atomic.Bool
}

func (n *callDropNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.Network.Dial(local, remote)
	return callDropConn{c, n}, err
}

type callDropConn struct {
	transport.Conn
	net *callDropNet
}

func (c callDropConn) Send(frame []byte) error {
	if len(frame) > 0 && frame[0] == wire.KindCall && c.net.armed.Load() {
		return nil
	}
	return c.Conn.Send(frame)
}

// TestPutStateGivenBackAfterTimeout: a put whose call times out gives its
// state back, and the next put, which captures into that buffer, still
// ships the replica's bytes.
func TestPutStateGivenBackAfterTimeout(t *testing.T) {
	net := &callDropNet{Network: transport.NewMemNetwork(netsim.Loopback)}
	master := newTestSite(t, net, "s2", 2)
	rt, err := rmi.NewRuntime(net, "s1", rmi.WithRetryPolicy(rmi.RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, PerTryTimeout: 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	client := &testSite{name: "s1", rt: rt, heap: heap.New(1)}
	client.engine = NewEngine(rt, client.heap)
	desc := exportBody(t, master, 0xc3)
	replica, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec))
	if err != nil {
		t.Fatal(err)
	}
	replica.Body[0] = 1
	if err := client.engine.Put(telemetry.SpanContext{}, replica); err != nil {
		t.Fatal(err)
	}

	replica.Body[0] = 2
	lost, err := objmodel.CaptureState(rt.Registry(), replica)
	if err != nil {
		t.Fatal(err)
	}
	net.armed.Store(true)
	if err := client.engine.Put(telemetry.SpanContext{}, replica); !errors.Is(err, rmi.ErrTimeout) {
		t.Fatalf("the put whose calls were dropped returned %v, want a timeout", err)
	}
	net.armed.Store(false)
	b := rt.LendCallState(len(lost))
	if !bytes.Equal(b[:len(lost)], lost) {
		t.Fatalf("the timed-out put's state was not given back")
	}
	rt.GiveBackCallState(b[:len(lost)])

	replica.Body[0] = 3
	if err := client.engine.Put(telemetry.SpanContext{}, replica); err != nil {
		t.Fatal(err)
	}
	if got, want := masterSum(t, client, desc.Provider), replica.Sum(); got != want {
		t.Fatalf("the master's body sums to %#x after the next put, the replica's to %#x", got, want)
	}
}
