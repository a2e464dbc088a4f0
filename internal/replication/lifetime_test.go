package replication

import (
	"bytes"
	"runtime"
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

// TestReplayedReplyOutlivesEviction: a large cluster reply whose first send
// was lost is replayed from the dedupe table, and the replay is held up
// behind another reply on its connection. Meanwhile, on a second
// connection of the same client, later demands evict the recorded reply
// and capture states of the same size with other bytes. The replay still
// sends the master's states byte for byte: a dead frame's states go back to
// the master's free list only once no send of it is in flight, not at
// eviction.
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

		// Three chains of 150 x 16 KiB: each reply pins 2.76 MB, so two of
		// them overflow a client's 4 MiB reply budget.
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

		drop.armed.Store(true) // the first Get's reply is lost
		c1.call(1, heads[0], "Get", &spec)
		waitFor(t, "the lost reply", func() bool { return !drop.armed.Load() })
		net.armed.Store(true) // the next reply waits in its send
		c1.call(2, heads[0], "Version")
		<-net.hit
		c1.call(1, heads[0], "Get", &spec) // the resend: a replay, queued behind call 2's reply
		waitFor(t, "the replay", func() bool { return rt.Stats().DupsSuppressed == 1 })

		c2 := dialRaw(t, drop.Network, rt, id) // the same client, as after a redial
		c2.call(3, heads[1], "Get", &spec)     // evicts call 1's reply
		c2.reply(3)
		c2.call(4, heads[2], "Get", &spec) // captures 150 states of 0xc3
		if p := c2.reply(4)[0].(*Payload); !bytes.Contains(p.Objects[0].State, bytes.Repeat([]byte{0xc3}, 1024)) {
			t.Fatalf("the third chain's payload does not carry its fill")
		}

		released = true
		close(net.release)
		c1.reply(2)
		replayed := c1.reply(1)[0].(*Payload)
		if len(replayed.Objects) != members {
			t.Fatalf("the replay carries %d objects, want %d", len(replayed.Objects), members)
		}
		for i, rec := range replayed.Objects {
			want, err := objmodel.CaptureState(rt.Registry(), first[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.State, want) {
				t.Fatalf("member %d of the replay is not the master's state (%d bytes, ends in %#x)", i, len(rec.State), rec.State[len(rec.State)-1])
			}
		}
		if dups := rt.Stats().DupsSuppressed; dups != 1 {
			t.Fatalf("%d replies answered from the dedupe table, want 1", dups)
		}
	})
}
