package transport_test

import (
	"bytes"
	"sync"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/transport"
)

// recordNet decorates a Network from outside package transport, the way
// benchmark/tracenet.go does: its connections embed the inner Conn and
// override Send alone, recording every message they are handed.
type recordNet struct {
	inner transport.Network
	mu    sync.Mutex
	sent  [][]byte
}

func (n *recordNet) Listen(local transport.Addr) (transport.Listener, error) {
	return n.inner.Listen(local)
}

func (n *recordNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return &recordConn{Conn: c, net: n}, nil
}

func (n *recordNet) messages() [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent
}

type recordConn struct {
	transport.Conn
	net *recordNet
}

func (c *recordConn) Send(p []byte) error {
	c.net.mu.Lock()
	c.net.sent = append(c.net.sent, bytes.Clone(p))
	c.net.mu.Unlock()
	return c.Conn.Send(p)
}

// TestVectorReachesDecoratorWhole: a Conn defined outside the package has
// only Send, so SendVector hands it each vector joined, once: on mem and on
// TCP, dialled directly and behind a reconnecting Conn (the shape of an rmi
// client connection over a tracing network). An oversized vector is refused
// before the decorator sees anything.
func TestVectorReachesDecoratorWhole(t *testing.T) {
	for _, tc := range []struct {
		name           string
		inner          transport.Network
		server, client transport.Addr
	}{
		{"mem", transport.NewMemNetwork(netsim.Loopback), "server", "client"},
		{"tcp", transport.NewTCPNetwork(), "127.0.0.1:0", ""},
	} {
		for _, reconnecting := range []bool{false, true} {
			name := tc.name
			if reconnecting {
				name += "/reconnecting"
			}
			t.Run(name, func(t *testing.T) {
				rn := &recordNet{inner: tc.inner}
				ln, err := rn.Listen(tc.server)
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				received := make(chan []byte, 3)
				go func() {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					defer conn.Close()
					for {
						msg, err := conn.Recv()
						if err != nil {
							close(received)
							return
						}
						received <- msg
					}
				}()
				var conn transport.Conn
				if reconnecting {
					conn, err = transport.NewReconnecting(rn, tc.client, ln.Addr(), nil)
				} else {
					conn, err = rn.Dial(tc.client, ln.Addr())
				}
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()

				state := bytes.Repeat([]byte("frozen state "), 400)
				vectors := [][][]byte{
					{[]byte("head:"), state, []byte(":mid:"), state, []byte(":tail")},
					{[]byte("one buffer")},
				}
				for _, v := range vectors {
					if err := transport.SendVector(conn, v); err != nil {
						t.Fatal(err)
					}
				}
				big := make([]byte, 1<<20)
				huge := make([][]byte, transport.MaxMessageSize>>20+1)
				for i := range huge {
					huge[i] = big
				}
				if err := transport.SendVector(conn, huge); err == nil {
					t.Fatal("an oversized vector was sent")
				}
				for i, v := range vectors {
					want := bytes.Join(v, nil)
					if got := <-received; !bytes.Equal(got, want) {
						t.Fatalf("vector %d: the peer received %d bytes, want %d", i, len(got), len(want))
					}
				}
				sent := rn.messages()
				if len(sent) != len(vectors) {
					t.Fatalf("the decorator saw %d messages, want %d", len(sent), len(vectors))
				}
				for i, v := range vectors {
					if !bytes.Equal(sent[i], bytes.Join(v, nil)) {
						t.Fatalf("vector %d reached the decorator in %d bytes, not whole", i, len(sent[i]))
					}
				}
			})
		}
	}
}
