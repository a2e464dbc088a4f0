package rmi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/transport"
)

// lender serves clusters the way the Get path does: Lent captures each of
// its states into a buffer of the runtime's free list, or a fresh one, and
// owns them all; Mixed puts a state of its own, which it keeps, beside an
// owned one.
type lender struct {
	rt  *Runtime
	own codec.Frozen

	mu     sync.Mutex // the test reads these, over TCP with no other order
	size   int        // of each state; lentSize if 0
	fill   byte       // the n-th state captured is all n
	seen   map[*byte]bool
	reused int // buffers captured into that had held a state before
}

// ownedCluster is a reply whose first Owned states were captured for it
// alone (StatesOwner).
type ownedCluster struct {
	States []codec.Frozen
	owned  int
}

func (c *ownedCluster) OwnedStates() int { return c.owned }

func init() {
	codec.MustRegister("rmi_test.ownedCluster", ownedCluster{})
}

const lentSize = 512 << 10

func (l *lender) capture() codec.Frozen {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fill++
	return l.captureAs(l.fill)
}

// captureAs captures a state of all fill; l.mu is held.
func (l *lender) captureAs(fill byte) codec.Frozen {
	n := l.size
	if n == 0 {
		n = lentSize
	}
	b := l.rt.LendState(n)
	if b == nil {
		b = make([]byte, 0, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = fill
	}
	if l.seen[&b[0]] {
		l.reused++
	}
	l.seen[&b[0]] = true
	return b
}

func (l *lender) Lent(n int64) *ownedCluster {
	c := &ownedCluster{owned: int(n)}
	for i := int64(0); i < n; i++ {
		c.States = append(c.States, l.capture())
	}
	return c
}

// Tagged is Lent with every state all tag.
func (l *lender) Tagged(n, tag int64) *ownedCluster {
	c := &ownedCluster{owned: int(n)}
	for i := int64(0); i < n; i++ {
		l.mu.Lock()
		c.States = append(c.States, l.captureAs(byte(tag)))
		l.mu.Unlock()
	}
	return c
}

func (l *lender) Mixed() *ownedCluster {
	return &ownedCluster{States: []codec.Frozen{l.own, l.capture()}, owned: 1}
}

// TestForeignStatesAreNeverRecycled: a reply that carries an in-place state
// its result does not own gives nothing back when it is evicted, so that
// state's bytes stay as they were while later replies of owned states, 2 MiB
// and more each, evict one another and capture into the buffers they give back.
func TestForeignStatesAreNeverRecycled(t *testing.T) {
	for _, kind := range []string{"mem", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			var server, client *Runtime
			if kind == "mem" {
				server, client = pairOn(t, transport.NewMemNetwork(netsim.Loopback), "server", "client")
			} else {
				server, client = pairOn(t, transport.NewTCPNetwork(), "127.0.0.1:0", "127.0.0.1:0")
			}
			want := bytes.Repeat([]byte{0xee}, lentSize)
			srv := &lender{rt: server, own: bytes.Clone(want), seen: make(map[*byte]bool)}
			ref, err := server.Export(srv)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Call(ref, "Mixed"); err != nil {
				t.Fatal(err)
			}
			// Each call after the first two evicts the oldest reply; the last
			// one takes every buffer the list holds.
			fill := byte(1)
			for i, n := range []int64{4, 4, 4, 4, 4, 4, 8} {
				out, err := client.Call(ref, "Lent", n)
				if err != nil {
					t.Fatal(err)
				}
				fill += byte(n)
				if got := out[0].(*ownedCluster).States[n-1]; got[0] != fill || got[lentSize-1] != fill {
					t.Fatalf("call %d sent a state of %#x, want %#x", i, got[0], fill)
				}
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			if !bytes.Equal(srv.own, want) {
				t.Fatalf("a state its result does not own was written after its reply was evicted")
			}
			if srv.reused == 0 {
				t.Fatalf("no lent buffer came back to the list")
			}
			t.Logf("%d of %d lent buffers were recycled", srv.reused, len(srv.seen)+srv.reused)
		})
	}
}

// TestStatesNeverRecycledUnderConcurrentCallers: clients calling at once
// share the server's free list. Each reply carries 100 owned 16 KiB states
// (carved four to a block), more than two such replies fill a client's
// reply budget, so buffers come back and are captured into while other
// replies are in flight; every state a client receives must still be the
// one its own call captured (under -race, a buffer written while its send
// reads it is reported too).
func TestStatesNeverRecycledUnderConcurrentCallers(t *testing.T) {
	const clients, calls, members = 4, 10, 100
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	srv := &lender{rt: server, size: 16 << 10, seen: make(map[*byte]bool)}
	ref, err := server.Export(srv)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client, err := newRuntime(net, transport.Addr(fmt.Sprintf("client%d", c)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = client.Close() })
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				tag := byte(c*calls + i + 1)
				out, err := client.Call(ref, "Tagged", int64(members), int64(tag))
				if err != nil {
					t.Error(err)
					return
				}
				for m, s := range out[0].(*ownedCluster).States {
					if len(s) != srv.size || bytes.Count(s, []byte{tag}) != len(s) {
						t.Errorf("client %d call %d: member %d is not the state its call captured", c, i, m)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if len(srv.seen) == clients*calls*members {
		t.Fatalf("no buffer came back to the list")
	}
	t.Logf("%d buffers for %d states", len(srv.seen), clients*calls*members)
}
