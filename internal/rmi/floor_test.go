package rmi

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/raceflag"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// nullCallAllocs is the allocation count of one null call over the
// zero-latency mem transport, both sides included. It only ever goes
// down: lower it when a change removes an allocation, so the win is
// locked in. (27 before the embedded Cond, the atomic call id and the
// single serve closure; 24 while that closure was made per call; 23 while
// the skeleton made its reflective call's argument slice per call; 22
// while the call and reply encoders and decoders were heap-allocated and
// the method name and client id were copied out of every call frame.)
const nullCallAllocs = 16

func TestNullCallAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	server, client := benchPair(t) // zero-latency mem transport
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	})
	if got > nullCallAllocs {
		t.Fatalf("null call allocates %.1f objects, pinned at %d", got, nullCallAllocs)
	}
}

// TestTracedCallAllocationsPinned: tracing a call, both sides included,
// allocates nothing: its two spans (rmi:<method> at the client,
// serve:<method> at the server) live in their callers' frames until End
// copies them into the ring, and no name is joined, no attribute
// formatted, no phase slice grown until someone reads the ring. (+7
// before spans rendered on export, +2 while each span was a heap object.)
func TestTracedCallAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	server, client, hub := hubPair(t)
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	root := hub.StartRoot("pin")
	defer root.End()
	allocs := func(sc telemetry.SpanContext) float64 {
		return testing.AllocsPerRun(2000, func() {
			if _, err := client.CallWithin(sc, ref, 0, "Total"); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced, traced := allocs(telemetry.SpanContext{}), allocs(root.Context())
	if untraced > nullCallAllocs || traced > untraced {
		t.Fatalf("a traced call allocates %.1f objects, an untraced one %.1f: pinned at %d and +0", traced, untraced, nullCallAllocs)
	}
}

// TestCallIDsUniqueUnderConcurrency: call ids come from an atomic counter,
// not from under rt.mu. Eight callers share one runtime; had two calls
// drawn the same id, the server's dedupe table would have answered the
// second from the first's reply (DupsSuppressed > 0, fewer served, a
// short total) and the counter would have lost an increment.
func TestCallIDsUniqueUnderConcurrency(t *testing.T) {
	server, client, _ := newPair(t)
	calc := &calculator{}
	ref, err := server.Export(calc)
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 8, 1000
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := client.Call(ref, "Accumulate", int64(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const calls = callers * each
	if got := client.nextSeq.Load(); got != calls {
		t.Fatalf("drew %d call ids for %d calls", got, calls)
	}
	if got := calc.Total(); got != calls {
		t.Fatalf("handler ran %d times, want %d", got, calls)
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.CallsSent != calls || cs.Retries != 0 || ss.CallsServed != calls || ss.DupsSuppressed != 0 {
		t.Fatalf("exactly-once counters moved: client %+v server %+v", cs, ss)
	}
}

// TestConcurrentCallsOverTCPInterleaveNoFrames: eight callers share one
// TCP connection each way, their calls and the server's replies leaving
// through each end's one sender, batched. Every echo must come back whole
// and to its own caller; payload sizes sit on both sides of the 4 KiB read
// buffer.
func TestConcurrentCallsOverTCPInterleaveNoFrames(t *testing.T) {
	server, client := tcpPair(t)
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 8, 100
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("caller-%d", c)
			payload := bytes.Repeat([]byte{byte(c + 1)}, 10+c*1500)
			for i := 0; i < each; i++ {
				res, err := client.Call(ref, "Echo", key, payload)
				if err != nil {
					t.Error(err)
					return
				}
				if res[0] != key || !bytes.Equal(res[1].([]byte), payload) {
					t.Errorf("caller %d call %d: reply is not its own echo", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := len(client.conns); got != 1 {
		t.Fatalf("connection pool size %d, want 1", got)
	}
}

// countedClock counts reads of a real clock.
type countedClock struct {
	netsim.Clock
	reads atomic.Int64
}

func (c *countedClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// countedNet hands its runtimes a countedClock (netsim.ClockProvider).
type countedNet struct {
	transport.Network
	clock *countedClock
}

func (n countedNet) Clock() netsim.Clock { return n.clock }

// TestUntracedCallClockReadsPinned: a call nobody traces reads the clock
// three times at the caller (start, the wait left before its deadline,
// end) and not at all at the server. (Six before the deadline reused the
// start and the net-phase stamps waited for a span.)
func TestUntracedCallClockReadsPinned(t *testing.T) {
	clock := &countedClock{Clock: netsim.Real()}
	server, client := pairOn(t, countedNet{transport.NewMemNetwork(netsim.Profile{Name: "zero"}), clock}, "server", "client")
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(ref, "Total"); err != nil { // dials
		t.Fatal(err)
	}
	const calls = 100
	before := clock.reads.Load()
	for i := 0; i < calls; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	if got := clock.reads.Load() - before; got > 3*calls {
		t.Fatalf("%d untraced calls read the clock %d times, pinned at 3 each", calls, got)
	}
}
