package rmi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// withWidth sizes a runtime's connection pools. It exists only in tests:
// production has one width per clock (NewRuntime) and no option for it.
func withWidth(n int) Option { return func(rt *Runtime) { rt.width = n } }

// suiteWidth, when nonzero, is the width of every runtime a test builds
// through newRuntime (TestDispatchSuiteAtEachWidth sets it).
var suiteWidth int

func newRuntime(net transport.Network, addr transport.Addr, opts ...Option) (*Runtime, error) {
	if suiteWidth != 0 {
		opts = append(opts, withWidth(suiteWidth))
	}
	return NewRuntime(net, addr, opts...)
}

// TestDispatchSuiteAtEachWidth reruns the package's behavioural tests with
// every runtime at width 1 and again at the production width. Run plainly,
// a test gets the width its clock implies (real: poolWidth, virtual: 1);
// here the real-clock tests also run inline and the virtual-clock ones
// also run on a pool, so neither clock hides a width.
func TestDispatchSuiteAtEachWidth(t *testing.T) {
	suite := []func(*testing.T){
		TestBasicCall, TestVoidAndStatefulCall, TestAppErrorBecomesRemoteError,
		TestNoSuchMethodAndObject, TestBadArgs, TestNumericConversion, TestVariadic,
		TestStructArgsAndResults, TestStringsAndBytes, TestRemoteRefTravelsInArgs,
		TestConcurrentCallsMultiplex, TestUnexport, TestCallTimeout,
		TestDisconnectFailsCallsAndReconnectRecovers, TestServerRestartRedials,
		TestObserverSeesRTT, TestStatsCount, TestRuntimeCloseIdempotent,
		TestTCPTransportEndToEnd, TestServerRejectsPeersWithoutHello,
		TestRetryAfterDroppedRequest, TestRetryAfterDroppedReply, TestTimeoutThenLateReply,
		TestRetryExhaustion, TestOverallDeadlineCapsBackoff, TestNoRetryFailsFast,
		TestApplicationFaultsNeverRetry,
		TestRestartedClientSupersedesItsLog, TestEvictedReplyIsRefusedNotReexecuted,
		TestCallerOwnsBorrowedResults,
		TestCallIDsUniqueUnderConcurrency, TestConcurrentCallsOverTCPInterleaveNoFrames,
		TestTraceRetriedCallIsOneLogicalSpan, TestUntracedCallsCarryNoContextAndCostNoSpans,
		TestTraceContextFlowsThroughHublessRuntime, TestStatsReadTheHubCounters,
	}
	defer func() { suiteWidth = 0 }()
	for _, width := range []int{1, poolWidth} {
		suiteWidth = width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			for _, fn := range suite {
				name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
				t.Run(name[strings.LastIndex(name, ".")+1:], fn)
			}
		})
	}
}

// gate is an exported object whose calls a test can hold and watch. It
// waits on a clock-aware Cond, so a held handler counts as idle under a
// virtual clock.
type gate struct {
	mu   sync.Mutex
	cond netsim.Cond
	log  []string
	open map[string]bool
}

func newGate(clock netsim.Clock) *gate {
	g := &gate{open: map[string]bool{}}
	g.cond.Init(clock, &g.mu)
	return g
}

func (g *gate) note(event string) {
	g.log = append(g.log, event)
	g.cond.Broadcast()
}

// Hold logs "<tag>+", blocks until release(tag), and logs "<tag>-".
func (g *gate) Hold(tag string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.note(tag + "+")
	for !g.open[tag] {
		g.cond.Wait()
	}
	g.note(tag + "-")
	return tag
}

// Mark logs tag and returns.
func (g *gate) Mark(tag string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.note(tag)
	return tag
}

func (g *gate) release(tags ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, tag := range tags {
		g.open[tag] = true
	}
	g.cond.Broadcast()
}

// await blocks until every event has been logged.
func (g *gate) await(events ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, event := range events {
		for !slices.Contains(g.log, event) {
			g.cond.Wait()
		}
	}
}

func (g *gate) events() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.log, " ")
}

// poolWorld is one server of a given width on one clock, with a gate
// exported on it.
type poolWorld struct {
	t      *testing.T
	clock  netsim.Clock
	net    *transport.MemNetwork
	server *Runtime
	width  int
	gate   *gate
	ref    RemoteRef
}

// onPools runs body once per clock and width, on a goroutine the clock
// tracks. body reports with t.Error: it does not run on the test goroutine.
func onPools(t *testing.T, widths []int, body func(w *poolWorld)) {
	for _, virtual := range []bool{false, true} {
		for _, width := range widths {
			name := fmt.Sprintf("real/width=%d", width)
			if virtual {
				name = fmt.Sprintf("virtual/width=%d", width)
			}
			t.Run(name, func(t *testing.T) {
				w := &poolWorld{t: t, clock: netsim.Real(), width: width}
				run := func(fn func()) { fn() }
				if virtual {
					vc := netsim.NewVirtualClock()
					defer vc.Stop()
					w.clock, run = vc, vc.Run
				}
				w.net = transport.NewMemNetworkClock(netsim.Loopback, 1, w.clock)
				run(func() {
					var err error
					if w.server, err = NewRuntime(w.net, "server", withWidth(width)); err != nil {
						t.Error(err)
						return
					}
					defer w.server.Close()
					w.gate = newGate(w.clock)
					w.ref, _ = w.server.Export(w.gate)
					body(w)
				})
			})
		}
	}
}

// client starts a runtime; the world's server outlives it.
func (w *poolWorld) client(addr transport.Addr, p RetryPolicy) *Runtime {
	c, err := NewRuntime(w.net, addr, WithRetryPolicy(p))
	if err != nil {
		w.t.Error(err)
		panic(err)
	}
	return c
}

// bg runs fn on a tracked goroutine and returns the wait for it.
func (w *poolWorld) bg(fn func()) (wait func()) {
	wg := netsim.NewWaitGroup(w.clock)
	wg.Add(1)
	w.clock.Go(func() {
		defer wg.Done()
		fn()
	})
	return wg.Wait
}

// call invokes method(tag) on the gate and reports anything but success.
func (w *poolWorld) call(c *Runtime, method, tag string) {
	if res, err := c.Call(w.ref, method, tag); err != nil || res[0] != tag {
		w.t.Errorf("%s(%s) = %v, %v", method, tag, res, err)
	}
}

// settle polls cond on the world's clock. The bound is a watchdog against
// a hang, not a budget: nothing is asserted about how long it took.
func (w *poolWorld) settle(what string, cond func() bool) {
	for i := 0; !cond(); i++ {
		if i == 20000 {
			w.t.Errorf("gave up waiting for %s", what)
			return
		}
		w.clock.Sleep(time.Millisecond)
	}
}

// TestPoolHeldHandlerAndFrameOrder: a handler that blocks occupies one
// worker, and the connection's next call is served past it; at width 1
// there is no worker, the reader is inside the handler, and the next call
// runs strictly after it, in frame order.
func TestPoolHeldHandlerAndFrameOrder(t *testing.T) {
	onPools(t, []int{1, 4}, func(w *poolWorld) {
		client := w.client("client", RetryPolicy{MaxAttempts: 1})
		defer client.Close()
		a := w.bg(func() { w.call(client, "Hold", "a") })
		w.gate.await("a+")
		want := "a+ b a-"
		if w.width == 1 {
			want = "a+ a- b"
			b := w.bg(func() { w.call(client, "Mark", "b") })
			w.settle("b's frame to leave the client", func() bool { return client.Stats().CallsSent == 2 })
			if got := w.gate.events(); got != "a+" {
				w.t.Errorf("with a held, the gate saw %q, want only a+", got)
			}
			defer b()
		} else {
			w.call(client, "Mark", "b") // returns while a is still held
		}
		w.gate.release("a")
		a()
		w.gate.await("b")
		if got := w.gate.events(); got != want {
			w.t.Errorf("gate saw %q, want %q", got, want)
		}
	})
}

// TestPoolGoroutinesBounded: sequential calls run on parked workers, not
// on new goroutines, and a burst leaves no more than the idle floor behind.
// (On one P sequential calls reuse a single worker. With more, the next
// call can arrive between a worker's reply and its parking and start a
// second one, so what is pinned is the floor, whatever the call count.)
func TestPoolGoroutinesBounded(t *testing.T) {
	server, client := benchPair(t)
	calc, _ := server.Export(&calculator{})
	g := newGate(netsim.Real())
	held, _ := server.Export(g)
	if _, err := client.Call(calc, "Total"); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine() // one worker is parked
	for i := 0; i < 10000; i++ {
		if _, err := client.Call(calc, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n > base+idleFloor-1 {
		t.Fatalf("%d goroutines after 10000 sequential calls, %d after the first: more than the idle floor", n, base)
	}

	const burst = 4 * idleFloor
	var wg sync.WaitGroup
	tags := make([]string, burst)
	for i := range tags {
		tags[i] = fmt.Sprint("k", i)
		wg.Add(1)
		go func(tag string) {
			defer wg.Done()
			if _, err := client.Call(held, "Hold", tag); err != nil {
				t.Error(err)
			}
		}(tags[i])
	}
	for _, tag := range tags {
		g.await(tag + "+")
	}
	if n := runtime.NumGoroutine(); n < base+burst {
		t.Fatalf("%d goroutines with %d calls held, want at least %d", n, burst, base+burst)
	}
	g.release(tags...)
	wg.Wait()
	// One worker was parked at base; up to idleFloor may be now.
	for i := 0; runtime.NumGoroutine() > base+idleFloor-1; i++ {
		if i == 20000 {
			t.Fatalf("%d goroutines after the burst drained, want at most %d", runtime.NumGoroutine(), base+idleFloor-1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolBusyIsRefusedNotExecuted: with every worker of the connection
// held, the next call is answered busy at once, without entering the
// dedupe table or running; a caller with retries left sends the same id
// again and it runs once, as a first arrival, when a worker frees up.
func TestPoolBusyIsRefusedNotExecuted(t *testing.T) {
	onPools(t, []int{3}, func(w *poolWorld) {
		// Two workers, both held: a one-attempt caller sees the refusal itself.
		strict := w.client("strict", RetryPolicy{MaxAttempts: 1})
		defer strict.Close()
		a := w.bg(func() { w.call(strict, "Hold", "a") })
		b := w.bg(func() { w.call(strict, "Hold", "b") })
		w.gate.await("a+", "b+")
		_, err := strict.Call(w.ref, "Mark", "c")
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != wire.FaultBusy {
			w.t.Errorf("call on a saturated connection returned %v, want a %s RemoteError", err, wire.FaultBusy)
		}
		if n := w.server.dedupe.size(strict.id); n != 2 {
			w.t.Errorf("dedupe table holds %d calls of the refused client, want the 2 held", n)
		}
		if ss := w.server.Stats(); ss.CallsServed != 2 {
			w.t.Errorf("server executed %d calls, want the 2 held", ss.CallsServed)
		}
		w.gate.release("a", "b")
		a()
		b()

		// The same, with retries: the refusal is retried under one id.
		client := w.client("client", fastRetry(1000, 0))
		defer client.Close()
		d := w.bg(func() { w.call(client, "Hold", "d") })
		e := w.bg(func() { w.call(client, "Hold", "e") })
		w.gate.await("d+", "e+")
		f := w.bg(func() { w.call(client, "Mark", "f") })
		w.settle("a refusal to be retried", func() bool { return client.Stats().Retries > 0 })
		if n := w.server.dedupe.size(client.id); n != 2 {
			w.t.Errorf("dedupe table holds %d calls while f is refused, want 2", n)
		}
		if ss := w.server.Stats(); ss.CallsServed != 4 {
			w.t.Errorf("server executed %d calls while f is refused, want 4", ss.CallsServed)
		}
		w.gate.release("d")
		d()
		f()
		if got := w.gate.events(); strings.Count(got, "f") != 1 {
			w.t.Errorf("gate saw %q, want f exactly once", got)
		}
		if n, ids := w.server.dedupe.size(client.id), client.nextSeq.Load(); n != 3 || ids != 3 {
			w.t.Errorf("%d calls in the dedupe table under %d ids, want 3 and 3", n, ids)
		}
		cs, ss := client.Stats(), w.server.Stats()
		if ss.CallsServed != 5 || ss.DupsSuppressed != 0 || cs.RemoteFaults != cs.Retries {
			w.t.Errorf("server %+v, client %+v: want 5 served, no duplicate, one busy fault per retry", ss, cs)
		}
		w.gate.release("e")
		e()
	})
}

// TestPoolDuplicateOfInFlightCallWaits: a second frame of a call that is
// still executing takes a worker and waits for the first execution's
// reply; it is neither refused nor run.
func TestPoolDuplicateOfInFlightCallWaits(t *testing.T) {
	onPools(t, []int{3}, func(w *poolWorld) {
		conn, err := w.net.Dial("raw", "server")
		if err != nil {
			w.t.Error(err)
			return
		}
		defer conn.Close()
		frame, err := wire.EncodeCall(w.server.Registry(), &wire.Call{
			ID: 7, Target: uint64(w.ref.ID), Method: "Hold", Args: []any{"a"},
		})
		if err != nil {
			w.t.Error(err)
			return
		}
		hello := wire.EncodeHello(wire.Identity{Addr: "raw", Incarnation: 1})
		for _, f := range [][]byte{hello, frame} {
			if err := conn.Send(f); err != nil {
				w.t.Error(err)
				return
			}
		}
		w.gate.await("a+")
		sent := uint64(len(hello) + 2*len(frame))
		if err := conn.Send(frame); err != nil {
			w.t.Error(err)
			return
		}
		w.settle("the duplicate to be read", func() bool { return w.server.Stats().BytesReceived == sent })
		w.clock.Sleep(time.Millisecond) // and to reach the dedupe table
		w.gate.release("a")
		for i := 0; i < 2; i++ {
			got, err := conn.Recv()
			if err != nil {
				w.t.Error(err)
				return
			}
			msg, err := wire.Decode(w.server.Registry(), got)
			if reply, ok := msg.(*wire.Reply); err != nil || !ok || reply.ID != 7 || reply.Results[0] != "a" {
				w.t.Errorf("response %d is %#v (%v), want the reply to call 7", i, msg, err)
			}
		}
		if ss := w.server.Stats(); ss.CallsServed != 1 || ss.DupsSuppressed != 1 {
			w.t.Errorf("server %+v, want 1 served and 1 duplicate suppressed", ss)
		}
		if got := w.gate.events(); got != "a+ a-" {
			w.t.Errorf("gate saw %q, want one execution", got)
		}
	})
}

// TestDispatchInlineHasNoQueuePhase: at width 1 the reader that stamped a
// frame's receipt is the goroutine that serves it, with no event between,
// so under a virtual clock the serve span's queue phase is exactly zero
// (a zero phase is not recorded). The attribution baseline rests on it.
func TestDispatchInlineHasNoQueuePhase(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	clock.Run(func() {
		hub := telemetry.NewHub("server")
		server, err := NewRuntime(net, "server", WithTelemetry(hub))
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		client, err := NewRuntime(net, "client")
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		if server.width != 1 {
			t.Errorf("a runtime on a virtual clock has width %d, want 1", server.width)
		}
		ref, _ := server.Export(&calculator{})
		if _, _, err := client.CallWithin(telemetry.SpanContext{TraceID: 1, SpanID: 2}, time.Time{}, ref, 0, "Total"); err != nil {
			t.Error(err)
		}
		serves := spansNamed(hub.Spans(0), "serve:Total")
		if len(serves) != 1 {
			t.Errorf("serve spans = %d, want 1", len(serves))
			return
		}
		for _, ph := range serves[0].Phases {
			if ph.Phase == telemetry.PhaseQueue {
				t.Errorf("inline serve recorded a queue phase of %d ns", ph.NS)
			}
		}
	})
}
