package rmi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// calculator is a test service exercising the dispatch conventions.
type calculator struct {
	mu    sync.Mutex
	total int64
}

func (c *calculator) Add(a, b int64) int64 { return a + b }

func (c *calculator) Accumulate(v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total += v
}

func (c *calculator) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *calculator) Div(a, b int64) (int64, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func (c *calculator) Sum(vs ...int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

func (c *calculator) Narrow(v int8) int8 { return v }

func (c *calculator) Echo(s string, b []byte) (string, []byte) { return s, b }

func (c *calculator) Slow(d int64) string {
	time.Sleep(time.Duration(d) * time.Millisecond)
	return "done"
}

// pair tests struct arguments.
type pair struct {
	A, B int64
}

func (c *calculator) Swap(p *pair) *pair { return &pair{A: p.B, B: p.A} }

func init() {
	codec.MustRegister("rmi_test.pair", pair{})
}

// newPair builds two connected runtimes over a loopback mem network.
func newPair(t *testing.T) (server, client *Runtime, net *transport.MemNetwork) {
	t.Helper()
	net = transport.NewMemNetwork(netsim.Loopback)
	var err error
	server, err = newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err = newRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client, net
}

func TestBasicCall(t *testing.T) {
	server, client, _ := newPair(t)
	ref, err := server.Export(&calculator{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Addr != "server" {
		t.Fatalf("ref: %v", ref)
	}
	res, err := client.Call(ref, "Add", int64(2), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != int64(5) {
		t.Fatalf("results: %#v", res)
	}
}

func TestVoidAndStatefulCall(t *testing.T) {
	server, client, _ := newPair(t)
	calc := &calculator{}
	ref, _ := server.Export(calc)
	for i := int64(1); i <= 4; i++ {
		if _, err := client.Call(ref, "Accumulate", i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.Call(ref, "Total")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(10) {
		t.Fatalf("total: %#v", res)
	}
}

func TestAppErrorBecomesRemoteError(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	_, err := client.Call(ref, "Div", int64(1), int64(0))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !re.IsApp() || re.Message != "division by zero" {
		t.Fatalf("remote error: %+v", re)
	}
	// The success path strips the nil error.
	res, err := client.Call(ref, "Div", int64(6), int64(2))
	if err != nil || len(res) != 1 || res[0] != int64(3) {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestNoSuchMethodAndObject(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})

	_, err := client.Call(ref, "Nope")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.FaultNoSuchMethod {
		t.Fatalf("want no-such-method, got %v", err)
	}

	bogus := RemoteRef{Addr: "server", ID: 9999}
	_, err = client.Call(bogus, "Add", int64(1), int64(2))
	if !errors.As(err, &re) || re.Code != wire.FaultNoSuchObject {
		t.Fatalf("want no-such-object, got %v", err)
	}
}

func TestBadArgs(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	var re *RemoteError

	_, err := client.Call(ref, "Add", int64(1)) // too few
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("arity: %v", err)
	}
	_, err = client.Call(ref, "Add", "one", "two") // wrong types
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("types: %v", err)
	}
	_, err = client.Call(ref, "Narrow", int64(300)) // overflows int8
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("overflow: %v", err)
	}
}

// selfDispatch dispatches its own calls. Its exported Reflected method is
// never reached: a Dispatcher's skeleton does not reflect.
type selfDispatch struct {
	sc     telemetry.SpanContext
	caller transport.Addr
}

func (d *selfDispatch) Dispatch(sc telemetry.SpanContext, _ time.Time, caller transport.Addr, method string, args []any) ([]any, error) {
	d.sc, d.caller = sc, caller
	switch method {
	case "Twice":
		n, err := invoke.Args1[int64](method, args, 0)
		if err != nil {
			return nil, err
		}
		return []any{2 * n}, nil
	case "Fail":
		return invoke.Result(method, nil, errors.New("refused"))
	}
	return nil, invoke.NoSuchMethod(d, method)
}

func (d *selfDispatch) Reflected() string { return "reflection" }

// TestDispatcherServesItsOwnCalls: an exported Dispatcher is its own
// skeleton, with no method plan, is handed the span context and the
// caller's address, and its errors reach the caller as the faults a
// reflective skeleton would send.
func TestDispatcherServesItsOwnCalls(t *testing.T) {
	server, client, hub := hubPair(t)
	d := &selfDispatch{}
	if sk, err := newSkeleton(d); err != nil || sk != Dispatcher(d) {
		t.Fatalf("skeleton of a Dispatcher: %v %v", sk, err)
	}
	ref, err := server.Export(d)
	if err != nil {
		t.Fatal(err)
	}
	root := hub.StartRoot("self", client.Clock().Now())
	defer func() { root.End(client.Clock().Now()) }()
	res, _, err := client.CallWithin(root.Context(), time.Time{}, ref, 0, "Twice", int64(21))
	if err != nil || len(res) != 1 || res[0] != int64(42) {
		t.Fatalf("Twice: %v %v", res, err)
	}
	if !d.sc.Valid() || d.sc.TraceID != root.Context().TraceID {
		t.Fatalf("dispatcher saw span context %+v, want one in trace %d", d.sc, root.Context().TraceID)
	}
	if d.caller != client.Addr() {
		t.Fatalf("dispatcher saw caller %q, want %q, the address the client's Hello named", d.caller, client.Addr())
	}
	var re *RemoteError
	for _, c := range []struct {
		method string
		args   []any
		code   string
	}{
		{"Twice", []any{"x"}, wire.FaultBadArgs},
		{"Twice", nil, wire.FaultBadArgs},
		{"Fail", nil, wire.FaultApp},
		{"Reflected", nil, wire.FaultNoSuchMethod},
		{"Nope", nil, wire.FaultNoSuchMethod},
	} {
		if _, err := client.Call(ref, c.method, c.args...); !errors.As(err, &re) || re.Code != c.code {
			t.Fatalf("%s%v: %v, want fault %s", c.method, c.args, err, c.code)
		}
	}
}

func TestNumericConversion(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	res, err := client.Call(ref, "Narrow", int64(-5))
	if err != nil {
		t.Fatal(err)
	}
	// The server narrows to int8; the wire normalizes integers back to int64.
	if res[0] != int64(-5) {
		t.Fatalf("narrow: %#v", res[0])
	}
}

func TestVariadic(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	res, err := client.Call(ref, "Sum", int64(1), int64(2), int64(3))
	if err != nil || res[0] != int64(6) {
		t.Fatalf("sum: %v %v", res, err)
	}
	res, err = client.Call(ref, "Sum") // zero variadic args
	if err != nil || res[0] != int64(0) {
		t.Fatalf("empty sum: %v %v", res, err)
	}
}

func TestStructArgsAndResults(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	res, err := client.Call(ref, "Swap", &pair{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res[0].(*pair)
	if !ok || p.A != 2 || p.B != 1 {
		t.Fatalf("swap: %#v", res[0])
	}
}

func TestStringsAndBytes(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	res, err := client.Call(ref, "Echo", "hi", []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "hi" || string(res[1].([]byte)) != "\x01\x02" {
		t.Fatalf("echo: %#v", res)
	}
}

func TestRemoteRefTravelsInArgs(t *testing.T) {
	// A reference exported at one site is passed through another and used.
	server, client, _ := newPair(t)
	calc := &calculator{}
	calcRef, _ := server.Export(calc)

	// relay returns whatever ref it was given.
	relay := &refRelay{}
	relayRef, _ := server.Export(relay)
	res, err := client.Call(relayRef, "Bounce", calcRef)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := res[0].(*RemoteRef)
	if !ok {
		t.Fatalf("bounced ref: %#v", res[0])
	}
	res, err = client.Call(*back, "Add", int64(20), int64(22))
	if err != nil || res[0] != int64(42) {
		t.Fatalf("call through bounced ref: %v %v", res, err)
	}
}

type refRelay struct{}

func (r *refRelay) Bounce(ref RemoteRef) RemoteRef { return ref }

func TestConcurrentCallsMultiplex(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			res, err := client.Call(ref, "Add", i, i)
			if err != nil {
				errs <- err
				return
			}
			if res[0] != 2*i {
				errs <- fmt.Errorf("got %v want %d", res[0], 2*i)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All calls shared one connection: exactly one dial happened.
	if got := len(client.conns); got != 1 {
		t.Fatalf("connection pool size %d, want 1", got)
	}
}

// ExportCount returns the number of currently exported objects.
func (rt *Runtime) ExportCount() int {
	rt.exportsMu.RLock()
	defer rt.exportsMu.RUnlock()
	return len(rt.exports)
}

func TestUnexport(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	if server.ExportCount() != 1 {
		t.Fatalf("export count: %d", server.ExportCount())
	}
	server.Unexport(ref.ID)
	if server.ExportCount() != 0 {
		t.Fatalf("export count after unexport: %d", server.ExportCount())
	}
	var re *RemoteError
	if _, err := client.Call(ref, "Total"); !errors.As(err, &re) || re.Code != wire.FaultNoSuchObject {
		t.Fatalf("want no-such-object after unexport, got %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	_, _, err := client.CallWithin(telemetry.SpanContext{}, time.Time{}, ref, 20*time.Millisecond, "Slow", int64(500))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestDisconnectFailsCallsAndReconnectRecovers(t *testing.T) {
	server, client, net := newPair(t)
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	net.Disconnect("client", "server")
	if _, err := client.Call(ref, "Total"); !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("want disconnected error, got %v", err)
	}
	net.Reconnect("client", "server")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatalf("after reconnect: %v", err)
	}
}

func TestServerRestartRedials(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err := newRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	if _, err := client.Call(ref, "Total"); err == nil {
		t.Fatal("call to closed server should fail")
	}
	// Bring a replacement up at the same address.
	server2, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	ref2, _ := server2.Export(&calculator{})
	if _, err := client.Call(ref2, "Total"); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
}

func TestCallOnZeroRef(t *testing.T) {
	_, client, _ := newPair(t)
	if _, err := client.Call(RemoteRef{}, "M"); err == nil {
		t.Fatal("zero ref must be rejected")
	}
}

func TestExportRejectsBadObjects(t *testing.T) {
	server, _, _ := newPair(t)
	if _, err := server.Export(nil); err == nil {
		t.Fatal("nil export must fail")
	}
	if _, err := server.Export(42); err == nil {
		t.Fatal("method-less export must fail")
	}
}

func TestObserverSeesRTT(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	type obs struct {
		method string
		rtt    time.Duration
	}
	seen := make(chan obs, 4)
	client, err := newRuntime(net, "client",
		WithObserver(func(_ transport.Addr, method string, rtt time.Duration, err error) {
			seen <- obs{method, rtt}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	o := <-seen
	if o.method != "Total" || o.rtt <= 0 {
		t.Fatalf("observation: %+v", o)
	}
}

func TestStatsCount(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{})
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	if s := client.Stats(); s.CallsSent != 3 || s.BytesSent == 0 {
		t.Fatalf("client stats: %+v", s)
	}
	if s := server.Stats(); s.CallsServed != 3 {
		t.Fatalf("server stats: %+v", s)
	}
}

func TestRMICostMatchesCalibratedLAN(t *testing.T) {
	// On the paper-calibrated LAN profile a null RMI should land near
	// 2.8 ms. Allow generous slack for scheduler noise.
	net := transport.NewMemNetwork(netsim.LAN10)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := newRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil { // warm the connection
		t.Fatal(err)
	}
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	per := time.Since(start) / n
	if per < 2*time.Millisecond || per > 8*time.Millisecond {
		t.Fatalf("per-call RMI %v, want ≈2.8ms (2-8ms band)", per)
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	rt, err := newRuntime(net, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Export(&calculator{}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("export after close: %v", err)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	net := transport.NewTCPNetwork()
	server, err := newRuntime(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := newRuntime(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{})
	res, err := client.Call(ref, "Add", int64(40), int64(2))
	if err != nil || res[0] != int64(42) {
		t.Fatalf("tcp call: %v %v", res, err)
	}
}

func TestServerRejectsPeersWithoutHello(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref, _ := server.Export(&calculator{})

	// A raw peer that speaks frames but skips the preamble: its call must
	// go unanswered and the connection must be dropped by the server.
	conn, err := net.Dial("rogue", "server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.EncodeCall(server.Registry(), &wire.Call{
		ID: 1, Target: uint64(ref.ID), Method: "Total",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("server must drop preamble-less peers, got %v", err)
	}

	// A peer at another protocol revision is dropped too: the previous
	// one, 4, whose Hello is laid out as this one's but whose calls name a
	// proxy-in's own methods Get, Put, PutCluster and Version (a revision-5
	// proxy-in would take them for its master's), and one from the future.
	hello := wire.EncodeHello(wire.Identity{Addr: "rogue", Incarnation: 1})
	const versionAt = 5 // after the kind byte and the magic
	for _, version := range []byte{wire.ProtocolVersion - 1, 99} {
		conn2, err := net.Dial(transport.Addr(fmt.Sprintf("rogue-v%d", version)), "server")
		if err != nil {
			t.Fatal(err)
		}
		defer conn2.Close()
		bad := append([]byte{}, hello...)
		bad[versionAt] = version
		if err := conn2.Send(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := conn2.Recv(); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("server must drop a revision-%d peer, got %v", version, err)
		}
	}

	// Well-behaved clients still work.
	client, err := newRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
}
