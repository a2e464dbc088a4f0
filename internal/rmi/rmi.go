// Package rmi implements remote method invocation between OBIWAN sites.
//
// The original OBIWAN prototype sat on top of Java RMI: objects extending
// UnicastRemoteObject were exported, stubs/skeletons were generated by the
// JVM toolchain, and remote references could travel inside call arguments.
// Go has none of this, so this package rebuilds the substrate:
//
//   - a Runtime per site owns a transport listener and a pool of client
//     connections;
//   - Export publishes any Go object: a Dispatcher dispatches its own
//     inbound calls, and a reflection-based skeleton dispatches them to
//     any other object's exported methods;
//   - RemoteRef is a serializable handle (site address + object id) that
//     can be passed in arguments and results, exactly like an RMI stub;
//   - Call performs a synchronous request/response with multiplexing, so
//     many concurrent calls share one connection.
//
// Method convention: any exported method whose parameter and result types
// are codec-encodable can be invoked remotely. If the last result is an
// error it is transmitted as a fault and re-surfaces at the caller as a
// *RemoteError (the analogue of a Java remote exception).
package rmi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// ObjID identifies an exported object within one runtime.
type ObjID uint64

// RemoteRef is a location-transparent handle to an exported object. It is
// codec-registered, so it can travel inside RMI arguments and replica
// payloads — this is how proxy-in references reach other sites.
type RemoteRef struct {
	// Addr is the owning runtime's listen address.
	Addr transport.Addr
	// ID is the exported object id at that runtime.
	ID ObjID
}

// IsZero reports whether r is the zero (absent) reference.
func (r RemoteRef) IsZero() bool { return r.Addr == "" && r.ID == 0 }

func (r RemoteRef) String() string {
	return fmt.Sprintf("rmi://%s/%d", r.Addr, r.ID)
}

// RemoteError is an error raised by the remote side of a call.
type RemoteError struct {
	// Code is one of the wire.Fault* codes.
	Code string
	// Method is the invoked method name.
	Method string
	// Message is the remote error text.
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rmi: remote %s error in %s: %s", e.Code, e.Method, e.Message)
}

// IsApp reports whether the failure came from the application method itself
// rather than the RMI machinery.
func (e *RemoteError) IsApp() bool { return e.Code == wire.FaultApp }

// IsBusy reports whether the server refused the call because the connection
// was serving all it may (wire.FaultBusy). The call did not run; it surfaces
// only once the retry policy is exhausted.
func (e *RemoteError) IsBusy() bool { return e.Code == wire.FaultBusy }

// ErrTimeout is returned when a call's reply does not arrive in time.
var ErrTimeout = errors.New("rmi: call timed out")

// ErrRuntimeClosed is returned for operations on a closed runtime.
var ErrRuntimeClosed = errors.New("rmi: runtime closed")

func init() {
	codec.MustRegister("obiwan.rmi.RemoteRef", RemoteRef{})
}

// Stats counts runtime activity. Read a snapshot with Runtime.Stats.
type Stats struct {
	CallsSent      uint64
	CallsServed    uint64 // invocations actually executed (duplicates excluded)
	SendErrors     uint64
	RemoteFaults   uint64
	Retries        uint64 // re-attempts made by the retry policy
	DupsSuppressed uint64 // retried calls answered from the dedupe table
	BytesSent      uint64
	BytesReceived  uint64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithCallTimeout sets the default per-call timeout (default 10s).
func WithCallTimeout(d time.Duration) Option {
	return func(rt *Runtime) { rt.callTimeout = d }
}

// WithObserver installs a callback invoked after every outbound call with
// its round-trip time; the QoS monitor uses this to estimate link quality.
func WithObserver(fn func(addr transport.Addr, method string, rtt time.Duration, err error)) Option {
	return func(rt *Runtime) { rt.observer = fn }
}

// WithRetryPolicy sets the runtime's retry policy for outbound calls
// (default DefaultRetryPolicy; use RetryPolicy{MaxAttempts: 1} to fail fast).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(rt *Runtime) { rt.retry = p.normalized() }
}

// WithTelemetry attaches a telemetry hub: outbound and inbound calls are
// traced (the wire trace context in Call frames parents server-side serve
// spans under the client's call span) and the rmi.* metrics are recorded.
// A nil hub — the default — keeps the hot path at a single nil check per
// instrument: spans and the latency histogram degrade to no-ops, and the
// counters behind Stats stay private to the runtime. A hub serves ONE
// runtime: Stats reads the hub's rmi.* counters, so two runtimes sharing a
// hub would report each other's traffic.
func WithTelemetry(h *telemetry.Hub) Option {
	return func(rt *Runtime) { rt.tel = h }
}

// WithIncarnation pins the runtime's client identity to a durable
// incarnation number (site.WithDurability persists one per WAL directory
// and bumps it on every rebirth). Durable identities live in their own
// namespace, so a reborn site never collides with the clock-drawn
// incarnations of ephemeral runtimes — peer dedupe tables can therefore
// never confuse a new life's call ids with its previous one's.
func WithIncarnation(n uint64) Option {
	return func(rt *Runtime) { rt.id.Incarnation = n }
}

// Runtime is one site's RMI endpoint: server (exported objects) and client
// (outbound calls) in one. Runtimes are safe for concurrent use.
type Runtime struct {
	network     transport.Network
	clock       netsim.Clock // inherited from the network (netsim.ClockProvider)
	width       int          // goroutines per inbound connection (see connPool)
	batched     bool         // the network writes a batch as one write (TCP): see sender
	local       transport.Addr
	reg         *codec.Registry
	callTimeout time.Duration
	observer    func(transport.Addr, string, time.Duration, error)
	retry       RetryPolicy
	id          wire.Identity // this incarnation, named in every Hello it sends
	dedupe      *dedupeTable
	calls       stateList // the states its calls send (LendCallState)
	tel         *telemetry.Hub
	flight      *telemetry.FlightRecorder // nil no-op when tel is nil

	// The runtime's counters, one set: Stats reads them and, with a hub,
	// they are the hub's rmi.* instruments. Resolved once at construction
	// and never nil — without a hub they point into own, so counting costs
	// no allocation and no nil branch. reconnects and latency exist only
	// in the hub and are nil no-ops without one.
	met struct {
		calls        *telemetry.Counter
		served       *telemetry.Counter
		retries      *telemetry.Counter
		dedupeHits   *telemetry.Counter
		sendErrors   *telemetry.Counter
		remoteFaults *telemetry.Counter
		bytesSent    *telemetry.Counter
		bytesRecv    *telemetry.Counter
		reconnects   *telemetry.Counter
		latency      *telemetry.Histogram
	}
	own [8]telemetry.Counter

	ln     transport.Listener
	closed chan struct{}
	wg     *netsim.WaitGroup // clock-aware: Close can wait under a virtual clock

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	// The export table has its own lock: every served call reads it, and
	// mu is taken by every outbound call (getConn).
	exportsMu sync.RWMutex
	exports   map[ObjID]Dispatcher
	nextID    uint64

	mu          sync.Mutex
	conns       map[transport.Addr]*clientConn
	serverConns map[transport.Conn]struct{}

	nextSeq atomic.Uint64 // call ids; not under mu, so a call takes no runtime-wide lock
}

// runtimeCount counts the process's runtimes; it seeds each one's backoff
// jitter.
var runtimeCount atomic.Uint64

// lastEphemeral is the last ephemeral incarnation handed out: the runtime
// clock's nanoseconds at NewRuntime (the real clock's on any network that
// crosses processes), kept strictly increasing within the process. A later
// life of an address, in this process or a later one, therefore has a
// higher incarnation than an earlier life and supersedes it in peer dedupe
// tables. A count that restarted with the process would give
// two processes one identity, and a peer would answer the second one's call
// k with the reply it recorded for the first one's.
var lastEphemeral atomic.Uint64

func ephemeralIncarnation(clock netsim.Clock) uint64 {
	for {
		last := lastEphemeral.Load()
		if next := max(uint64(clock.Now().UnixNano()), last+1); lastEphemeral.CompareAndSwap(last, next) {
			return next
		}
	}
}

// NewRuntime binds a runtime at local on network and starts serving. When
// the network carries a simulation clock (netsim.ClockProvider — the
// in-memory transport does), the runtime inherits it: retry backoff, call
// deadlines, and every internal goroutine then live on the network's
// timeline, virtual or real, with no extra configuration.
func NewRuntime(network transport.Network, local transport.Addr, opts ...Option) (*Runtime, error) {
	seed := runtimeCount.Add(1)
	clock := netsim.Real()
	if cp, ok := network.(netsim.ClockProvider); ok {
		clock = cp.Clock()
	}
	width := poolWidth
	_, isTCP := network.(*transport.TCPNetwork)
	if netsim.Virtual(clock) != nil {
		width = 1 // one goroutine runs at a time: a hand-off buys an event, not parallelism
	}
	rt := &Runtime{
		network:     network,
		clock:       clock,
		width:       width,
		batched:     isTCP,
		local:       local,
		reg:         codec.DefaultRegistry(),
		callTimeout: 10 * time.Second,
		retry:       DefaultRetryPolicy().normalized(),
		dedupe:      newDedupeTable(clock),
		closed:      make(chan struct{}),
		wg:          netsim.NewWaitGroup(clock),
		rng:         rand.New(rand.NewSource(int64(seed))),
		exports:     make(map[ObjID]Dispatcher),
		conns:       make(map[transport.Addr]*clientConn),
		serverConns: make(map[transport.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(rt)
	}
	rt.flight = rt.tel.Flight()
	m := rt.tel.Metrics()
	counter := func(i int, name string) *telemetry.Counter {
		if m == nil {
			return &rt.own[i]
		}
		return m.Counter(name)
	}
	rt.met.calls = counter(0, "rmi.calls")
	rt.met.served = counter(1, "rmi.calls.served")
	rt.met.retries = counter(2, "rmi.retries")
	rt.met.dedupeHits = counter(3, "rmi.dedupe.hits")
	rt.met.sendErrors = counter(4, "rmi.send.errors")
	rt.met.remoteFaults = counter(5, "rmi.remote.faults")
	rt.met.bytesSent = counter(6, "rmi.bytes.sent")
	rt.met.bytesRecv = counter(7, "rmi.bytes.recv")
	if m != nil {
		rt.met.reconnects = m.Counter("rmi.reconnects")
		rt.met.latency = m.Histogram("rmi.call.latency_ns")
	}
	ln, err := network.Listen(local)
	if err != nil {
		return nil, fmt.Errorf("rmi: bind %q: %w", local, err)
	}
	rt.ln = ln
	rt.local = ln.Addr() // TCP ":0" resolves to the chosen port
	rt.id.Addr, rt.id.Durable = string(rt.local), rt.id.Incarnation != 0
	if !rt.id.Durable {
		rt.id.Incarnation = ephemeralIncarnation(rt.clock)
	}
	rt.wg.Add(1)
	rt.clock.Go(rt.acceptLoop)
	return rt, nil
}

// Clock returns the runtime's time source. Components built over the
// runtime (prefetchers, schedulers) must start their background goroutines
// with it so virtual-clock quiescence accounting stays sound.
func (rt *Runtime) Clock() netsim.Clock { return rt.clock }

// Addr returns the runtime's listen address.
func (rt *Runtime) Addr() transport.Addr { return rt.local }

// Registry returns the codec registry used for marshalling.
func (rt *Runtime) Registry() *codec.Registry { return rt.reg }

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		CallsSent:      rt.met.calls.Load(),
		CallsServed:    rt.met.served.Load(),
		SendErrors:     rt.met.sendErrors.Load(),
		RemoteFaults:   rt.met.remoteFaults.Load(),
		Retries:        rt.met.retries.Load(),
		DupsSuppressed: rt.met.dedupeHits.Load(),
		BytesSent:      rt.met.bytesSent.Load(),
		BytesReceived:  rt.met.bytesRecv.Load(),
	}
}

// Telemetry returns the runtime's hub (nil when telemetry is disabled).
func (rt *Runtime) Telemetry() *telemetry.Hub { return rt.tel }

// Export publishes obj for remote invocation and returns its reference.
// A reference names no interface; a trailing name, which callers written
// before revision 3 still pass, is ignored.
func (rt *Runtime) Export(obj any, _ ...string) (RemoteRef, error) {
	sk, err := newSkeleton(obj)
	if err != nil {
		return RemoteRef{}, err
	}
	rt.exportsMu.Lock()
	defer rt.exportsMu.Unlock()
	select {
	case <-rt.closed:
		return RemoteRef{}, ErrRuntimeClosed
	default:
	}
	rt.nextID++
	id := ObjID(rt.nextID)
	rt.exports[id] = sk
	return RemoteRef{Addr: rt.local, ID: id}, nil
}

// ExportWithID publishes obj at a fixed object id — the durable-recovery
// path: a restarted site must re-export its proxy-ins at the exact ids
// its previous incarnation handed out, or every provider reference held
// by remote replicas would dangle. The id must be nonzero and free; the
// allocator advances past it so later Exports mint fresh ids.
func (rt *Runtime) ExportWithID(id ObjID, obj any) (RemoteRef, error) {
	if id == 0 {
		return RemoteRef{}, fmt.Errorf("rmi: export at id 0")
	}
	sk, err := newSkeleton(obj)
	if err != nil {
		return RemoteRef{}, err
	}
	rt.exportsMu.Lock()
	defer rt.exportsMu.Unlock()
	select {
	case <-rt.closed:
		return RemoteRef{}, ErrRuntimeClosed
	default:
	}
	if _, taken := rt.exports[id]; taken {
		return RemoteRef{}, fmt.Errorf("rmi: object id %d already exported", id)
	}
	rt.exports[id] = sk
	if uint64(id) > rt.nextID {
		rt.nextID = uint64(id)
	}
	return RemoteRef{Addr: rt.local, ID: id}, nil
}

// Unexport withdraws an exported object. Subsequent calls to it fault with
// wire.FaultNoSuchObject. Unexporting an unknown id is a no-op.
func (rt *Runtime) Unexport(id ObjID) {
	rt.exportsMu.Lock()
	defer rt.exportsMu.Unlock()
	delete(rt.exports, id)
}

// lookupExport fetches an exported object's dispatcher by id, nil when none
// is exported under it.
func (rt *Runtime) lookupExport(id ObjID) Dispatcher {
	rt.exportsMu.RLock()
	defer rt.exportsMu.RUnlock()
	return rt.exports[id]
}

// Close shuts the runtime down: the listener stops, server connections
// close, and pending outbound calls fail.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	select {
	case <-rt.closed:
		rt.mu.Unlock()
		return nil
	default:
	}
	close(rt.closed)
	conns := make([]*clientConn, 0, len(rt.conns))
	for _, c := range rt.conns {
		conns = append(conns, c)
	}
	rt.conns = make(map[transport.Addr]*clientConn)
	inbound := make([]transport.Conn, 0, len(rt.serverConns))
	for c := range rt.serverConns {
		inbound = append(inbound, c)
	}
	rt.mu.Unlock()

	_ = rt.ln.Close()
	for _, c := range conns {
		c.shutdown(ErrRuntimeClosed)
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	rt.wg.Wait()
	return nil
}

// acceptLoop serves inbound connections until the listener closes.
func (rt *Runtime) acceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.ln.Accept()
		if err != nil {
			return
		}
		rt.wg.Add(1)
		rt.clock.Go(func() { rt.serveConn(conn) })
	}
}

// serveConn reads call frames from one inbound connection and routes each
// through the connection's pool (connPool.dispatch). It decodes every frame
// through the connection's one string memo, which no other goroutine sees.
func (rt *Runtime) serveConn(conn transport.Conn) {
	defer rt.wg.Done()
	defer conn.Close()
	rt.mu.Lock()
	rt.serverConns[conn] = struct{}{}
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.serverConns, conn)
		rt.mu.Unlock()
	}()
	var memo codec.Memo
	// The first frame must be the protocol preamble with a matching
	// version; anything else is a foreign or incompatible peer. It names
	// the caller of every call the connection carries.
	frame, err := conn.Recv()
	if err != nil {
		return
	}
	rt.met.bytesRecv.Add(uint64(len(frame)))
	msg, err := wire.DecodeMemo(rt.reg, &memo, frame)
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || hello.Version != wire.ProtocolVersion {
		return
	}
	pool := newConnPool(rt, conn, hello.Identity)
	defer pool.drain()
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		rt.met.bytesRecv.Add(uint64(len(frame)))
		msg, err := wire.DecodeMemo(rt.reg, &memo, frame)
		if err != nil {
			// Undecodable frame: drop the connection; the peer will redial.
			return
		}
		call, ok := msg.(*wire.Call)
		if !ok {
			continue // replies/faults are client-side frames; ignore
		}
		job := inbound{call: call}
		// Frame receipt, the queue phase's epoch: read for a serve span only.
		if rt.tel.Enabled() && (telemetry.SpanContext{TraceID: call.TraceID, SpanID: call.SpanID}).Valid() {
			job.recvAt = rt.clock.Now()
		}
		pool.dispatch(job)
	}
}

// dispatchOnce runs one inbound call of caller at most once: a (caller,
// call ID) pair already in the dedupe table — a retry of a call whose reply
// was lost, or whose first arrival is still executing — is answered from the
// recorded response frame instead of re-invoking the method, or refused with
// wire.FaultReplyEvicted when that frame has been evicted. A call to a
// method its target declares Idempotent bypasses the table: it runs on
// every arrival.
func (rt *Runtime) dispatchOnce(caller wire.Identity, call *wire.Call, recvAt time.Time) wire.Frame {
	d := rt.lookupExport(ObjID(call.Target))
	if i, ok := d.(Idempotent); ok && i.Idempotent(call.Method) {
		return rt.dispatch(d, transport.Addr(caller.Addr), call, recvAt)
	}
	e, dup := rt.dedupe.begin(caller, call.ID)
	if !dup {
		frame := rt.dispatch(d, transport.Addr(caller.Addr), call, recvAt)
		rt.dedupe.complete(e, call.ID, frame)
		return frame
	}
	// Answered from the dedupe table: no serve span is minted, so a
	// retried call contributes exactly one server-side span per logical
	// invocation no matter how many frames arrived. The wait is a
	// clock-aware latch: under a virtual clock the duplicate counts as
	// idle while the first execution runs.
	frame, ok := rt.dedupe.await(e)
	rt.met.dedupeHits.Inc()
	if !ok {
		return wire.FrameOf(wire.EncodeFault(&wire.Fault{
			ID: call.ID, Code: wire.FaultReplyEvicted,
			Message: fmt.Sprintf("call %d ran once; its reply is no longer retained", call.ID),
		}))
	}
	return frame
}

// dispatch runs one inbound call and encodes its response frame. When the
// call carries a trace context and telemetry is on, the invocation runs
// under a serve span parented to the caller's span; its context is also
// offered to the target method (see Dispatcher), which is how causal
// chains cross the wire and keep growing on the server side. The serve
// span self-attributes its time: queue (frame receipt to dispatch — zero
// under the virtual clock's inline serve path) and serve (the invocation
// itself), both bounded by one reading that the target starts its span at
// too. d is the target's Dispatcher, nil when it is not exported, and
// caller the calling runtime's address, which d is handed.
func (rt *Runtime) dispatch(d Dispatcher, caller transport.Addr, call *wire.Call, recvAt time.Time) wire.Frame {
	rt.met.served.Inc()
	var sp *telemetry.Span
	var at time.Time
	inbound := telemetry.SpanContext{TraceID: call.TraceID, SpanID: call.SpanID}
	if rt.tel.Enabled() && inbound.Valid() {
		at = rt.clock.Now()
		sp = rt.tel.StartPrefixed(inbound, telemetry.PrefixServe, call.Method, at)
		sp.Phase(telemetry.PhaseQueue, at.Sub(recvAt))
	}
	frame, fault := rt.dispatchInvoke(d, caller, call, sp.Context(), at)
	if sp != nil {
		end := rt.clock.Now()
		sp.Phase(telemetry.PhaseServe, end.Sub(at))
		if fault != nil {
			sp.Annotate("fault", fault.Code)
			sp.SetErr(errors.New(fault.Message))
		}
		sp.End(end)
	}
	return frame
}

// dispatchInvoke performs the invoke/encode portion of dispatch and
// reports the fault (if any) alongside the encoded response frame.
func (rt *Runtime) dispatchInvoke(d Dispatcher, caller transport.Addr, call *wire.Call, serveSC telemetry.SpanContext, at time.Time) (wire.Frame, *wire.Fault) {
	if d == nil {
		f := &wire.Fault{
			ID: call.ID, Code: wire.FaultNoSuchObject,
			Message: fmt.Sprintf("object %d is not exported", call.Target),
		}
		return wire.FrameOf(wire.EncodeFault(f)), f
	}
	results, fault := serve(d, serveSC, at, caller, call.Method, call.Args)
	if fault != nil {
		fault.ID = call.ID
		return wire.FrameOf(wire.EncodeFault(fault)), fault
	}
	frame, err := wire.EncodeFrame(rt.reg, &wire.Reply{ID: call.ID, Results: results})
	if err != nil {
		f := &wire.Fault{ID: call.ID, Code: wire.FaultEncode, Message: err.Error()}
		return wire.FrameOf(wire.EncodeFault(f)), f
	}
	lendOwned(frame, results)
	return frame, nil
}
