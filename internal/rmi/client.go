package rmi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// replyWaiter is one in-flight call's rendezvous point. It replaces the
// channel-and-select of the pre-virtual-clock runtime with a clock-aware
// Cond so a caller blocked on a reply counts as idle under a VirtualClock:
// delivery (from the read loop), expiry (from a clock timer), and
// connection death all land here and wake the caller with a token.
type replyWaiter struct {
	mu       sync.Mutex
	cond     netsim.Cond
	msg      any // *wire.Reply, *wire.Fault, or error
	has      bool
	timedOut bool
}

func newReplyWaiter(clock netsim.Clock) *replyWaiter {
	w := &replyWaiter{}
	w.cond.Init(clock, &w.mu)
	return w
}

// deliver hands the waiter its response. A delivery always wins over a
// concurrent expiry that has not yet been observed.
func (w *replyWaiter) deliver(msg any) {
	w.mu.Lock()
	if !w.has {
		w.msg = msg
		w.has = true
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// expire marks the waiter timed out unless a response already landed.
func (w *replyWaiter) expire() {
	w.mu.Lock()
	if !w.has && !w.timedOut {
		w.timedOut = true
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// await blocks until a response or expiry and reports which: (msg, true)
// for a response, (nil, false) for a timeout.
func (w *replyWaiter) await() (any, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.has && !w.timedOut {
		w.cond.Wait()
	}
	if w.has {
		return w.msg, true
	}
	return nil, false
}

// clientConn is one multiplexed outbound connection: many in-flight calls
// share it, matched to replies by call id.
type clientConn struct {
	rt   *Runtime
	addr transport.Addr
	conn transport.Conn
	out  sender       // every call frame leaves through it
	live atomic.Int32 // calls between register and the end of their wait

	mu      sync.Mutex
	pending map[uint64]*replyWaiter // call id → waiter
	dead    error                   // non-nil once the connection failed
}

// getConn returns a live connection to addr, dialing if needed, and
// whether it dialed. The connection is self-healing: when it dies
// terminally (peer restart), the next Send or Recv re-dials and replays
// the protocol preamble, so the server can reject version mismatches
// before any call frame is interpreted. Link-level disconnections are not
// healed this way — the connection is kept and reused after the outage,
// per the paper's mobility model.
func (rt *Runtime) getConn(addr transport.Addr) (*clientConn, bool, error) {
	rt.mu.Lock()
	select {
	case <-rt.closed:
		rt.mu.Unlock()
		return nil, false, ErrRuntimeClosed
	default:
	}
	if c, ok := rt.conns[addr]; ok {
		rt.mu.Unlock()
		return c, false, nil
	}
	rt.mu.Unlock()

	// Dial outside the lock: the simulated network may sleep.
	conn, err := transport.NewReconnecting(rt.network, rt.local, addr, func(c transport.Conn) error {
		return c.Send(wire.EncodeHello(rt.id))
	}, transport.WithRedialHook(func() { rt.met.reconnects.Inc() }))
	if err != nil {
		return nil, true, fmt.Errorf("rmi: dial %q: %w", addr, err)
	}

	rt.mu.Lock()
	if existing, ok := rt.conns[addr]; ok {
		// Lost the race; use the winner.
		rt.mu.Unlock()
		_ = conn.Close()
		return existing, true, nil
	}
	c := &clientConn{
		rt:      rt,
		addr:    addr,
		conn:    conn,
		pending: make(map[uint64]*replyWaiter),
	}
	c.out.init(rt.clock, conn, rt.batched)
	rt.conns[addr] = c
	rt.mu.Unlock()

	rt.wg.Add(1)
	rt.clock.Go(c.readLoop)
	return c, true, nil
}

// dropConn removes c from the pool if it is still the registered conn.
func (rt *Runtime) dropConn(c *clientConn) {
	rt.mu.Lock()
	if rt.conns[c.addr] == c {
		delete(rt.conns, c.addr)
	}
	rt.mu.Unlock()
}

// readLoop demultiplexes replies to waiting callers until the connection
// dies, then fails everything still pending. It decodes every reply through
// the connection's one string memo, its own.
func (c *clientConn) readLoop() {
	defer c.rt.wg.Done()
	var memo codec.Memo
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.shutdown(fmt.Errorf("rmi: connection to %q lost: %w", c.addr, err))
			return
		}
		c.rt.met.bytesRecv.Add(uint64(len(frame)))
		msg, err := wire.DecodeMemo(c.rt.reg, &memo, frame)
		if err != nil {
			c.shutdown(fmt.Errorf("rmi: bad frame from %q: %w", c.addr, err))
			return
		}
		var id uint64
		switch m := msg.(type) {
		case *wire.Reply:
			id = m.ID
		case *wire.Fault:
			id = m.ID
		default:
			continue // a Call frame on a client conn: ignore
		}
		c.mu.Lock()
		w, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			w.deliver(msg)
		}
	}
}

// shutdown fails all pending calls and retires the connection.
func (c *clientConn) shutdown(cause error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = cause
	}
	pending := c.pending
	c.pending = make(map[uint64]*replyWaiter)
	c.mu.Unlock()
	for _, w := range pending {
		w.deliver(cause)
	}
	_ = c.conn.Close()
	c.rt.dropConn(c)
}

// register enrolls a call id before sending, so the reply cannot race the
// registration, and reports whether another call is live on c (see live).
func (c *clientConn) register(id uint64) (*replyWaiter, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil, false, c.dead
	}
	w := newReplyWaiter(c.rt.clock)
	c.pending[id] = w
	return w, c.live.Add(1) > 1, nil
}

func (c *clientConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	c.live.Add(-1)
}

// Call invokes method on the remote object behind ref and waits for its
// results, untraced and under the runtime's default timeout.
func (rt *Runtime) Call(ref RemoteRef, method string, args ...any) ([]any, error) {
	results, _, err := rt.CallWithin(telemetry.SpanContext{}, time.Time{}, ref, 0, method, args...)
	return results, err
}

// DefaultCallTimeout returns the runtime's default per-call deadline, for
// callers that run their own deadline arithmetic across several calls
// (the replication layer's failover loop).
func (rt *Runtime) DefaultCallTimeout() time.Duration { return rt.callTimeout }

// CallWithin is the one full form of Call: within a trace, from a reading
// and within a deadline, each with a zero value that means Call's
// behaviour. A valid sc makes the invocation an "rmi:<method>" span
// beneath it, and the span's context travels in the Call frame so the
// server's serve span (and anything it causes) joins the same trace; the
// zero sc is untraced. start, the caller's reading of the runtime's clock
// with no wait since, begins the call's span, deadline and round-trip
// time; the zero start is read here. A positive timeout is the overall
// deadline for this invocation, retries and backoff included; zero means
// the runtime's default. The reading the call ended at (its reply's, on
// success) is returned for the caller to stamp what it does next with.
func (rt *Runtime) CallWithin(sc telemetry.SpanContext, start time.Time, ref RemoteRef, timeout time.Duration, method string, args ...any) ([]any, time.Time, error) {
	if start.IsZero() {
		start = rt.clock.Now()
	}
	if timeout == 0 {
		timeout = rt.callTimeout
	}
	results, tid, end, err := rt.doCall(sc, ref, start, timeout, method, args)
	rtt := end.Sub(start)
	// Traced calls keep tail exemplars (tid 0 — untraced — degrades to a
	// plain observation), so `obiwan-admin slow` can name the worst calls.
	rt.met.latency.ObserveExemplar(int64(rtt), tid)
	if rt.observer != nil {
		rt.observer(ref.Addr, method, rtt, err)
	}
	return results, end, err
}

// doCall drives one logical invocation through the retry policy. The call
// id is allocated once and reused across attempts, so the server's
// duplicate-suppression table can guarantee at-most-once execution no
// matter how many times the frame is re-sent or on which connection it
// arrives. timeout, counted from start, is the overall deadline for the
// invocation including backoff waits. It returns the reading it ended at.
//
// Tracing mirrors dedupe: one logical invocation is one "rmi:<method>"
// span no matter how many attempts it takes — retries annotate the span
// rather than minting siblings, and the frame (encoded once) carries the
// same span context on every resend, so the server parents at most one
// serve span under it.
//
// now is the latest reading: start, unless a backoff or a dial came since
// (each is followed by a fresh one). An attempt arms its timer and starts
// its net phase at it, and reads again when its wait ends, which ends the
// phase and, on a reply, the span and the call.
func (rt *Runtime) doCall(sc telemetry.SpanContext, ref RemoteRef, start time.Time, timeout time.Duration, method string, args []any) ([]any, uint64, time.Time, error) {
	if ref.IsZero() {
		return nil, 0, start, fmt.Errorf("rmi: call %s on zero reference", method)
	}
	id := rt.nextSeq.Add(1)

	// A client span is minted only for calls that already have a causal
	// parent: unparented plumbing traffic (nameserver lookups, pings) stays
	// out of the span ring so replication traces remain rooted and stable.
	// The context stamped on the wire is the span's own when recording,
	// else sc verbatim — propagation survives even on a hub-less runtime.
	wireSC := sc
	var span *telemetry.Span
	if rt.tel.Enabled() && sc.Valid() {
		span = rt.tel.StartPrefixed(sc, telemetry.PrefixRMI, method, start)
		wireSC = span.Context()
	}
	now := start
	finish := func(results []any, err error) ([]any, uint64, time.Time, error) {
		span.SetErr(err)
		span.End(now)
		if err != nil && rt.flight != nil {
			rt.flight.Record(telemetry.FlightEvent{
				AtNS: now.UnixNano(), Kind: "rmi.fail", TraceID: wireSC.TraceID, SpanID: wireSC.SpanID,
				Detail: method + " to " + string(ref.Addr), Err: err.Error(),
			})
		}
		return results, wireSC.TraceID, now, err
	}
	// fail ends a call that failed away from a wait at a fresh reading.
	fail := func(err error) ([]any, uint64, time.Time, error) {
		now = rt.clock.Now()
		return finish(nil, err)
	}

	frame, err := wire.EncodeFrame(rt.reg, &wire.Call{
		ID: id, Target: uint64(ref.ID), Method: method,
		TraceID: wireSC.TraceID, SpanID: wireSC.SpanID, Args: args,
	})
	if err != nil {
		return finish(nil, err)
	}

	deadline := start.Add(timeout)
	timeoutErr := func() error {
		return fmt.Errorf("%w: %s to %q after %v", ErrTimeout, method, ref.Addr, timeout)
	}
	var lastErr error
	for attempt := 1; attempt <= rt.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			rt.met.retries.Inc()
			span.AnnotateUint("attempt", uint64(attempt))
			backoffStart := rt.clock.Now()
			if rt.flight != nil {
				rt.flight.Record(telemetry.FlightEvent{
					AtNS: backoffStart.UnixNano(), Kind: "rmi.retry", TraceID: wireSC.TraceID, SpanID: wireSC.SpanID,
					Detail: method + " to " + string(ref.Addr) + " attempt=" + strconv.Itoa(attempt),
				})
			}
			slept := rt.sleepBackoff(attempt-1, deadline, backoffStart)
			now = rt.clock.Now()
			span.Phase(telemetry.PhaseRetryBackoff, now.Sub(backoffStart))
			if !slept {
				select {
				case <-rt.closed:
					return finish(nil, ErrRuntimeClosed)
				default:
				}
				return finish(nil, fmt.Errorf("%w: %s to %q after %v (last error: %w)",
					ErrTimeout, method, ref.Addr, timeout, lastErr))
			}
		}

		conn, dialled, err := rt.getConn(ref.Addr)
		if err != nil {
			if errors.Is(err, ErrRuntimeClosed) {
				return fail(err)
			}
			rt.met.sendErrors.Inc()
			lastErr = err
			if transport.IsTransient(err) {
				continue
			}
			return fail(err)
		}
		if dialled {
			now = rt.clock.Now()
		}
		w, others, err := conn.register(id)
		if err != nil {
			// The pooled connection died before its read loop retired it;
			// the pool has been (or is being) cleaned, so the next attempt
			// dials fresh.
			lastErr = err
			continue
		}

		// Wait for the reply: bounded by the per-try budget when the policy
		// sets one (lost replies are then recovered by re-sending), always
		// bounded by the overall deadline; armed before the send, from a
		// reading with no wait since, so the send's time counts. Runtime
		// close needs no select arm: Close shuts every connection down,
		// which delivers ErrRuntimeClosed to the waiter.
		wait := deadline.Sub(now)
		perTry := false
		if rt.retry.PerTryTimeout > 0 && rt.retry.PerTryTimeout < wait {
			wait = rt.retry.PerTryTimeout
			perTry = true
		}
		if wait <= 0 {
			conn.unregister(id)
			return finish(nil, timeoutErr())
		}
		netStart := now
		expiry := rt.clock.AfterFunc(wait, w.expire)
		if sendErr := conn.out.send(frame, others); sendErr != nil {
			expiry.Stop()
			conn.unregister(id)
			rt.met.sendErrors.Inc()
			lastErr = fmt.Errorf("rmi: send %s to %q: %w", method, ref.Addr, sendErr)
			if errors.Is(sendErr, transport.ErrClosed) {
				// Terminally dead (redial inside the connection failed too):
				// retire it so the next attempt starts from a fresh dial.
				conn.shutdown(fmt.Errorf("rmi: connection to %q lost: %w", ref.Addr, sendErr))
				continue
			}
			if transport.IsTransient(sendErr) {
				// Link-level outage: the connection stays pooled — the
				// paper's mobile host reuses it after reconnecting.
				continue
			}
			return fail(lastErr)
		}
		rt.met.calls.Inc()
		rt.met.bytesSent.Add(uint64(frame.Len()))
		msg, ok := w.await()
		expiry.Stop()
		now = rt.clock.Now()
		span.Phase(telemetry.PhaseNet, now.Sub(netStart))
		if !ok {
			conn.unregister(id)
			lastErr = timeoutErr()
			if perTry {
				continue
			}
			return finish(nil, lastErr)
		}
		conn.live.Add(-1)
		switch m := msg.(type) {
		case *wire.Reply:
			return finish(m.Results, nil)
		case *wire.Fault:
			rt.met.remoteFaults.Inc()
			lastErr = &RemoteError{Code: m.Code, Method: method, Message: m.Message}
			if m.Code == wire.FaultBusy {
				// Refused, not executed: the server kept nothing of the call,
				// so it goes again like a frame that was never sent.
				continue
			}
			return finish(nil, lastErr)
		case error:
			// The connection failed while we were waiting.
			lastErr = m
			if errors.Is(m, ErrRuntimeClosed) {
				return finish(nil, ErrRuntimeClosed)
			}
			if transport.IsTransient(m) {
				continue
			}
			return finish(nil, m)
		default:
			return finish(nil, fmt.Errorf("rmi: unexpected response %T", msg))
		}
	}
	return fail(fmt.Errorf("rmi: %s to %q failed after %d attempts: %w",
		method, ref.Addr, rt.retry.MaxAttempts, lastErr))
}
