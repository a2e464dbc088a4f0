package main

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// traceNet decorates a transport.Network: every connection it dials or
// accepts stamps the entry and return of each Send and Recv with the frame's
// size, kind and call id. The untraced run never builds one, so its sites
// sit directly on the TCP network.
//
// The hot path takes no lock. A connection's sends are appended by whoever
// holds the caller's send mutex (transport.Conn allows one sender at a
// time) and its recvs by its one reading goroutine; assemble reads the
// arrays only after the sites are closed and those goroutines have ended.
type traceNet struct {
	inner transport.Network
	hint  int // events to pre-size per direction per connection

	mu    sync.Mutex
	conns []*traceConn

	// Frame capture for the probes: armed → waiting for the next call frame
	// a client sends → waiting for that call's reply.
	capture    atomic.Int32
	captureID  atomic.Uint64
	callFrame  []byte
	replyFrame []byte
}

const (
	captureIdle int32 = iota
	captureCall
	captureReply
)

func newTraceNet(inner transport.Network, hint int) *traceNet {
	return &traceNet{inner: inner, hint: hint}
}

func (n *traceNet) Listen(local transport.Addr) (transport.Listener, error) {
	ln, err := n.inner.Listen(local)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: ln, net: n}, nil
}

func (n *traceNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.inner.Dial(local, remote)
	if err != nil {
		return nil, err
	}
	return n.wrap(c, true), nil
}

func (n *traceNet) wrap(c transport.Conn, client bool) *traceConn {
	tc := &traceConn{
		Conn: c, net: n, client: client,
		sends: make([]frameEvent, 0, n.hint),
		recvs: make([]frameEvent, 0, n.hint),
	}
	n.mu.Lock()
	n.conns = append(n.conns, tc)
	n.mu.Unlock()
	return tc
}

// arm keeps a copy of the next call frame a client sends and of its reply.
func (n *traceNet) arm() { n.capture.CompareAndSwap(captureIdle, captureCall) }

// captured returns the kept frames; both are nil until a reply was seen.
func (n *traceNet) captured() (call, reply []byte) {
	if n.replyFrame == nil {
		return nil, nil
	}
	return n.callFrame, n.replyFrame
}

type traceListener struct {
	transport.Listener
	net *traceNet
}

func (l *traceListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c, false), nil
}

// frameEvent is one Send or Recv of one frame.
type frameEvent struct {
	enter, leave int64 // ns since epoch
	bytes        int
	kind         byte   // wire.Kind*
	id           uint64 // call id (calls, replies, faults)
	target       uint64 // target object (calls)
}

type traceConn struct {
	transport.Conn
	net    *traceNet
	client bool // dialled, not accepted
	sends  []frameEvent
	recvs  []frameEvent
}

func (c *traceConn) Send(p []byte) error {
	ev := frameHeader(p)
	if c.client && ev.kind == wire.KindCall && c.net.capture.Load() == captureCall {
		c.net.callFrame = append([]byte(nil), p...)
		c.net.captureID.Store(ev.id)
		c.net.capture.Store(captureReply)
	}
	ev.enter = now()
	err := c.Conn.Send(p)
	ev.leave = now()
	c.sends = append(c.sends, ev)
	return err
}

func (c *traceConn) Recv() ([]byte, error) {
	enter := now()
	p, err := c.Conn.Recv()
	leave := now()
	if err != nil {
		return p, err
	}
	ev := frameHeader(p)
	ev.enter, ev.leave = enter, leave
	c.recvs = append(c.recvs, ev)
	if c.client && ev.kind != wire.KindCall && c.net.capture.Load() == captureReply && ev.id == c.net.captureID.Load() {
		c.net.replyFrame = append([]byte(nil), p...)
		c.net.capture.Store(captureIdle)
	}
	return p, nil
}

// frameHeader reads a frame's kind, call id and (for calls) target without
// decoding its values: the kind byte, then uvarints, as package wire lays
// them out. TestFrameHeaderMatchesWire holds this to wire's encoders.
func frameHeader(p []byte) frameEvent {
	ev := frameEvent{bytes: len(p)}
	if len(p) == 0 {
		return ev
	}
	ev.kind = p[0]
	if ev.kind == wire.KindHello {
		return ev
	}
	id, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return ev
	}
	ev.id = id
	if ev.kind == wire.KindCall {
		ev.target, _ = binary.Uvarint(p[1+n:])
	}
	return ev
}

// tracedCall is one remote call seen at all four points: the client's Send
// of the call frame, the server's Recv of it, the server's Send of the
// reply, and the client's Recv of that.
type tracedCall struct {
	clientSend, serverRecv, serverSend, clientRecv frameEvent
}

// opWindows splits one op's span on the one process clock. The windows
// telescope, so they sum to total exactly:
//
//	pre | sendC | flightCS | server | sendS | flightSC | (mid, then the next call) | post
//
// A flight runs from one side's Send returning to the other side's Recv
// returning; on loopback the receiver can win that race, and the flight is
// then negative. An op that made several calls sums their windows, with the
// client time between calls in mid.
type opWindows struct {
	total    int64
	pre      int64 // op start → first Send entered
	sendC    int64 // inside the client's Send
	flightCS int64 // client Send returned → server Recv returned
	server   int64 // server Recv returned → server Send entered
	sendS    int64 // inside the server's Send
	flightSC int64 // server Send returned → client Recv returned
	mid      int64 // client time between one call's reply and the next call
	post     int64 // last Recv returned → op end
	frames   int
	bytes    int
}

// calls pairs every client connection with the server connection accepted
// for it and returns the calls seen at all four points, in client send
// order.
func (n *traceNet) calls() []tracedCall {
	byPeer := map[transport.Addr]*traceConn{}
	for _, c := range n.conns {
		if !c.client {
			byPeer[c.RemoteAddr()] = c
		}
	}
	var out []tracedCall
	for _, cc := range n.conns {
		sc := byPeer[cc.LocalAddr()]
		if !cc.client || sc == nil {
			continue
		}
		index := func(evs []frameEvent, call bool) map[uint64]frameEvent {
			m := make(map[uint64]frameEvent, len(evs))
			for _, ev := range evs {
				if (ev.kind == wire.KindCall) == call && ev.kind != wire.KindHello {
					m[ev.id] = ev
				}
			}
			return m
		}
		serverRecv, serverSend, clientRecv := index(sc.recvs, true), index(sc.sends, false), index(cc.recvs, false)
		for _, cs := range cc.sends {
			if cs.kind != wire.KindCall {
				continue
			}
			sr, ok1 := serverRecv[cs.id]
			ss, ok2 := serverSend[cs.id]
			cr, ok3 := clientRecv[cs.id]
			if ok1 && ok2 && ok3 {
				out = append(out, tracedCall{cs, sr, ss, cr})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].clientSend.enter < out[j].clientSend.enter })
	return out
}

// matchedOp is one op with the calls that lie inside its span.
type matchedOp struct {
	op    span
	calls []tracedCall
}

// assemble gives every op the calls that lie inside its span. With several
// callers their spans overlap, so a call is first given to the caller whose
// target object it names (targets); with one caller targets is empty. An op
// that contains no complete call cannot be split into windows and is
// counted as unmatched.
func (n *traceNet) assemble(spans []span, targets map[uint64]int) (matched []matchedOp, unmatched int) {
	callsOf := map[int][]tracedCall{}
	for _, c := range n.calls() {
		caller := targets[c.clientSend.target]
		callsOf[caller] = append(callsOf[caller], c)
	}
	opsOf := map[int][]span{}
	for _, s := range spans {
		opsOf[s.caller] = append(opsOf[s.caller], s)
	}
	for caller, ops := range opsOf {
		sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
		calls := callsOf[caller]
		k := 0
		for _, op := range ops {
			for k < len(calls) && calls[k].clientSend.enter < op.start {
				k++ // set-up traffic before the op
			}
			first := k
			for k < len(calls) && calls[k].clientRecv.leave <= op.end {
				k++
			}
			if first == k {
				unmatched++
				continue
			}
			matched = append(matched, matchedOp{op, calls[first:k]})
		}
	}
	return matched, unmatched
}

func (m matchedOp) windows() opWindows {
	op, calls := m.op, m.calls
	w := opWindows{total: op.end - op.start, pre: calls[0].clientSend.enter - op.start}
	for i, c := range calls {
		w.sendC += c.clientSend.leave - c.clientSend.enter
		w.flightCS += c.serverRecv.leave - c.clientSend.leave
		w.server += c.serverSend.enter - c.serverRecv.leave
		w.sendS += c.serverSend.leave - c.serverSend.enter
		w.flightSC += c.clientRecv.leave - c.serverSend.leave
		if i > 0 {
			w.mid += c.clientSend.enter - calls[i-1].clientRecv.leave
		}
		w.frames += 2
		w.bytes += c.clientSend.bytes + c.serverSend.bytes
	}
	w.post = op.end - calls[len(calls)-1].clientRecv.leave
	return w
}

// outSpan is one line of the -trace-out file: the op's own span (parent
// empty) and one child per window boundary the decorator saw.
type outSpan struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// spans lists m as spans sharing the op identifier id.
func (m matchedOp) spans(id int, name string) []outSpan {
	out := []outSpan{{Op: id, Name: name, Start: m.op.start, End: m.op.end}}
	for _, c := range m.calls {
		out = append(out,
			outSpan{id, "client.send", c.clientSend.enter, c.clientSend.leave, name, c.clientSend.bytes},
			outSpan{id, "flight.call", c.clientSend.leave, c.serverRecv.leave, name, c.clientSend.bytes},
			outSpan{id, "server.window", c.serverRecv.leave, c.serverSend.enter, name, 0},
			outSpan{id, "server.send", c.serverSend.enter, c.serverSend.leave, name, c.serverSend.bytes},
			outSpan{id, "flight.reply", c.serverSend.leave, c.clientRecv.leave, name, c.serverSend.bytes},
		)
	}
	return out
}
