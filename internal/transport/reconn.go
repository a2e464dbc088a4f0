package transport

import (
	"errors"
	"fmt"
	"sync"

	"obiwan/internal/netsim"
)

// reconnConn is a Conn that re-establishes its underlying connection when
// it fails terminally (ErrClosed — the peer went away or the socket died).
// Link-level disconnections (netsim.ErrDisconnected) are NOT redial
// triggers: the paper's mobile host keeps its connection across a network
// outage and reuses it after reconnecting, so those errors propagate to the
// caller, whose retry policy decides when to try again.
//
// Redials are single-flight: concurrent Send and Recv failures against the
// same underlying connection produce one dial, identified by a generation
// counter. onConnect runs after every successful (re)dial — the RMI layer
// uses it to replay the protocol preamble the server expects as the first
// frame of every connection.
type reconnConn struct {
	net       Network
	local     Addr
	remote    Addr
	onConnect func(Conn) error
	onRedial  func()

	mu     sync.Mutex
	conn   Conn
	gen    uint64
	closed bool
}

// ReconnOption configures a reconnecting connection.
type ReconnOption func(*reconnConn)

// WithRedialHook installs a callback invoked on every redial (not the
// initial dial) — the telemetry layer counts reconnects with it. The hook
// runs with the connection's lock held; it must not call back into the
// connection.
func WithRedialHook(fn func()) ReconnOption {
	return func(c *reconnConn) { c.onRedial = fn }
}

// NewReconnecting dials local→remote on net and returns a Conn that
// transparently re-dials when the connection dies. onConnect, if non-nil,
// runs on the fresh connection after every dial (including the first);
// its failure fails the dial.
//
// The Conn contract is unchanged: at most one goroutine may call Send and
// one may call Recv at a time. Messages sent on a retired connection are
// lost, not replayed — exactly the semantics of a TCP reconnect — but a
// failed batch goes again whole, so the caller's protocol must tolerate
// resending (see the rmi retry policy and its server-side duplicate
// suppression).
func NewReconnecting(net Network, local, remote Addr, onConnect func(Conn) error, opts ...ReconnOption) (Conn, error) {
	c := &reconnConn{net: net, local: local, remote: remote, onConnect: onConnect}
	for _, opt := range opts {
		opt(c)
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

func (c *reconnConn) dial() (Conn, error) {
	conn, err := c.net.Dial(c.local, c.remote)
	if err != nil {
		return nil, err
	}
	if c.onConnect != nil {
		if err := c.onConnect(conn); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: reconnect preamble: %w", err)
		}
	}
	return conn, nil
}

// current returns the live connection and its generation.
func (c *reconnConn) current() (Conn, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, ErrClosed
	}
	return c.conn, c.gen, nil
}

// redial replaces the connection of generation failedGen. If another
// goroutine already replaced it, the existing replacement is returned.
func (c *reconnConn) redial(failedGen uint64) (Conn, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, ErrClosed
	}
	if c.gen != failedGen {
		return c.conn, c.gen, nil
	}
	conn, err := c.dial()
	if err != nil {
		return nil, 0, err
	}
	_ = c.conn.Close()
	c.conn = conn
	c.gen++
	if c.onRedial != nil {
		c.onRedial()
	}
	return c.conn, c.gen, nil
}

// shouldRedial reports whether err means the connection itself is dead, as
// opposed to a link-level failure (ErrDisconnected, ErrDropped) where the
// connection outlives the outage, or a fatal error of the message itself.
func shouldRedial(err error) bool {
	if err == nil || !IsTransient(err) {
		return false
	}
	return !errors.Is(err, netsim.ErrDisconnected) && !errors.Is(err, netsim.ErrDropped)
}

func (c *reconnConn) Send(p []byte) error {
	return c.send(func(conn Conn) error { return conn.Send(p) })
}

// sendBatch forwards the batch to the live connection, and sends it again
// whole on a fresh one when it fails with the connection dead: a message
// the dead one delivered first then arrives twice (see NewReconnecting).
func (c *reconnConn) sendBatch(msgs [][][]byte, errs []error) {
	err := c.send(func(conn Conn) error {
		SendBatch(conn, msgs, errs)
		for _, err := range errs {
			if shouldRedial(err) {
				return err
			}
		}
		return nil
	})
	for i := range errs {
		if err != nil { // closed, or the redial failed
			errs[i] = err
		}
	}
}

// send runs one send on the live connection, redialling while it fails
// with the connection dead.
func (c *reconnConn) send(on func(Conn) error) error {
	conn, gen, err := c.current()
	if err != nil {
		return err
	}
	for {
		sendErr := on(conn)
		if sendErr == nil || !shouldRedial(sendErr) {
			return sendErr
		}
		if conn, gen, err = c.redial(gen); err != nil {
			return err
		}
	}
}

func (c *reconnConn) Recv() ([]byte, error) {
	conn, gen, err := c.current()
	if err != nil {
		return nil, err
	}
	for {
		p, recvErr := conn.Recv()
		if recvErr == nil || !shouldRedial(recvErr) {
			return p, recvErr
		}
		if conn, gen, err = c.redial(gen); err != nil {
			return nil, err
		}
	}
}

func (c *reconnConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

func (c *reconnConn) RemoteAddr() Addr { return c.remote }
func (c *reconnConn) LocalAddr() Addr  { return c.local }
