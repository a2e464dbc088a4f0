// Package transport provides the message-oriented networking layer OBIWAN
// sites communicate over.
//
// Two interchangeable implementations exist:
//
//   - MemNetwork: an in-process network whose links are modelled by
//     package netsim. This is the default substrate for experiments: it
//     reproduces the paper's 10 Mb/s-LAN cost regime and supports the
//     disconnections that motivate the mobility scenario.
//   - TCPNetwork: real TCP with length-delimited frames, for running sites
//     as separate OS processes (examples and integration tests).
//
// Both deliver whole messages reliably and in FIFO order per connection,
// which is what Java RMI's TCP transport gave the original prototype.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"

	"obiwan/internal/netsim"
)

// Addr identifies an endpoint. For MemNetwork it is a site name such as
// "s1"; for TCPNetwork it is a "host:port" pair.
type Addr string

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// ErrUnreachable is returned when no listener exists at the dialed address.
var ErrUnreachable = errors.New("transport: unreachable")

// MaxMessageSize bounds a single framed message (64 MiB). The largest
// experiment payload — a transitive closure of 1000 objects of 16 KiB — is
// about 16 MiB; the bound exists to fail fast on corrupt length prefixes,
// not to constrain legitimate replication.
const MaxMessageSize = 64 << 20

// Conn is a reliable, ordered, message-oriented connection.
//
// Send and Recv may be used concurrently with each other, but at most one
// goroutine may call Send and one may call Recv at a time: a frame is a
// header and a payload, and an implementation may keep per-direction
// state (TCP's header scratch, write vector and read buffer) that two
// concurrent senders or receivers would share. Callers that multiplex —
// rmi's many in-flight calls on one connection — serialize their own
// sends (rmi's sender, which batches them: SendBatch).
//
// Frame ownership: Send must not retain p after it returns, so the caller
// may reuse or modify the slice at once; the slice Recv returns belongs
// to the caller, and no later Recv touches it. A message may also be sent
// as a vector of parts (SendVector), and messages as a batch (SendBatch),
// borrowed on the same terms.
type Conn interface {
	// Send transmits one message. It blocks for the link's transmission
	// time (flow control) but not for propagation. A failed Send never
	// leaves the stream mid-frame: either nothing was written (an
	// oversized message, a simulated link outage) and the connection is
	// intact, or the connection is dead and returns ErrClosed from then on.
	Send(p []byte) error
	// Recv returns the next message, blocking until one arrives or the
	// connection closes.
	Recv() ([]byte, error)
	// Close releases the connection. Pending Recv calls return ErrClosed
	// once buffered messages are drained.
	Close() error
	// RemoteAddr returns the peer's address.
	RemoteAddr() Addr
	// LocalAddr returns this end's address.
	LocalAddr() Addr
}

// Listener accepts inbound connections at a fixed address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() Addr
}

// Network creates listeners and outbound connections.
type Network interface {
	// Listen binds a listener at local.
	Listen(local Addr) (Listener, error)
	// Dial connects from local to remote. TCP implementations may ignore
	// local; the simulated network uses it to select the link model.
	Dial(local, remote Addr) (Conn, error)
}

// IsTransient classifies a transport-level error as retryable: the failure
// is a property of the moment (a dropped frame, a link that is down, a peer
// that is restarting) rather than of the request, so retrying the same
// operation later can legitimately succeed. This is the paper's mobility
// model made explicit: disconnection is an expected, recoverable state, not
// a terminal fault. Fatal errors — oversized messages, protocol violations —
// return false and must surface to the caller unchanged.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, netsim.ErrDropped) ||
		errors.Is(err, netsim.ErrDisconnected) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		// All remaining net.Errors of interest (timeouts, refused or reset
		// connections while a peer restarts) are worth a retry.
		return true
	}
	return false
}

// batchConn is a Conn of this package: it sends a batch of messages, each a
// vector of parts, without joining any (TCP: one writev; mem: each message
// copied into its queue slot, one by one; reconnecting: forwarded).
type batchConn interface {
	sendBatch(msgs [][][]byte, errs []error)
}

// SendVector sends parts on c as one message, their concatenation: a batch
// of one (SendBatch).
func SendVector(c Conn, parts [][]byte) error {
	var errs [1]error
	SendBatch(c, [][][]byte{parts}, errs[:])
	return errs[0]
}

// SendBatch sends msgs on c in order, each message the concatenation of its
// parts, and sets errs[i] (as long as msgs) to message i's outcome, with
// Send's guarantees: a message over MaxMessageSize is refused alone, before
// anything is written; a write that fails part-way leaves c closed and fails
// every message it carried. On TCP a batch is one write, each message behind
// its own header. The mem network and a Conn from outside this package (a
// decorator: it has only Send and gets a vector joined, here) send one by
// one, each message with its own error. Parts are borrowed until it returns.
func SendBatch(c Conn, msgs [][][]byte, errs []error) {
	if bc, ok := c.(batchConn); ok {
		bc.sendBatch(msgs, errs)
		return
	}
	for i, parts := range msgs {
		n, err := vectorLen(parts)
		if err == nil && len(parts) == 1 {
			err = c.Send(parts[0])
		} else if err == nil {
			err = c.Send(join(parts, n))
		}
		errs[i] = err
	}
}

// join copies parts, n bytes in all, into one new buffer.
func join(parts [][]byte, n int) []byte {
	b := make([]byte, 0, n)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// vectorLen is the length of the message parts make, checked against the
// framing limit.
func vectorLen(parts [][]byte) (int, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n, validateSize(n)
}

// validateSize rejects messages that exceed the framing limit.
func validateSize(n int) error {
	if n > MaxMessageSize {
		return fmt.Errorf("transport: message of %d bytes exceeds limit %d", n, MaxMessageSize)
	}
	return nil
}
