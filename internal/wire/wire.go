// Package wire defines the RMI message protocol: the frames exchanged
// between an OBIWAN client runtime and a server runtime over a transport
// connection. It is the Go analogue of the JRMP frames Java RMI used
// underneath the original prototype.
//
// Three frame kinds exist:
//
//	Call  — client → server: call id, target object, method name, arguments
//	Reply — server → client: call id, result values
//	Fault — server → client: call id, error classification and message
//
// Arguments and results use the codec's self-describing Value encoding, so
// any registered type (including remote references) can travel in a frame.
package wire

import (
	"fmt"

	"obiwan/internal/codec"
)

// Frame kind bytes. Append-only.
const (
	KindCall  byte = 0x01
	KindReply byte = 0x02
	KindFault byte = 0x03
	KindHello byte = 0x04
)

// ProtocolVersion is the wire protocol revision. A connection opens with a
// Hello frame carrying it; peers reject mismatches instead of
// mis-parsing each other's frames.
//
// Revision history:
//
//	1 — initial frame layout
//	2 — Call frames carry a causal trace context (TraceID, SpanID)
const ProtocolVersion = 2

// helloMagic guards against cross-protocol traffic reaching an RMI port.
const helloMagic = "OBI1"

// Hello is the connection preamble.
type Hello struct {
	Version uint64
}

// EncodeHello serializes the connection preamble.
func EncodeHello() []byte {
	e := codec.NewEncoder(8)
	e.WriteRaw([]byte{KindHello})
	e.WriteRaw([]byte(helloMagic))
	e.WriteUvarint(ProtocolVersion)
	return e.Bytes()
}

// Fault codes classify remote failures.
const (
	// FaultApp marks an error returned by the application method itself
	// (the Java-RMI analogue of a remote exception).
	FaultApp = "app"
	// FaultNoSuchObject marks calls to an object id that is not exported
	// (e.g. it was unexported after the reference was handed out).
	FaultNoSuchObject = "no-such-object"
	// FaultNoSuchMethod marks calls to a method the target does not have.
	FaultNoSuchMethod = "no-such-method"
	// FaultBadArgs marks argument count or type mismatches.
	FaultBadArgs = "bad-args"
	// FaultEncode marks results the server could not serialize.
	FaultEncode = "encode"
	// FaultReplyEvicted answers a retry of a call that did execute, once,
	// but whose recorded reply the server has since let go of to stay
	// inside its per-client byte budget. The call is not executed again and
	// its outcome is not recoverable from the server; retrying cannot help.
	FaultReplyEvicted = "reply-evicted"
	// FaultBusy refuses a call because the connection it arrived on already
	// serves as many as it may. The call was not executed and left nothing
	// behind at the server: sending it again, under the same id, is safe
	// and is what the caller's retry policy does.
	FaultBusy = "busy"
)

// Call is a request frame.
//
// Client identifies the calling runtime incarnation. Together with ID it
// names one logical invocation across resends: a client retrying a call
// (e.g. its reply was lost to a link outage) re-transmits the same
// (Client, ID) pair — possibly on a fresh connection — and the server's
// duplicate-suppression table guarantees the invocation executes at most
// once. An empty Client opts out of suppression.
type Call struct {
	ID     uint64
	Target uint64
	Method string
	Client string
	// TraceID and SpanID carry the caller's causal trace context: the
	// trace this invocation belongs to and the client-side span that
	// caused it. Both zero means the call is untraced. The server roots
	// its serve span under SpanID, which is how a fault on one site and
	// the payload assembly it causes on another join one span tree.
	TraceID uint64
	SpanID  uint64
	Args    []any
}

// Reply is a successful response frame.
type Reply struct {
	ID      uint64
	Results []any
}

// Fault is a failure response frame.
type Fault struct {
	ID      uint64
	Code    string
	Message string
}

// EncodeCall serializes c using reg for argument values.
func EncodeCall(reg *codec.Registry, c *Call) ([]byte, error) {
	e := codec.NewEncoder(64 + 16*len(c.Args))
	e.WriteRaw([]byte{KindCall})
	e.WriteUvarint(c.ID)
	e.WriteUvarint(c.Target)
	e.WriteString(c.Method)
	e.WriteString(c.Client)
	e.WriteUvarint(c.TraceID)
	e.WriteUvarint(c.SpanID)
	e.WriteUvarint(uint64(len(c.Args)))
	for i, a := range c.Args {
		if err := e.Value(reg, a); err != nil {
			return nil, fmt.Errorf("wire: call %s arg %d: %w", c.Method, i, err)
		}
	}
	return e.Bytes(), nil
}

// EncodeReply serializes r.
func EncodeReply(reg *codec.Registry, r *Reply) ([]byte, error) {
	e := codec.NewEncoder(32 + 16*len(r.Results))
	e.WriteRaw([]byte{KindReply})
	e.WriteUvarint(r.ID)
	e.WriteUvarint(uint64(len(r.Results)))
	for i, v := range r.Results {
		if err := e.Value(reg, v); err != nil {
			return nil, fmt.Errorf("wire: reply result %d: %w", i, err)
		}
	}
	return e.Bytes(), nil
}

// EncodeFault serializes f.
func EncodeFault(f *Fault) []byte {
	e := codec.NewEncoder(32 + len(f.Message))
	e.WriteRaw([]byte{KindFault})
	e.WriteUvarint(f.ID)
	e.WriteString(f.Code)
	e.WriteString(f.Message)
	return e.Bytes()
}

// Decode parses a frame into exactly one of *Call, *Reply, *Fault or
// *Hello. It borrows: every []byte among the decoded arguments and results
// aliases frame (capacity clipped to length) instead of being copied out of
// it, so the caller hands frame over and must not write or reuse it while a
// decoded value is live. transport.Conn.Recv gives its frame to the caller
// on exactly those terms.
func Decode(reg *codec.Registry, frame []byte) (any, error) {
	return decode(reg, codec.NewBorrowingDecoder(frame))
}

func decode(reg *codec.Registry, d *codec.Decoder) (any, error) {
	kind, err := d.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: empty frame: %w", err)
	}
	switch kind {
	case KindCall:
		c := &Call{}
		if c.ID, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: call id: %w", err)
		}
		if c.Target, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: call target: %w", err)
		}
		if c.Method, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("wire: call method: %w", err)
		}
		if c.Client, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("wire: call client: %w", err)
		}
		if c.TraceID, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: call trace id: %w", err)
		}
		if c.SpanID, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: call span id: %w", err)
		}
		n, err := d.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("wire: call argc: %w", err)
		}
		if n > uint64(d.Remaining())+1 {
			return nil, fmt.Errorf("%w: arg count %d", codec.ErrCorrupt, n)
		}
		c.Args = make([]any, n)
		for i := range c.Args {
			if c.Args[i], err = d.Value(reg); err != nil {
				return nil, fmt.Errorf("wire: call %s arg %d: %w", c.Method, i, err)
			}
		}
		return c, nil
	case KindReply:
		r := &Reply{}
		if r.ID, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: reply id: %w", err)
		}
		n, err := d.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("wire: reply count: %w", err)
		}
		if n > uint64(d.Remaining())+1 {
			return nil, fmt.Errorf("%w: result count %d", codec.ErrCorrupt, n)
		}
		r.Results = make([]any, n)
		for i := range r.Results {
			if r.Results[i], err = d.Value(reg); err != nil {
				return nil, fmt.Errorf("wire: reply result %d: %w", i, err)
			}
		}
		return r, nil
	case KindHello:
		magic, err := d.ReadRaw(len(helloMagic))
		if err != nil {
			return nil, fmt.Errorf("wire: hello magic: %w", err)
		}
		if string(magic) != helloMagic {
			return nil, fmt.Errorf("wire: bad hello magic %q", magic)
		}
		h := &Hello{}
		if h.Version, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: hello version: %w", err)
		}
		return h, nil
	case KindFault:
		f := &Fault{}
		if f.ID, err = d.ReadUvarint(); err != nil {
			return nil, fmt.Errorf("wire: fault id: %w", err)
		}
		if f.Code, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("wire: fault code: %w", err)
		}
		if f.Message, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("wire: fault message: %w", err)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %#x", kind)
	}
}
