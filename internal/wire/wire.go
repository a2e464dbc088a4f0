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
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

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
//	3 — names leave the values: a registered type travels as its 4-byte
//	    codec.TypeID instead of its name, a remote reference carries no
//	    interface name, a frontier descriptor no type name, a payload no
//	    root OID (its first object is the root), and a step reply writes
//	    the replier's own address as empty (replication.Payload)
//	4 — the caller names itself once per connection: Hello carries its
//	    Identity, and Call frames carry no client
const ProtocolVersion = 4

// helloMagic guards against cross-protocol traffic reaching an RMI port.
const helloMagic = "OBI1"

// Hello is the connection preamble: the protocol revision and the calling
// runtime's identity, which every call on the connection is made under.
type Hello struct {
	Version uint64
	Identity
}

// Identity names one calling runtime incarnation. Together with a call id it
// names one logical invocation across resends: a client retrying a call
// (e.g. its reply was lost to a link outage) re-transmits the same id on a
// connection that opened with the same Identity, possibly a fresh one, and
// the server's duplicate-suppression table guarantees the invocation
// executes at most once. The incarnation travels at a fixed width, so a
// preamble's size does not depend on it. Durable incarnations (persisted by
// a site's WAL) and ephemeral ones are separate namespaces.
type Identity struct {
	Addr        string
	Incarnation uint64
	Durable     bool
}

// EncodeHello serializes the connection preamble naming caller. A bare
// EncodeHello(), which callers written before revision 4 still make, names
// the zero Identity.
func EncodeHello(caller ...Identity) []byte {
	var id Identity
	if len(caller) > 0 {
		id = caller[0]
	}
	e := codec.NewEncoder(24 + len(id.Addr))
	e.WriteRaw([]byte{KindHello})
	e.WriteRaw([]byte(helloMagic))
	e.WriteUvarint(ProtocolVersion)
	e.WriteString(id.Addr)
	e.WriteRaw(binary.BigEndian.AppendUint64(nil, id.Incarnation))
	e.WriteBool(id.Durable)
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

// Call is a request frame. Its caller is the Identity its connection's
// Hello named.
type Call struct {
	ID     uint64
	Target uint64
	Method string
	// Client is neither encoded nor decoded since revision 4; callers
	// written before it still set it.
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

// Frame is one encoded call or reply as it is sent. Most frames are one
// buffer. A frame whose values carry codec.Frozen states long enough to be
// worth it (codec.Vector) is a vector instead: a head buffer holding
// everything else, cut where each state belongs, with the state referenced
// where it lies. transport.SendVector sends it as one message, the bytes the
// contiguous encoding would have been; the receiver cannot tell.
//
// Holding a frame holds what its vector references: the states are Frozen,
// so a frame kept for a retry or a replay sends the same bytes again.
// A vector whose states no one else holds (Lend) counts its holds, its
// keeper's and one per send in flight; the last Drop frees its states.
type Frame struct {
	buf []byte  // the whole frame, or the head its vector is cut from
	vec *vector // nil for a frame of one buffer
}

type vector struct {
	parts [][]byte // head pieces and referenced states, in wire order
	len   int
	holds atomic.Int32 // 0 unless lent and alive
	// three backs parts when there are three, a frame with one state (a
	// put call): such a frame costs one allocation over its contiguous form.
	three [3][]byte
}

// FrameOf is the frame of one buffer, b.
func FrameOf(b []byte) Frame { return Frame{buf: b} }

// Buffers returns the frame as it is handed to the transport: its one
// buffer, or (nil, parts) for a vector, to be sent by transport.SendVector.
func (f Frame) Buffers() (one []byte, parts [][]byte) {
	if f.vec != nil {
		return nil, f.vec.parts
	}
	return f.buf, nil
}

// Len is the frame's length on the wire.
func (f Frame) Len() int {
	if f.vec != nil {
		return f.vec.len
	}
	return len(f.buf)
}

// Pinned is what holding the frame keeps alive: its buffer's capacity and,
// for a vector, each referenced state's (a 16 394-byte state pins its
// 18 432-byte size class).
func (f Frame) Pinned() int {
	n := cap(f.buf)
	for i := 0; i < f.States(); i++ {
		n += cap(f.State(i))
	}
	return n
}

// States is how many states f references where they lie (State(i)).
func (f Frame) States() int {
	if f.vec == nil {
		return 0
	}
	return len(f.vec.parts) / 2
}

// State is the i-th state f references: AppendParts cuts the head around it.
func (f Frame) State(i int) []byte { return f.vec.parts[2*i+1] }

// Lend marks f's states as reusable once f is dead and gives f its keeper's
// hold; f must be a vector no one else holds yet.
func (f Frame) Lend() { f.vec.holds.Store(1) }

// Hold takes a hold on a lent frame, under one already taken, for a send.
func (f Frame) Hold() {
	if f.vec != nil && f.vec.holds.Load() > 0 {
		f.vec.holds.Add(1)
	}
}

// Drop ends a hold on f and reports whether it was a lent frame's last: its
// states may then be reused.
func (f Frame) Drop() bool {
	return f.vec != nil && f.vec.holds.Load() > 0 && f.vec.holds.Add(-1) == 0
}

// EncodeCall serializes c as one contiguous buffer, using reg for argument
// values.
func EncodeCall(reg *codec.Registry, c *Call) ([]byte, error) {
	f, err := encode(reg, c, nil)
	return f.buf, err
}

// EncodeReply serializes r as one contiguous buffer.
func EncodeReply(reg *codec.Registry, r *Reply) ([]byte, error) {
	f, err := encode(reg, r, nil)
	return f.buf, err
}

// EncodeFrame serializes msg, a *Call or a *Reply, as the Frame it is sent
// as: a vector when its values carry Frozen states worth referencing, one
// buffer otherwise (with no allocation beyond EncodeCall's or EncodeReply's).
func EncodeFrame(reg *codec.Registry, msg any) (Frame, error) {
	var vec codec.Vector
	return encode(reg, msg, &vec)
}

// encode is the one encoder of calls and replies: contiguous when vec is
// nil, as a vector otherwise.
func encode(reg *codec.Registry, msg any, vec *codec.Vector) (Frame, error) {
	var e *codec.Encoder
	var values []any
	switch m := msg.(type) {
	case *Call:
		e = codec.NewEncoder(64 + 16*len(m.Args))
		e.WriteRaw([]byte{KindCall})
		e.WriteUvarint(m.ID)
		e.WriteUvarint(m.Target)
		e.WriteString(m.Method)
		e.WriteUvarint(m.TraceID)
		e.WriteUvarint(m.SpanID)
		values = m.Args
	case *Reply:
		e = codec.NewEncoder(32 + 16*len(m.Results))
		e.WriteRaw([]byte{KindReply})
		e.WriteUvarint(m.ID)
		values = m.Results
	default:
		return Frame{}, errors.New("wire: only a call or a reply is encoded as a frame")
	}
	e.WriteUvarint(uint64(len(values)))
	for i, v := range values {
		if err := e.VectorValue(reg, v, vec); err != nil {
			if c, ok := msg.(*Call); ok {
				return Frame{}, fmt.Errorf("wire: call %s arg %d: %w", c.Method, i, err)
			}
			return Frame{}, fmt.Errorf("wire: reply result %d: %w", i, err)
		}
	}
	head := e.Bytes()
	if vec.Len() == 0 {
		return Frame{buf: head}, nil
	}
	v := &vector{}
	v.parts = vec.AppendParts(v.three[:0], head)
	for _, p := range v.parts {
		v.len += len(p)
	}
	return Frame{buf: head, vec: v}, nil
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
	return DecodeMemo(reg, nil, frame)
}

// DecodeMemo is Decode for one connection's reader, which decodes each of
// its frames through its one memo: a string the connection has decoded
// before (a method name, a type name, an address) comes back
// as the memo's copy instead of a new one (codec.Memo).
func DecodeMemo(reg *codec.Registry, memo *codec.Memo, frame []byte) (any, error) {
	return decode(reg, codec.NewBorrowingDecoder(frame).WithMemo(memo))
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
		if h.Addr, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("wire: hello address: %w", err)
		}
		inc, err := d.ReadRaw(8)
		if err != nil {
			return nil, fmt.Errorf("wire: hello incarnation: %w", err)
		}
		h.Incarnation = binary.BigEndian.Uint64(inc)
		if h.Durable, err = d.ReadBool(); err != nil {
			return nil, fmt.Errorf("wire: hello durable flag: %w", err)
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
