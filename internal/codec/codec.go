// Package codec implements the self-describing binary encoding used by the
// OBIWAN wire protocol and by object-graph replication payloads.
//
// The original OBIWAN prototype relied on Java serialization, performed by
// the JVM, to ship replicas and RMI arguments between sites. Go has no
// equivalent facility for dynamic object graphs, so this package provides
// one: a compact, deterministic, stdlib-only format with
//
//   - primitive encoders/decoders (varints, strings, byte slices, floats),
//   - a type-tagged encoding for arbitrary values ("Value"), covering
//     primitives, slices, maps, and registered named struct types, and
//   - a registry (see registry.go) that maps stable wire names to Go types
//     so both sites agree on struct layouts without sharing memory.
//
// All decode paths are defensive: lengths are bounded by the decoder's
// remaining input so corrupt or hostile payloads cannot trigger huge
// allocations.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Common decode errors.
var (
	// ErrTruncated is returned when the input ends in the middle of a value.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrCorrupt is returned when the input is structurally invalid, for
	// example a length prefix larger than the remaining input.
	ErrCorrupt = errors.New("codec: corrupt input")
	// ErrTypeMismatch is returned when a decoded wire tag does not match the
	// type requested by the caller.
	ErrTypeMismatch = errors.New("codec: wire type mismatch")
)

// Encoder appends values to an internal buffer. The zero value is ready to
// use. Encoders must not be used concurrently.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity pre-allocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer. The returned slice aliases the encoder's
// internal storage and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded data but retains the underlying storage.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// WriteUvarint appends v in unsigned LEB128 form.
func (e *Encoder) WriteUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// WriteVarint appends v in zig-zag LEB128 form.
func (e *Encoder) WriteVarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// WriteBool appends a single 0/1 byte.
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// WriteByte appends a single raw byte. It never fails; the error return
// satisfies io.ByteWriter.
func (e *Encoder) WriteByte(b byte) error {
	e.buf = append(e.buf, b)
	return nil
}

// WriteFloat64 appends v as 8 little-endian IEEE-754 bytes.
func (e *Encoder) WriteFloat64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// WriteString appends a length-prefixed UTF-8 string.
func (e *Encoder) WriteString(s string) {
	e.WriteUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// WriteBytes appends a length-prefixed byte slice. A nil slice is encoded
// identically to an empty one.
func (e *Encoder) WriteBytes(b []byte) {
	e.WriteUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteRaw appends b without a length prefix. The decoder must know the
// exact length out of band.
func (e *Encoder) WriteRaw(b []byte) {
	e.buf = append(e.buf, b...)
}

// Decoder reads values from a byte slice. Decoders must not be used
// concurrently.
//
// No method hands the Decoder to anything it cannot see (an Unmarshaler
// gets the bytes), so one made by NewDecoder or NewBorrowingDecoder stays in
// its caller's frame. off is 32 bits wide: inputs are frames and log
// records, bounded far below 4 GiB by transport.MaxMessageSize.
type Decoder struct {
	buf    []byte
	off    uint32
	borrow bool  // ReadBytes aliases buf instead of copying
	memo   *Memo // nil: every string is a fresh copy
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf; the
// caller must not mutate it while decoding. Every []byte it returns is a
// copy, so buf may be released or reused afterwards. Input beyond 4 GiB is
// not addressable and reads as truncated.
func NewDecoder(buf []byte) *Decoder {
	if uint64(len(buf)) > math.MaxUint32 {
		buf = buf[:math.MaxUint32]
	}
	return &Decoder{buf: buf}
}

// NewBorrowingDecoder is NewDecoder for a caller that owns buf and hands it
// over: decoded []byte values (ReadBytes, and through it Value and
// DecodeStruct) alias buf, capacity clipped to length, instead of being
// copied out of it. buf must not be written or reused while any decoded
// value is live. Strings are always copied.
func NewBorrowingDecoder(buf []byte) *Decoder {
	d := NewDecoder(buf)
	d.borrow = true
	return d
}

// WithMemo makes d decode its strings through m (see Memo) and returns d.
func (d *Decoder) WithMemo(m *Memo) *Decoder {
	d.memo = m
	return d
}

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - int(d.off) }

// Offset returns the current read position.
func (d *Decoder) Offset() int { return int(d.off) }

// ReadUvarint decodes an unsigned LEB128 value.
func (d *Decoder) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: uvarint overflow at offset %d", ErrCorrupt, d.off)
	}
	d.off += uint32(n)
	return v, nil
}

// ReadVarint decodes a zig-zag LEB128 value.
func (d *Decoder) ReadVarint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow at offset %d", ErrCorrupt, d.off)
	}
	d.off += uint32(n)
	return v, nil
}

// ReadBool decodes a single 0/1 byte.
func (d *Decoder) ReadBool() (bool, error) {
	b, err := d.ReadByte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: invalid bool byte %#x at offset %d", ErrCorrupt, b, d.off-1)
	}
}

// ReadByte decodes a single raw byte.
func (d *Decoder) ReadByte() (byte, error) {
	if int(d.off) >= len(d.buf) {
		return 0, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// ReadFloat64 decodes 8 little-endian IEEE-754 bytes.
func (d *Decoder) ReadFloat64() (float64, error) {
	if d.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v), nil
}

// readLen decodes a length prefix and validates it against the remaining
// input so corrupt lengths cannot force oversized allocations.
func (d *Decoder) readLen() (int, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrCorrupt, n, d.Remaining())
	}
	return int(n), nil
}

// take returns the next n bytes of the input, which the caller has checked
// are there, and moves past them.
func (d *Decoder) take(n int) []byte {
	b := d.buf[d.off : int(d.off)+n]
	d.off += uint32(n)
	return b
}

// ReadString decodes a length-prefixed string. It is a copy, never a window
// on the input: a fresh one, or the memo's copy of an earlier one.
func (d *Decoder) ReadString() (string, error) {
	n, err := d.readLen()
	if err != nil {
		return "", err
	}
	return d.memo.string(d.take(n)), nil
}

// ReadBytes decodes a length-prefixed byte slice. The result is a copy and
// remains valid after the decoder's input is released, unless the decoder
// borrows (NewBorrowingDecoder): then it aliases the input, with its
// capacity clipped so that an append cannot reach the bytes behind it. An
// empty slice never aliases: it would pin the input for nothing.
func (d *Decoder) ReadBytes() ([]byte, error) {
	n, err := d.readLen()
	if err != nil {
		return nil, err
	}
	b := d.take(n)
	if d.borrow && n > 0 {
		return b[:n:n], nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// ReadRaw decodes exactly n bytes without a length prefix. The returned
// slice aliases the decoder's input.
func (d *Decoder) ReadRaw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative raw length %d", ErrCorrupt, n)
	}
	if n > d.Remaining() {
		return nil, ErrTruncated
	}
	return d.take(n), nil
}

// countedLen decodes a count prefix (for slices and maps) and sanity-checks
// it: every element needs at least one byte of input, so a count larger than
// the remaining byte count is necessarily corrupt.
func (d *Decoder) countedLen() (int, error) {
	n, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, fmt.Errorf("%w: element count %d exceeds remaining %d bytes", ErrCorrupt, n, d.Remaining())
	}
	return int(n), nil
}
