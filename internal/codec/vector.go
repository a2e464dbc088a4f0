package codec

import "slices"

// Frozen is a byte slice that nobody writes once it has been built: not its
// bytes, and not its spare capacity either, so nothing appends to it. A
// captured object state is one (objmodel.CaptureState), and the replication
// payload and put request carry their states in Frozen fields.
//
// Its life ends when its owner gives it back, and no sooner: a buffer on a
// free list (rmi's state lists) is a fresh buffer again, and the next
// capture writes it. The owner of a reply's states is the frame's last
// hold; of a put's, the put, once no call will send it again.
//
// The promise is what lets an encoder asked for a vector (see Vector) send
// a large Frozen slice from where it lies instead of copying it into the
// frame: the frame that references it may be sent again later, a retried
// call or a reply replayed from the server's dedupe table, and must read
// the same bytes then.
//
// On the wire a Frozen slice is a byte slice, referenced or not: encoding
// follows the kind, and a decoder cannot tell the difference.
//
// The promise binds the sender's slice, not the bytes that arrive: a
// received Frozen slice is a window on the receiver's own frame, and the
// install that restores it may hand those bytes to the object
// (objmodel.AdoptState), which then writes them as it writes any field.
type Frozen []byte

// minReferenced is the shortest Frozen slice an encoder asked for a vector
// references instead of copying. It is where the two costs cross, measured
// over TCP loopback for a frame of one state between a 60-byte head and a
// 3-byte tail (the shape of a put call): copying the state into the frame
// won by 0.7 µs at 1 KiB, the two were level at 2 KiB, and the vector won
// from there on (0.5 µs at 3 KiB, 0.4 µs at 4 KiB, 7.5 µs at 16 KiB). A
// 64-byte object state therefore stays inline; a 4 KiB put state and every
// 16 KiB member of a cluster reply are referenced.
const minReferenced = 2 << 10

// StaysInPlace reports whether n bytes are enough for bytes to be kept
// where they lie instead of copied: the encoder references a Frozen slice
// that long (Vector.inPlace), and a restore adopts a received state that
// long (objmodel.AdoptState). Below it a copy costs less than what keeping
// the bytes in place does.
func StaysInPlace(n int) bool { return n >= minReferenced }

// Vector records what an encoder asked for a vector (VectorValue) left
// where it lies: each Frozen slice of at least minReferenced bytes, and the
// point in the encoder's bytes it belongs at, behind its length prefix. The
// zero value is ready to use.
type Vector struct {
	n     int
	first vectorRef   // held in place: a frame with one state (a put) records it without allocating
	rest  []vectorRef // the second on
}

type vectorRef struct {
	at int // the encoder's length when b was referenced
	b  []byte
}

func (v *Vector) ref(i int) vectorRef {
	if i == 0 {
		return v.first
	}
	return v.rest[i-1]
}

// inPlace is the one referencing predicate, shared by the encoder and the
// sizing walk: an encoder asked for a vector (v non-nil) leaves n bytes of
// a byte slice where they lie when the slice is Frozen (its plan says so)
// and StaysInPlace(n).
func (v *Vector) inPlace(frozen bool, n int) bool {
	return v != nil && frozen && StaysInPlace(n)
}

// AppendParts appends to dst an encoding as the vector it is: head, the
// bytes of the encoder that filled v, cut where each referenced slice
// belongs, with the slice in between. The concatenation of what it appends
// is the contiguous encoding. It appends nothing when nothing was
// referenced: head is then the whole encoding.
func (v *Vector) AppendParts(dst [][]byte, head []byte) [][]byte {
	if v.Len() == 0 {
		return dst
	}
	dst = slices.Grow(dst, 2*v.n+1)
	at := 0
	for i := 0; i < v.n; i++ {
		r := v.ref(i)
		dst = append(dst, head[at:r.at], r.b)
		at = r.at
	}
	return append(dst, head[at:])
}

// Len is the number of slices v references.
func (v *Vector) Len() int {
	if v == nil {
		return 0
	}
	return v.n
}

// writeByteSlice appends b behind its length prefix; an encoder asked for a
// vector writes the prefix alone when vec.inPlace(frozen, len(b)) and
// records b to be sent from where it lies.
func (e *Encoder) writeByteSlice(b []byte, frozen bool, vec *Vector) {
	if !vec.inPlace(frozen, len(b)) {
		e.WriteBytes(b)
		return
	}
	e.WriteUvarint(uint64(len(b)))
	r := vectorRef{at: len(e.buf), b: b}
	if vec.n == 0 {
		vec.first = r
	} else {
		vec.rest = append(vec.rest, r)
	}
	vec.n++
}
