package codec

import (
	"encoding/binary"
	"testing"
)

// FuzzDecodeValue checks that the self-describing decoder never panics or
// over-reads on arbitrary input. Run with `go test -fuzz=FuzzDecodeValue`;
// in normal test runs the seed corpus executes.
func FuzzDecodeValue(f *testing.F) {
	reg := NewRegistry()
	reg.MustRegister("fuzz.point", wirePoint{})

	// Seeds: one valid encoding of each tag plus structural junk.
	seed := func(build func(e *Encoder)) {
		e := NewEncoder(0)
		build(e)
		f.Add(e.Bytes())
	}
	seed(func(e *Encoder) { _ = e.Value(reg, nil) })
	seed(func(e *Encoder) { _ = e.Value(reg, true) })
	seed(func(e *Encoder) { _ = e.Value(reg, int64(-42)) })
	seed(func(e *Encoder) { _ = e.Value(reg, uint64(42)) })
	seed(func(e *Encoder) { _ = e.Value(reg, 3.14) })
	seed(func(e *Encoder) { _ = e.Value(reg, "hello") })
	seed(func(e *Encoder) { _ = e.Value(reg, []byte{1, 2, 3}) })
	seed(func(e *Encoder) { _ = e.Value(reg, []any{int64(1), "two"}) })
	seed(func(e *Encoder) { _ = e.Value(reg, map[string]any{"k": int64(1)}) })
	seed(func(e *Encoder) { _ = e.Value(reg, &wirePoint{X: 1, Tags: []string{"t"}}) })
	f.Add([]byte{0xff, 0x00, 0x01})
	// A registered type's id, then a cut-off body; an id nothing holds; an
	// id cut short.
	seed(func(e *Encoder) {
		e.buf = binary.LittleEndian.AppendUint32(append(e.buf, tagNamed), TypeID("fuzz.point"))
		e.WriteVarint(1)
	})
	seed(func(e *Encoder) { e.buf = binary.LittleEndian.AppendUint32(append(e.buf, tagNamed), TypeID("fuzz")) })
	f.Add([]byte{tagNamed, 0x04, 'f'})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_, _ = d.Value(reg)
		if d.Offset() > len(data) {
			t.Fatalf("decoder over-read: offset %d > len %d", d.Offset(), len(data))
		}
	})
}

// FuzzDecodeStruct fuzzes the type-directed decoder against the wirePoint
// layout.
func FuzzDecodeStruct(f *testing.F) {
	reg := NewRegistry()
	e := NewEncoder(0)
	_ = e.EncodeStruct(reg, wirePoint{X: 1, Y: 2, Label: "p", Tags: []string{"a"}})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		var out wirePoint
		_ = NewDecoder(data).DecodeStruct(reg, &out)
	})
}
