package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"obiwan/internal/raceflag"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.WriteUvarint(0)
	e.WriteUvarint(math.MaxUint64)
	e.WriteVarint(-1)
	e.WriteVarint(math.MinInt64)
	e.WriteVarint(math.MaxInt64)
	e.WriteBool(true)
	e.WriteBool(false)
	e.WriteFloat64(math.Pi)
	e.WriteString("héllo, world")
	e.WriteBytes([]byte{0, 1, 2, 255})
	e.WriteBytes(nil)

	d := NewDecoder(e.Bytes())
	if v, err := d.ReadUvarint(); err != nil || v != 0 {
		t.Fatalf("uvarint 0: got %d, %v", v, err)
	}
	if v, err := d.ReadUvarint(); err != nil || v != math.MaxUint64 {
		t.Fatalf("uvarint max: got %d, %v", v, err)
	}
	if v, err := d.ReadVarint(); err != nil || v != -1 {
		t.Fatalf("varint -1: got %d, %v", v, err)
	}
	if v, err := d.ReadVarint(); err != nil || v != math.MinInt64 {
		t.Fatalf("varint min: got %d, %v", v, err)
	}
	if v, err := d.ReadVarint(); err != nil || v != math.MaxInt64 {
		t.Fatalf("varint max: got %d, %v", v, err)
	}
	if v, err := d.ReadBool(); err != nil || !v {
		t.Fatalf("bool true: got %v, %v", v, err)
	}
	if v, err := d.ReadBool(); err != nil || v {
		t.Fatalf("bool false: got %v, %v", v, err)
	}
	if v, err := d.ReadFloat64(); err != nil || v != math.Pi {
		t.Fatalf("float: got %v, %v", v, err)
	}
	if v, err := d.ReadString(); err != nil || v != "héllo, world" {
		t.Fatalf("string: got %q, %v", v, err)
	}
	if v, err := d.ReadBytes(); err != nil || string(v) != "\x00\x01\x02\xff" {
		t.Fatalf("bytes: got %v, %v", v, err)
	}
	if v, err := d.ReadBytes(); err != nil || len(v) != 0 {
		t.Fatalf("nil bytes: got %v, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining %d bytes after full decode", d.Remaining())
	}
}

func TestDecodeTruncated(t *testing.T) {
	e := NewEncoder(0)
	e.WriteString("truncate me please")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		if _, err := d.ReadString(); err == nil {
			t.Fatalf("cut=%d: expected error on truncated input", cut)
		}
	}
}

func TestDecodeCorruptLength(t *testing.T) {
	// Length prefix claims 1000 bytes but only a few follow.
	e := NewEncoder(0)
	e.WriteUvarint(1000)
	e.WriteRaw([]byte("short"))
	d := NewDecoder(e.Bytes())
	if _, err := d.ReadBytes(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestReadBoolRejectsJunk(t *testing.T) {
	d := NewDecoder([]byte{7})
	if _, err := d.ReadBool(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestValueRoundTripScalars(t *testing.T) {
	reg := NewRegistry()
	cases := []any{
		nil,
		true,
		false,
		int64(-42),
		uint64(42),
		float64(2.5),
		"str",
		[]byte("bytes"),
		[]any{int64(1), "two", nil},
		map[string]any{"a": int64(1), "b": "two"},
	}
	for _, want := range cases {
		e := NewEncoder(0)
		if err := e.Value(reg, want); err != nil {
			t.Fatalf("encode %#v: %v", want, err)
		}
		d := NewDecoder(e.Bytes())
		got, err := d.Value(reg)
		if err != nil {
			t.Fatalf("decode %#v: %v", want, err)
		}
		if !valueEqual(got, want) {
			t.Fatalf("round trip mismatch: got %#v want %#v", got, want)
		}
	}
}

func TestValueNormalizesIntKinds(t *testing.T) {
	reg := NewRegistry()
	e := NewEncoder(0)
	if err := e.Value(reg, int32(-7)); err != nil {
		t.Fatal(err)
	}
	if err := e.Value(reg, uint8(7)); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	v1, err := d.Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != int64(-7) {
		t.Fatalf("int32 should decode as int64(-7), got %#v", v1)
	}
	v2, err := d.Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != uint64(7) {
		t.Fatalf("uint8 should decode as uint64(7), got %#v", v2)
	}
}

type wirePoint struct {
	X, Y    int
	Label   string
	Tags    []string
	Props   map[string]any
	hidden  int    // unexported: must be skipped
	Skipped string `obiwan:"-"`
}

func TestNamedStructRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.point", wirePoint{})
	want := &wirePoint{
		X: 3, Y: -4, Label: "p",
		Tags:    []string{"a", "b"},
		Props:   map[string]any{"k": int64(9)},
		hidden:  99,
		Skipped: "do not ship",
	}
	e := NewEncoder(0)
	if err := e.Value(reg, want); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	got, err := d.Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.(*wirePoint)
	if !ok {
		t.Fatalf("decoded %T, want *wirePoint", got)
	}
	if p.X != 3 || p.Y != -4 || p.Label != "p" || len(p.Tags) != 2 || p.Tags[1] != "b" {
		t.Fatalf("bad decode: %+v", p)
	}
	if p.hidden != 0 || p.Skipped != "" {
		t.Fatalf("unexported/skipped fields must not travel: %+v", p)
	}
	if p.Props["k"] != int64(9) {
		t.Fatalf("props: %+v", p.Props)
	}
}

func TestValueUnknownTypeRejected(t *testing.T) {
	reg := NewRegistry()
	e := NewEncoder(0)
	err := e.Value(reg, struct{ Z int }{1})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("expected not-registered error, got %v", err)
	}
}

func TestDecodeUnknownNameRejected(t *testing.T) {
	src := NewRegistry()
	src.MustRegister("test.point", wirePoint{})
	e := NewEncoder(0)
	if err := e.Value(src, &wirePoint{X: 1}); err != nil {
		t.Fatal(err)
	}
	dst := NewRegistry() // does not know test.point
	d := NewDecoder(e.Bytes())
	if _, err := d.Value(dst); err == nil {
		t.Fatal("expected unknown wire type error")
	}
}

func TestRegistryRebindRejected(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("n", wirePoint{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("n", wirePoint{}); err != nil {
		t.Fatalf("idempotent re-register must succeed: %v", err)
	}
	if err := reg.Register("n", struct{ A int }{}); err == nil {
		t.Fatal("rebinding a name to a new type must fail")
	}
	if err := reg.Register("other", wirePoint{}); err == nil {
		t.Fatal("rebinding a type to a new name must fail")
	}
}

type nested struct {
	Name string
	Next *nested
	Data []byte
	Arr  [3]uint16
}

func TestPointerChainRoundTrip(t *testing.T) {
	reg := NewRegistry()
	want := &nested{
		Name: "a",
		Next: &nested{Name: "b", Next: nil, Arr: [3]uint16{1, 2, 3}},
		Data: []byte{9},
	}
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, want); err != nil {
		t.Fatal(err)
	}
	var got nested
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a" || got.Next == nil || got.Next.Name != "b" || got.Next.Next != nil {
		t.Fatalf("bad decode: %+v", got)
	}
	if got.Next.Arr != [3]uint16{1, 2, 3} {
		t.Fatalf("array: %+v", got.Next.Arr)
	}
}

// TestEncodeStructInAppends: the buffer EncodeStructIn is given takes the
// encoder's earlier bytes and then v, the bytes EncodeStruct appends, and
// it is asked for the length v encodes to.
func TestEncodeStructInAppends(t *testing.T) {
	reg := NewRegistry()
	v := &nested{Name: "a", Data: bytes.Repeat([]byte{7}, 100)}
	var want Encoder
	want.WriteString("head")
	if err := want.EncodeStruct(reg, v); err != nil {
		t.Fatal(err)
	}
	var got Encoder
	got.WriteString("head")
	given := make([]byte, 0, 512)
	asked := 0
	err := got.EncodeStructIn(reg, v, func(n int) []byte { asked = n; return given })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || &got.Bytes()[0] != &given[:1][0] {
		t.Fatalf("EncodeStructIn wrote %x into its own buffer, want %x in the given one", got.Bytes(), want.Bytes())
	}
	if asked != want.Len()-len("head")-1 {
		t.Fatalf("asked for %d bytes, v encodes to %d", asked, want.Len()-len("head")-1)
	}
}

type customWire struct {
	N int
}

func (c customWire) MarshalOBI(dst []byte) ([]byte, error) {
	return binary.AppendVarint(dst, int64(c.N)*2), nil // deliberately non-default form
}

func (c *customWire) UnmarshalOBI(src []byte) (int, error) {
	d := NewDecoder(src)
	v, err := d.ReadVarint()
	if err != nil {
		return 0, err
	}
	c.N = int(v / 2)
	return d.Offset(), nil
}

func TestMarshalerOverridesReflection(t *testing.T) {
	reg := NewRegistry()
	type holder struct{ C customWire }
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, holder{C: customWire{N: 21}}); err != nil {
		t.Fatal(err)
	}
	var got holder
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &got); err != nil {
		t.Fatal(err)
	}
	if got.C.N != 21 {
		t.Fatalf("custom marshaler round trip: got %d", got.C.N)
	}
}

// Property: every (string, bytes, int64, uint64) tuple survives a round trip.
func TestQuickPrimitiveRoundTrip(t *testing.T) {
	f := func(s string, b []byte, i int64, u uint64, fl float64, ok bool) bool {
		e := NewEncoder(0)
		e.WriteString(s)
		e.WriteBytes(b)
		e.WriteVarint(i)
		e.WriteUvarint(u)
		e.WriteFloat64(fl)
		e.WriteBool(ok)
		d := NewDecoder(e.Bytes())
		gs, err := d.ReadString()
		if err != nil || gs != s {
			return false
		}
		gb, err := d.ReadBytes()
		if err != nil || string(gb) != string(b) {
			return false
		}
		gi, err := d.ReadVarint()
		if err != nil || gi != i {
			return false
		}
		gu, err := d.ReadUvarint()
		if err != nil || gu != u {
			return false
		}
		gf, err := d.ReadFloat64()
		if err != nil || (gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl))) {
			return false
		}
		gk, err := d.ReadBool()
		return err == nil && gk == ok && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics and never over-reads on arbitrary junk.
func TestQuickDecoderRobustness(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.point", wirePoint{})
	f := func(junk []byte) bool {
		d := NewDecoder(junk)
		// Errors are fine; panics or nonsensical offsets are not.
		_, _ = d.Value(reg)
		return d.Offset() <= len(junk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: struct round trip for randomly generated wirePoints.
func TestQuickStructRoundTrip(t *testing.T) {
	reg := NewRegistry()
	f := func(x, y int, label string, tags []string) bool {
		in := wirePoint{X: x, Y: y, Label: label, Tags: tags}
		e := NewEncoder(0)
		if err := e.EncodeStruct(reg, in); err != nil {
			return false
		}
		var out wirePoint
		if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
			return false
		}
		if out.X != x || out.Y != y || out.Label != label || len(out.Tags) != len(tags) {
			return false
		}
		for i := range tags {
			if out.Tags[i] != tags[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func valueEqual(a, b any) bool {
	switch x := a.(type) {
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !valueEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if !valueEqual(v, y[k]) {
				return false
			}
		}
		return true
	case []byte:
		y, ok := b.([]byte)
		return ok && string(x) == string(y)
	default:
		return a == b
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.WriteString("abc")
	if e.Len() == 0 {
		t.Fatal("expected non-empty buffer")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset should empty buffer")
	}
	e.WriteString("xyz")
	d := NewDecoder(e.Bytes())
	s, err := d.ReadString()
	if err != nil || s != "xyz" {
		t.Fatalf("after reset: %q, %v", s, err)
	}
}

func TestRegistryNames(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("b.type", wirePoint{})
	reg.MustRegister("a.type", nested{})
	names := reg.Names()
	if len(names) != 2 || names[0] != "a.type" || names[1] != "b.type" {
		t.Fatalf("names: %v", names)
	}
	if _, ok := reg.typeOf(TypeID("missing")); ok {
		t.Fatal("missing name should not resolve")
	}
	if name, ok := reg.NameOf(&wirePoint{}); !ok || name != "b.type" {
		t.Fatalf("NameOf pointer: %q %v", name, ok)
	}
}

type stamped struct {
	Label string
	At    time.Time
	Maybe *time.Time
}

func TestTimeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	at := time.Date(2026, 7, 6, 12, 0, 0, 123456789, time.UTC)
	in := stamped{Label: "x", At: at, Maybe: &at}
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, in); err != nil {
		t.Fatal(err)
	}
	var out stamped
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
		t.Fatal(err)
	}
	if !out.At.Equal(at) {
		t.Fatalf("time: %v want %v", out.At, at)
	}
	if out.Maybe == nil || !out.Maybe.Equal(at) {
		t.Fatalf("time ptr: %v", out.Maybe)
	}
	if out.Label != "x" {
		t.Fatalf("label: %q", out.Label)
	}
}

func TestZeroTimeSurvives(t *testing.T) {
	reg := NewRegistry()
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, stamped{}); err != nil {
		t.Fatal(err)
	}
	var out stamped
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
		t.Fatal(err)
	}
	// UnixNano round-tripping does not preserve the zero Time's internal
	// form, but the instant must be stable across a double round trip.
	e2 := NewEncoder(0)
	if err := e2.EncodeStruct(reg, out); err != nil {
		t.Fatal(err)
	}
	var out2 stamped
	if err := NewDecoder(e2.Bytes()).DecodeStruct(reg, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.At.Equal(out.At) {
		t.Fatalf("instant drift: %v vs %v", out2.At, out.At)
	}
}

type intKeyed struct {
	ByID   map[int64]string
	ByCode map[uint16][]byte
}

func TestIntegerMapKeys(t *testing.T) {
	reg := NewRegistry()
	in := intKeyed{
		ByID:   map[int64]string{-3: "neg", 0: "zero", 9: "nine"},
		ByCode: map[uint16][]byte{7: {1}, 65535: {2}},
	}
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, in); err != nil {
		t.Fatal(err)
	}
	var out intKeyed
	if err := NewDecoder(e.Bytes()).DecodeStruct(reg, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.ByID) != 3 || out.ByID[-3] != "neg" || out.ByID[9] != "nine" {
		t.Fatalf("ByID: %v", out.ByID)
	}
	if len(out.ByCode) != 2 || string(out.ByCode[65535]) != "\x02" {
		t.Fatalf("ByCode: %v", out.ByCode)
	}
}

func TestIntegerMapDeterministicEncoding(t *testing.T) {
	reg := NewRegistry()
	in := intKeyed{ByID: map[int64]string{5: "a", 1: "b", 3: "c", -9: "d"}}
	e1 := NewEncoder(0)
	if err := e1.EncodeStruct(reg, in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e2 := NewEncoder(0)
		if err := e2.EncodeStruct(reg, in); err != nil {
			t.Fatal(err)
		}
		if string(e1.Bytes()) != string(e2.Bytes()) {
			t.Fatal("map encoding must be deterministic")
		}
	}
}

func TestUnsupportedMapKeyRejected(t *testing.T) {
	reg := NewRegistry()
	type bad struct {
		M map[float64]string
	}
	e := NewEncoder(0)
	if err := e.EncodeStruct(reg, bad{M: map[float64]string{1.5: "x"}}); err == nil {
		t.Fatal("float map keys must be rejected")
	}
}

func TestWriteByteAndReadRaw(t *testing.T) {
	e := NewEncoder(-1) // negative hint clamps to zero
	if err := e.WriteByte(0xAB); err != nil {
		t.Fatal(err)
	}
	e.WriteRaw([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	b, err := d.ReadByte()
	if err != nil || b != 0xAB {
		t.Fatalf("byte: %x %v", b, err)
	}
	raw, err := d.ReadRaw(3)
	if err != nil || string(raw) != "\x01\x02\x03" {
		t.Fatalf("raw: %v %v", raw, err)
	}
	if _, err := d.ReadRaw(1); err == nil {
		t.Fatal("raw past end must fail")
	}
	if _, err := d.ReadRaw(-1); err == nil {
		t.Fatal("negative raw must fail")
	}
}

// TestRegisterRefusesTypeIDCollision: "test.T479599" and "test.T662382"
// hash to the same FNV-1a 32-bit id, so the second name cannot register in
// a registry that holds the first: a value of either type would decode as
// the other. A name registered again for its own type is still a no-op.
func TestRegisterRefusesTypeIDCollision(t *testing.T) {
	if TypeID("test.T479599") != TypeID("test.T662382") {
		t.Fatalf("the pair no longer collides: %#08x, %#08x", TypeID("test.T479599"), TypeID("test.T662382"))
	}
	reg := NewRegistry()
	reg.MustRegister("test.T479599", wirePoint{})
	if err := reg.Register("test.T662382", nested{}); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("a colliding name registered: %v", err)
	}
	if err := reg.Register("test.T479599", wirePoint{}); err != nil {
		t.Fatalf("registering a name again for its own type: %v", err)
	}
	if names := reg.Names(); len(names) != 1 {
		t.Fatalf("names after the refusal: %v", names)
	}
}

// TestNamedValueDecodeAllocations: a registered value travels as its tag
// and a 4-byte type id, and the decoder finds its type by that id without
// allocating: a registered empty struct decodes with no allocation at all.
func TestNamedValueDecodeAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	type empty struct{}
	reg := NewRegistry()
	reg.MustRegister("test.empty", empty{})
	e := NewEncoder(0)
	if err := e.Value(reg, empty{}); err != nil {
		t.Fatal(err)
	}
	if len(e.Bytes()) != 5 {
		t.Fatalf("a registered empty struct encodes as %x, want its tag and a 4-byte id", e.Bytes())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewDecoder(e.Bytes()).Value(reg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a registered empty struct allocates %.1f objects, want 0", allocs)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	// Package-level Register/MustRegister hit the process-wide registry.
	type defRegProbe struct{ A int }
	if err := Register("codec_test.defreg", defRegProbe{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := DefaultRegistry().typeOf(TypeID("codec_test.defreg")); !ok {
		t.Fatal("default registry lookup")
	}
	MustRegister("codec_test.defreg", defRegProbe{}) // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister must panic on rebind")
		}
	}()
	MustRegister("codec_test.defreg", struct{ B string }{})
}

func TestValueEncodesAllIntKinds(t *testing.T) {
	reg := NewRegistry()
	e := NewEncoder(0)
	inputs := []any{
		int(1), int8(2), int16(3), int32(4), int64(5),
		uint(6), uint8(7), uint16(8), uint32(9), uint64(10), uintptr(11),
		float32(1.5),
	}
	for _, v := range inputs {
		if err := e.Value(reg, v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
	}
	d := NewDecoder(e.Bytes())
	wants := []any{
		int64(1), int64(2), int64(3), int64(4), int64(5),
		uint64(6), uint64(7), uint64(8), uint64(9), uint64(10), uint64(11),
		float64(1.5),
	}
	for i, want := range wants {
		got, err := d.Value(reg)
		if err != nil || got != want {
			t.Fatalf("value %d: got %#v want %#v (%v)", i, got, want, err)
		}
	}
}

func TestValueTypedSliceAndMapFallback(t *testing.T) {
	reg := NewRegistry()
	e := NewEncoder(0)
	if err := e.Value(reg, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Value(reg, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	s, err := d.Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	sl, ok := s.([]any)
	if !ok || len(sl) != 2 || sl[0] != "x" {
		t.Fatalf("typed slice: %#v", s)
	}
	m, err := d.Value(reg)
	if err != nil {
		t.Fatal(err)
	}
	mm, ok := m.(map[string]any)
	if !ok || mm["a"] != int64(1) {
		t.Fatalf("typed map: %#v", m)
	}
}

func TestValueNilRegisteredPointerRejected(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("codec_test.nilptr", wirePoint{})
	e := NewEncoder(0)
	if err := e.Value(reg, (*wirePoint)(nil)); err == nil {
		t.Fatal("nil registered pointer must be rejected")
	}
}
