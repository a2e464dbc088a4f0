package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"obiwan/internal/raceflag"
)

// sized has every shape sizeReflect distinguishes.
type sized struct {
	B     bool
	I     int64
	I8    int8
	U     uint32
	F     float32
	S     string
	Data  []byte
	Words []string
	Arr   [2]int16
	ByID  map[int64]string
	Any   any
	Props map[string]any
	Next  *sized
	C     customWire // a Marshaler: charged marshalerSize
	At    time.Time
	Skip  string `obiwan:"-"`
	low   int
}

// TestSizeMatchesEncoder: Value reserves room for a registered struct from
// sizeReflect (and, for its interface fields, valueSize), so neither may
// ever be below what is then written (a reservation a few bytes short costs
// a whole second frame), and both are exact wherever no Marshaler or
// time.Time is involved.
func TestSizeMatchesEncoder(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.sized", sized{})
	reg.MustRegister("test.point", wirePoint{})
	full := &sized{
		B: true, I: math.MinInt64, I8: -3, U: 1 << 31, F: 1.5, S: "héllo",
		Data: make([]byte, 300), Words: []string{"", "a", "bb"}, Arr: [2]int16{-1, 300},
		ByID: map[int64]string{-1: "x", 1 << 40: "yy"}, Any: []any{int8(1), "s", nil},
		Props: map[string]any{"k": uint64(1 << 63), "p": &wirePoint{X: 128, Label: "in"}},
		Next:  &sized{S: "tail"}, C: customWire{N: 1 << 20}, At: time.Unix(1, 2),
		Skip: "not shipped", low: 7,
	}
	for _, tc := range []struct {
		name  string
		v     any
		slack int // Marshalers and time.Time inside
	}{
		{"nil", nil, 0},
		{"true", true, 0},
		{"int zero", 0, 0},
		{"int min", math.MinInt64, 0},
		{"int8", int8(-128), 0},
		{"uint max", uint64(math.MaxUint64), 0},
		{"uint8 128", uint8(128), 0},
		{"float32", float32(1), 0},
		{"float64", math.Pi, 0},
		{"empty string", "", 0},
		{"string 127", string(make([]byte, 127)), 0},
		{"string 128", string(make([]byte, 128)), 0},
		{"bytes 16 KiB", make([]byte, 16<<10), 0},
		{"nil bytes", []byte(nil), 0},
		{"any slice", []any{int64(-1), "x", []byte{1, 2}, []any{nil, false}, 2.5}, 0},
		{"any map", map[string]any{"a": 1, "bb": map[string]any{"c": []byte("d")}}, 0},
		{"typed slice", []string{"a", "", "ccc"}, 0},
		{"typed ints", []int16{-300, 0, 300}, 0},
		{"typed bools", []bool{true, false}, 0},
		{"typed array", [3]uint8{1, 128, 255}, 0},
		{"typed map", map[string]int{"a": -1, "b": 1 << 20}, 0},
		{"nested typed", [][]byte{{1}, nil, make([]byte, 200)}, 0},
		{"struct slice", []*wirePoint{{X: 1}, {Label: "two", Tags: []string{"t"}}}, 0},
		{"registered", wirePoint{X: -64, Y: 64, Label: "l", Tags: []string{"a"}, Props: map[string]any{"k": "v"}}, 0},
		{"registered ptr", &wirePoint{}, 0},
		{"everything", full, 4 * marshalerSize},
	} {
		e := NewEncoder(0)
		if err := e.Value(reg, tc.v); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, wrote := valueSize(reg, tc.v, nil), e.Len()
		if got < wrote || got > wrote+tc.slack {
			t.Errorf("%s: sized at %d, Value wrote %d (slack allowed %d)", tc.name, got, wrote, tc.slack)
		}
	}
	f := func(x, y int, label string, tags []string, data []byte, u uint64, fl float64) bool {
		v := []any{&wirePoint{X: x, Y: y, Label: label, Tags: tags}, data, u, fl, label,
			map[string]any{label: tags}}
		e := NewEncoder(0)
		return e.Value(reg, v) == nil && valueSize(reg, v, nil) == e.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisteredStructIsEncodedInOneAllocation: the buffer is grown once,
// to fit, when Value reaches a registered struct, however many byte slices
// the struct carries. Appended to field by field it grew 1.25x at a time,
// a dozen frame-sized allocations and copies for 1.6 MB.
func TestRegisteredStructIsEncodedInOneAllocation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	reg := NewRegistry()
	reg.MustRegister("test.nested", nested{})
	var head *nested
	for i := 0; i < 100; i++ {
		head = &nested{Name: "member", Data: make([]byte, 16<<10), Next: head}
	}
	var frame []byte
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEncoder(48)
		if err := e.Value(reg, head); err != nil {
			t.Fatal(err)
		}
		frame = e.Bytes()
	})
	if allocs > 3 { // the Encoder, its 48 bytes, the frame
		t.Fatalf("encoding a 100 x 16 KiB struct made %.0f allocations, want 3", allocs)
	}
	if len(frame) < 100*16<<10 || cap(frame) > len(frame)+len(frame)/8 {
		t.Fatalf("%d bytes in a buffer of %d: more than a size class of slack", len(frame), cap(frame))
	}
}

// TestBorrowingDecoderAliasesItsInput: byte slices from a borrowing decoder
// are windows on the input with no spare capacity, wherever they sit
// (ReadBytes, Value, a struct field, a nested struct); everything else is
// decoded as the copying decoder decodes it, and the copying decoder shares
// nothing with its input.
func TestBorrowingDecoderAliasesItsInput(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister("test.nested", nested{})
	in := &nested{Name: "a", Data: []byte("outer"), Next: &nested{Name: "b", Data: []byte("inner")}}
	e := NewEncoder(0)
	e.WriteBytes([]byte("plain"))
	e.WriteBytes(nil)
	if err := e.Value(reg, []any{[]byte("in a value"), in}); err != nil {
		t.Fatal(err)
	}
	frame := e.Bytes()
	pristine := bytes.Clone(frame)

	decode := func(d *Decoder) (plain, empty, inValue []byte, n *nested) {
		t.Helper()
		var err error
		if plain, err = d.ReadBytes(); err != nil {
			t.Fatal(err)
		}
		if empty, err = d.ReadBytes(); err != nil {
			t.Fatal(err)
		}
		v, err := d.Value(reg)
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("value: %v, %d bytes left", err, d.Remaining())
		}
		vals := v.([]any)
		return plain, empty, vals[0].([]byte), vals[1].(*nested)
	}
	inside := func(b []byte) bool {
		lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(frame))), uintptr(len(frame))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		return p >= lo && p < lo+hi
	}

	plain, empty, inValue, n := decode(NewBorrowingDecoder(frame))
	for name, b := range map[string][]byte{"ReadBytes": plain, "Value": inValue, "field": n.Data, "nested field": n.Next.Data} {
		if !inside(b) || cap(b) != len(b) {
			t.Errorf("%s: borrowed slice aliases the frame: %v, len %d cap %d", name, inside(b), len(b), cap(b))
		}
	}
	if empty == nil || len(empty) != 0 || inside(empty) {
		t.Errorf("an empty slice must not pin the frame: %v inside %v", empty, inside(empty))
	}
	if string(plain) != "plain" || string(inValue) != "in a value" || n.Name != "a" ||
		string(n.Data) != "outer" || n.Next.Name != "b" || string(n.Next.Data) != "inner" {
		t.Fatalf("borrowed decode differs: %q %q %+v", plain, inValue, n)
	}
	// An append to a borrowed slice must move it, not write into the frame.
	_ = append(plain, "overflow"...)
	if !bytes.Equal(frame, pristine) {
		t.Fatal("append to a borrowed slice reached the frame behind it")
	}

	plain, _, inValue, n = decode(NewDecoder(frame))
	for i := range frame {
		frame[i] = 0xff
	}
	if string(plain) != "plain" || string(inValue) != "in a value" || string(n.Data) != "outer" || string(n.Next.Data) != "inner" {
		t.Fatalf("copying decoder shares bytes with its input: %q %q %+v", plain, inValue, n)
	}
}
