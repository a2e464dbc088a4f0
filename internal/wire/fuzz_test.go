package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
)

// FuzzDecodeFrame checks that the RMI frame parser survives arbitrary
// input: no panics, no over-reads, errors only.
func FuzzDecodeFrame(f *testing.F) {
	reg := codec.NewRegistry()
	if frame, err := EncodeCall(reg, &Call{ID: 1, Target: 2, Method: "M", Args: []any{int64(1), "s"}}); err == nil {
		f.Add(frame)
	}
	if frame, err := EncodeReply(reg, &Reply{ID: 1, Results: []any{"ok"}}); err == nil {
		f.Add(frame)
	}
	f.Add(EncodeFault(&Fault{ID: 1, Code: FaultApp, Message: "boom"}))
	f.Add([]byte{})
	f.Add([]byte{KindCall})
	f.Add([]byte{KindCall, 0x01, 0x02, 0x01, 'M', 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decode(reg, data)
	})
}

// FuzzCallRoundTrip checks that any call frame that encodes also decodes
// back to the same content.
func FuzzCallRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), "Method", "arg", int64(7))
	f.Add(uint64(0), uint64(0), "", "", int64(0))

	reg := codec.NewRegistry()
	f.Fuzz(func(t *testing.T, id, target uint64, method, sArg string, iArg int64) {
		in := &Call{ID: id, Target: target, Method: method, Args: []any{sArg, iArg}}
		frame, err := EncodeCall(reg, in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := Decode(reg, frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		c, ok := out.(*Call)
		if !ok {
			t.Fatalf("decoded %T", out)
		}
		if c.ID != id || c.Target != target || c.Method != method ||
			c.Args[0] != sArg || c.Args[1] != iArg {
			t.Fatalf("round trip mismatch: %+v vs %+v", c, in)
		}
	})
}

// fuzzRecord is a registered struct that carries byte slices the way a
// replication payload does: one per record, Frozen, more in a nested slice.
type fuzzRecord struct {
	OID   uint64
	State codec.Frozen
	Parts [][]byte
	Next  *fuzzRecord
}

// fuzzStep has the layout of a step reply's payload where it matters here:
// a record's state and the providers it names, which are the replier's own
// (address empty, the receiver fills it in) or another site's.
type fuzzStep struct {
	OID       uint64
	State     codec.Frozen
	Providers []fuzzRef
}

// fuzzRef has a remote reference's layout.
type fuzzRef struct {
	Addr string
	ID   uint64
}

// fuzzObj is an application object whose state a fuzzRecord carries.
type fuzzObj struct {
	Name string
	Body []byte
	N    int64
}

// eachBytes calls fn on every []byte reachable from v.
func eachBytes(v reflect.Value, fn func([]byte)) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			eachBytes(v.Elem(), fn)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			fn(v.Bytes())
			return
		}
		for i := 0; i < v.Len(); i++ {
			eachBytes(v.Index(i), fn)
		}
	case reflect.Map:
		for iter := v.MapRange(); iter.Next(); {
			eachBytes(iter.Value(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachBytes(v.Field(i), fn)
		}
	}
}

// reencode turns a decoded message back into a frame, which is how two
// decodes are compared: by value, NaNs and pointers included.
func reencode(t *testing.T, reg *codec.Registry, msg any) []byte {
	t.Helper()
	var frame []byte
	var err error
	switch m := msg.(type) {
	case *Call:
		frame, err = EncodeCall(reg, m)
	case *Reply:
		frame, err = EncodeReply(reg, m)
	case *Fault:
		frame = EncodeFault(m)
	case *Hello:
		frame = fmt.Appendf(binary.AppendUvarint([]byte{KindHello}, m.Version), "%+v", m.Identity)
	}
	if err != nil {
		t.Fatalf("a decoded %T does not encode: %v", msg, err)
	}
	return frame
}

// FuzzBorrowedDecode is the differential check on Decode's borrowing: on
// any frame it and a copying decode fail together or return equal values;
// every []byte Decode returns has no spare capacity (an append cannot reach
// the frame); and an object restored from borrowed state shares nothing
// with the frame, so the frame can be scribbled over afterwards. What was
// decoded, encoded again as the frame it is sent as (a vector when a state
// is long enough), joins to its contiguous encoding.
func FuzzBorrowedDecode(f *testing.F) {
	reg := codec.NewRegistry()
	reg.MustRegister("fuzz.record", fuzzRecord{})
	reg.MustRegister("fuzz.step", fuzzStep{})
	state := func(o fuzzObj) []byte {
		s, err := objmodel.CaptureState(reg, &o)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	rec := &fuzzRecord{OID: 7, State: state(fuzzObj{Name: "obj", Body: []byte("sixteen byte body"), N: -9}),
		Parts: [][]byte{[]byte("a"), nil, make([]byte, 300)},
		Next:  &fuzzRecord{State: state(fuzzObj{Name: "next", Body: bytes.Repeat([]byte("long body "), 500)})}}
	for _, results := range [][]any{
		{rec},
		{[]byte("top-level bytes"), "s", int64(1)},
		{[]any{[]byte("nested"), map[string]any{"k": []byte("in a map"), "r": rec}}},
		{[]byte{}, []any{}},
		{&fuzzStep{OID: 1001, State: state(fuzzObj{Name: "step", Body: make([]byte, 64)}),
			Providers: []fuzzRef{{ID: 17}, {ID: 18}, {Addr: "127.0.0.1:40003", ID: 41}}}},
	} {
		reply, err := EncodeReply(reg, &Reply{ID: 9, Results: results})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reply)
		call, err := EncodeCall(reg, &Call{ID: 1, Target: 2, Method: "Put", Args: results})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(call)
	}
	f.Add(EncodeFault(&Fault{ID: 1, Code: FaultReplyEvicted, Message: "gone"}))
	hello := EncodeHello(Identity{Addr: "127.0.0.1:40002", Incarnation: 1 << 60, Durable: true})
	f.Add(hello)
	f.Add(hello[:len(hello)-4])   // the identity cut short, inside its incarnation
	f.Add(append(hello[:5:5], 3)) // a revision-3 Hello: no identity
	f.Add([]byte{KindReply, 0x01, 0x01, 0x07, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame := bytes.Clone(data)
		borrowed, errB := Decode(reg, frame)
		copied, errC := decode(reg, codec.NewDecoder(bytes.Clone(data)))
		if (errB == nil) != (errC == nil) {
			t.Fatalf("borrowing decode: %v; copying decode: %v", errB, errC)
		}
		if errB != nil {
			return
		}
		b, c := reencode(t, reg, borrowed), reencode(t, reg, copied)
		if !bytes.Equal(b, c) {
			t.Fatalf("borrowing and copying decodes differ:\n%x\n%x", b, c)
		}
		switch borrowed.(type) {
		case *Call, *Reply:
			f, err := EncodeFrame(reg, borrowed)
			if err != nil {
				t.Fatal(err)
			}
			v := f.buf
			if f.vec != nil {
				v = bytes.Join(f.vec.parts, nil)
			}
			if !bytes.Equal(v, b) || f.Len() != len(b) {
				t.Fatalf("the frame's vector joins to %d bytes (Len %d), its contiguous encoding is %d", len(v), f.Len(), len(b))
			}
		}
		var first []byte
		eachBytes(reflect.ValueOf(borrowed), func(b []byte) {
			if cap(b) != len(b) {
				t.Fatalf("decoded []byte of %d bytes has capacity %d", len(b), cap(b))
			}
			if first == nil && len(b) > 0 {
				first = b
			}
		})
		eachBytes(reflect.ValueOf(copied), func(b []byte) {
			if len(b) > 0 && len(frame) > 0 && &b[0] == &frame[0] {
				t.Fatal("the copying decode aliases a frame it was not given")
			}
		})
		if !bytes.Equal(frame, data) {
			t.Fatal("decoding wrote to the frame")
		}
		// Restore an object from the first byte slice as if it were shipped
		// state, then let go of the frame.
		var obj fuzzObj
		if objmodel.RestoreState(reg, &obj, first) != nil {
			return
		}
		before, err := objmodel.CaptureState(reg, &obj)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] ^= 0xa5
		}
		after, err := objmodel.CaptureState(reg, &obj)
		if err != nil || !bytes.Equal(before, after) {
			t.Fatalf("scribbling over the frame changed the restored object: %v\n%x\n%x", err, before, after)
		}
	})
}

// FuzzMemoDecode is the differential check on the connection memo: a frame
// decoded through a memo that has seen other frames and, the second time,
// this one fails with a fresh decode or returns the same values.
func FuzzMemoDecode(f *testing.F) {
	reg := codec.NewRegistry()
	long := strings.Repeat("past the memo's bound ", 4)
	var seeds [][]byte
	for i, vals := range [][]any{
		{"127.0.0.1:40002", int64(1)},
		{long, map[string]any{"k": "v", "127.0.0.1:40002": long, "": ""}},
		{[]any{"a", "b", "a", ""}, []byte("bytes")},
	} {
		call, err := EncodeCall(reg, &Call{ID: uint64(i), Target: 2, Method: "Get", Args: vals})
		if err != nil {
			f.Fatal(err)
		}
		reply, err := EncodeReply(reg, &Reply{ID: uint64(i), Results: vals})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, call, reply)
	}
	seeds = append(seeds, EncodeFault(&Fault{ID: 1, Code: FaultApp, Message: "boom"}))
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, errF := Decode(reg, bytes.Clone(data))
		var memo codec.Memo
		for _, s := range seeds {
			if _, err := DecodeMemo(reg, &memo, s); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			warm, errW := DecodeMemo(reg, &memo, bytes.Clone(data))
			if (errF == nil) != (errW == nil) {
				t.Fatalf("round %d: fresh decode: %v; through the memo: %v", round, errF, errW)
			}
			if errF == nil && !bytes.Equal(reencode(t, reg, warm), reencode(t, reg, fresh)) {
				t.Fatalf("round %d: the memo's decode differs from a fresh one", round)
			}
		}
	})
}
