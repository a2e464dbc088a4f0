package wire_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// The golden frames pin the wire format byte for byte: a change to how the
// codec walks a value (what it asks of reflect, what it caches per type)
// must leave every frame below unchanged. Each is checked three ways: it
// encodes to the pinned hex, it decodes, and what it decodes to encodes to
// the same hex again.

// goldenNode is the benchmark's object: a payload and one reference.
type goldenNode struct {
	Payload []byte
	Next    *objmodel.Ref
}

// goldenStamp is a Marshaler on its value.
type goldenStamp struct{ N uint32 }

func (s goldenStamp) MarshalOBI(dst []byte) ([]byte, error) {
	return binary.AppendUvarint(dst, uint64(s.N)+1000), nil
}

func (s *goldenStamp) UnmarshalOBI(src []byte) (int, error) {
	d := codec.NewDecoder(src)
	v, err := d.ReadUvarint()
	s.N = uint32(v - 1000)
	return d.Offset(), err
}

// goldenTag is a Marshaler on its address only.
type goldenTag struct{ S string }

func (t *goldenTag) MarshalOBI(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len("tag:")+len(t.S)))
	return append(append(dst, "tag:"...), t.S...), nil
}

func (t *goldenTag) UnmarshalOBI(src []byte) (int, error) {
	d := codec.NewDecoder(src)
	s, err := d.ReadString()
	if len(s) >= 4 {
		t.S = s[4:]
	}
	return d.Offset(), err
}

type goldenLeaf struct {
	X int16
	L string
}

// goldenKinds has a field of every kind the codec encodes.
type goldenKinds struct {
	B     bool
	I     int
	I8    int8
	U16   uint16
	U     uint64
	F32   float32
	F     float64
	S     string
	Raw   []byte
	Words []string
	Arr   [2]int32
	ByID  map[int32]string
	Props map[string]any
	Any   any
	None  any
	At    time.Time
	When  *time.Time
	Next  *goldenKinds
	Val   goldenStamp
	Addr  goldenTag
	Ptr   *goldenTag
	Skip  string `obiwan:"-"`
	low   int
}

func goldenState(t testing.TB, n int, oid objmodel.OID) codec.Frozen {
	t.Helper()
	node := &goldenNode{Payload: make([]byte, n), Next: objmodel.NewLocalRef(nil, oid)}
	for i := range node.Payload {
		node.Payload[i] = byte(i*7 + n)
	}
	s, err := objmodel.CaptureState(codec.NewRegistry(), node)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func goldenRef(id rmi.ObjID) rmi.RemoteRef {
	return rmi.RemoteRef{Addr: "127.0.0.1:40001", ID: id}
}

// selfRef is a proxy-in of the replying site as its reply carries it: the
// address is elided, and the receiver fills in the site that answered.
func selfRef(id rmi.ObjID) rmi.RemoteRef { return rmi.RemoteRef{ID: id} }

// goldenFrames returns each golden message: a *wire.Call or *wire.Reply, or
// a codec Value (anything else), with the registry it is encoded with.
func goldenFrames(t testing.TB) []struct {
	name string
	reg  *codec.Registry
	msg  any
} {
	reg := codec.DefaultRegistry()
	spec := replication.GetSpec{Mode: replication.Incremental, Batch: 1}
	step := &replication.Payload{
		Objects: []replication.ObjectRecord{{OID: 1001, TypeName: "benchmark.Node", Version: 1,
			State: goldenState(t, 64, 1002), Provider: selfRef(17)}},
		Frontier: []replication.FrontierRef{{OID: 1002, Provider: selfRef(18)}},
		Spec:     spec,
	}
	cluster := &replication.Payload{
		Clustered:       true,
		ClusterProvider: selfRef(40),
		Frontier:        []replication.FrontierRef{{OID: 2004, Provider: selfRef(41)}},
		Spec:            replication.GetSpec{Mode: replication.Incremental, Batch: 3, Clustered: true},
		Group:           []transport.Addr{"127.0.0.1:40001", "127.0.0.1:40003"},
	}
	for i := 0; i < 3; i++ {
		oid := objmodel.OID(2001 + i)
		cluster.Objects = append(cluster.Objects, replication.ObjectRecord{OID: uint64(oid), TypeName: "benchmark.Node",
			Version: uint64(3 + i), State: goldenState(t, 3<<10, oid+1)})
	}
	put := &replication.PutRequest{OID: 3001, BaseVersion: 9, State: goldenState(t, 4<<10, 3002),
		Frontier: []replication.FrontierRef{{OID: 3002, Provider: goldenRef(50)}}}
	clusterPut := &replication.ClusterPutRequest{Members: []replication.PutRequest{
		{OID: 2001, BaseVersion: 3, State: goldenState(t, 64, 2002)},
		{OID: 2002, BaseVersion: 4, State: goldenState(t, 3<<10, 2003)},
	}}

	local := codec.NewRegistry()
	local.MustRegister("golden.kinds", goldenKinds{})
	local.MustRegister("golden.leaf", goldenLeaf{})
	at := time.Date(2002, 7, 2, 9, 30, 0, 123456789, time.UTC)
	kinds := &goldenKinds{
		B: true, I: -1 << 40, I8: -128, U16: 65535, U: 1 << 63, F32: 1.5, F: -2.25, S: "héllo",
		Raw: []byte{0, 1, 2, 255}, Words: []string{"a", "", "ccc"}, Arr: [2]int32{-7, 1 << 30},
		ByID:  map[int32]string{9: "nine", -3: "minus three", 0: "zero"},
		Props: map[string]any{"b": int64(2), "a": "one", "c": []any{true, nil}},
		Any:   &goldenLeaf{X: -300, L: "leaf"},
		At:    at, When: &at,
		Next: &goldenKinds{S: "link", Val: goldenStamp{N: 2}, Addr: goldenTag{S: "inner"},
			Any: goldenLeaf{X: 1}, At: at.Add(time.Second)},
		Val: goldenStamp{N: 7}, Addr: goldenTag{S: "addr"}, Ptr: &goldenTag{S: "ptr"},
		Skip: "not shipped", low: 3,
	}

	return []struct {
		name string
		reg  *codec.Registry
		msg  any
	}{
		{"hello", reg, &wire.Hello{Version: wire.ProtocolVersion,
			Identity: wire.Identity{Addr: "127.0.0.1:40002", Incarnation: 1034587800123456789}}},
		{"get call", reg, &wire.Call{ID: 41, Target: 17, Method: "Get", Args: []any{&spec}}},
		{"step reply", reg, &wire.Reply{ID: 41, Results: []any{step}}},
		{"cluster reply", reg, &wire.Reply{ID: 42, Results: []any{cluster}}},
		{"put call", reg, &wire.Call{ID: 43, Target: 50, Method: "Put", TraceID: 0xab00000001, SpanID: 0xab00000002, Args: []any{put}}},
		{"cluster put call", reg, &wire.Call{ID: 44, Target: 40, Method: "PutCluster", Args: []any{clusterPut}}},
		{"every kind", local, kinds},
	}
}

// goldenHex is each golden frame's encoding at protocol revision 4, in
// hex. A state the frame sends from where it lies (a vector part) is
// written as [length:SHA-256] instead, to keep the file readable; the state
// is a CaptureState, so its hash pins the struct encoding too. The frames
// only change with a ProtocolVersion bump.
var goldenHex = map[string]string{
	"hello":      "044f424931040f3132372e302e302e313a34303030320e5b981f6b4fbd1500",
	"get call":   "012911034765740000010ad7291f7c00020000",
	"step reply": "0229010ae6dfebc101e9070e62656e63686d61726b2e4e6f646501444040474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f901ea07001101ea0700120000000002000000",
	"cluster reply": "022a010ae6dfebc103d10f0e62656e63686d61726b2e4e6f6465038518" +
		"[3077:9da0c57bfd8f59a285adde66241e46c148a38ac04d9e809fcafb09d46c297801]" +
		"0000d20f0e62656e63686d61726b2e4e6f6465048518" +
		"[3077:794c5ec3bde709bfab655e6e7e10a50d7f0fa38999620c34ef07799e96ddb287]" +
		"0000d30f0e62656e63686d61726b2e4e6f6465058518" +
		"[3077:fea50cc50c0697c794cb497c87ff9dee5a3bfa2a5fda0e3bca117855e9dc8284]" +
		"000001d40f002901002800060001020f3132372e302e302e313a34303030310f3132372e302e302e313a3430303033",
	"put call": "012b320350757481808080b01582808080b015010abea327dfb917098520" +
		"[4101:7f9483756d5d7dbf413bed3a5d94a045dbc2dcb7eadde2efccfe1f17b0ea16f8]" +
		"01ba170f3132372e302e302e313a343030303132",
	"cluster put call": "012c280a507574436c75737465720000010a607d36c102d10f03444040474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f901d20f00d20f048518" +
		"[3077:794c5ec3bde709bfab655e6e7e10a50d7f0fa38999620c34ef07799e96ddb287]" +
		"00",
	"every kind": "0a99117cf201ffffffffff3fff01ffff0380808080808080808001000000000000f83f00000000000002c00668c3a96c6c6f04000102ff03016100036363630d808080800803050b6d696e757320746872656500047a65726f12046e696e6503016106036f6e65016203040163080202000a1aa06511d704046c65616600aaf4bdb38cf1d5bb1c01aaf4bdb38cf1d5bb1c01000000000000000000000000000000000000000000046c696e6b0000000000000a1aa06511020000aa9c94ed93f1d5bb1c0000ea07097461673a696e6e657200ef07087461673a6164647201077461673a707472",
}

// encodeGolden encodes msg the ways it is sent: a frame through EncodeFrame
// and through the contiguous encoder, a bare value through VectorValue and
// Value. It returns the contiguous bytes, which the vector must join to,
// and the vector rendered as goldenHex writes it.
func encodeGolden(reg *codec.Registry, msg any) ([]byte, string, error) {
	var one, head []byte
	var parts [][]byte
	switch m := msg.(type) {
	case *wire.Hello:
		one = wire.EncodeHello(m.Identity)
		head = one
	case *wire.Call, *wire.Reply:
		f, err := wire.EncodeFrame(reg, m)
		if err != nil {
			return nil, "", err
		}
		if one, err = contiguous(reg, m); err != nil {
			return nil, "", err
		}
		head, parts = f.Buffers()
	default:
		e := codec.NewEncoder(0)
		if err := e.Value(reg, msg); err != nil {
			return nil, "", err
		}
		var vec codec.Vector
		ve := codec.NewEncoder(0)
		if err := ve.VectorValue(reg, msg, &vec); err != nil {
			return nil, "", err
		}
		one, head = e.Bytes(), ve.Bytes()
		parts = vec.AppendParts(nil, head)
	}
	if parts == nil {
		parts = [][]byte{head}
	}
	if j := bytes.Join(parts, nil); !bytes.Equal(one, j) {
		return nil, "", fmt.Errorf("the contiguous encoding (%d bytes) differs from the vector joined (%d)", len(one), len(j))
	}
	var s strings.Builder
	for i, p := range parts {
		if i%2 == 0 {
			s.WriteString(hex.EncodeToString(p))
		} else {
			fmt.Fprintf(&s, "[%d:%x]", len(p), sha256.Sum256(p))
		}
	}
	return one, s.String(), nil
}

func decodeGolden(reg *codec.Registry, b []byte, frame bool) (any, error) {
	if frame {
		return wire.Decode(reg, bytes.Clone(b))
	}
	d := codec.NewDecoder(b)
	v, err := d.Value(reg)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%d bytes left over", d.Remaining())
	}
	return v, err
}

func TestGoldenWireFrames(t *testing.T) {
	for _, g := range goldenFrames(t) {
		got, rendered, err := encodeGolden(g.reg, g.msg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if want := goldenHex[g.name]; rendered != want {
			t.Errorf("%s: the encoding moved (%d bytes):\n%s", g.name, len(got), rendered)
			continue
		}
		isFrame := false
		switch g.msg.(type) {
		case *wire.Hello, *wire.Call, *wire.Reply:
			isFrame = true
		}
		back, err := decodeGolden(g.reg, got, isFrame)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		again, _, err := encodeGolden(g.reg, back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", g.name, err)
		}
		if !bytes.Equal(again, got) {
			t.Errorf("%s: decoded and encoded again, the frame differs:\n%x\n%x", g.name, again, got)
		}
	}
}

// TestGoldenFramesDecodeThroughOneMemo: one connection memo decodes every
// golden frame twice, in turn, and each decode equals a fresh decoder's:
// the second round is answered from strings the first one stored.
func TestGoldenFramesDecodeThroughOneMemo(t *testing.T) {
	var memo codec.Memo
	golden := goldenFrames(t)
	for round := 0; round < 2; round++ {
		for _, g := range golden {
			frame, _, err := encodeGolden(g.reg, g.msg)
			if err != nil {
				t.Fatal(err)
			}
			var warm any
			isFrame := false
			switch g.msg.(type) {
			case *wire.Hello, *wire.Call, *wire.Reply:
				isFrame = true
				warm, err = wire.DecodeMemo(g.reg, &memo, bytes.Clone(frame))
			default:
				warm, err = codec.NewDecoder(frame).WithMemo(&memo).Value(g.reg)
			}
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, g.name, err)
			}
			fresh, err := decodeGolden(g.reg, frame, isFrame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Errorf("round %d, %s: decoded through the memo\n%+v\nfresh\n%+v", round, g.name, warm, fresh)
			}
		}
	}
}
