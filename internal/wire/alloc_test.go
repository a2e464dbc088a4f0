package wire_test

import (
	"strings"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/replication"
	"obiwan/internal/wire"
)

// The codec's allocation counts on the walk_step1 shapes: the reply of one
// single-object demand (the golden "step reply") and the object it carries
// (the golden node). Each only ever goes down: lower it when a change
// removes an allocation. The counts are the ones measured before codec
// walks ran on per-type plans, which changed none of them.
const (
	// The encoder, its first buffer and the frame the Payload is grown into.
	stepReplyEncodeAllocs = 3
	// The Decoder, the Reply, its results, the Payload, its record and
	// frontier slices and every string on the way (the states are borrowed).
	// 16 while the Payload's wire name was copied out of the frame.
	stepReplyDecodeAllocs = 15
	// The Encoder and its buffer.
	nodeEncodeAllocs = 2
	// The node decoded into, the Decoder, the payload bytes (a copying
	// decoder) and the Ref.
	nodeDecodeAllocs = 4
)

type codecStep struct {
	name string
	pin  int
	fn   func() error
}

// stepShapes are the four codec operations on the walk_step1 shapes, each
// with its pinned allocation count.
func stepShapes(tb testing.TB) []codecStep {
	var reply *wire.Reply
	for _, g := range goldenFrames(tb) {
		if g.name == "step reply" {
			reply = g.msg.(*wire.Reply)
		}
	}
	reg := codec.DefaultRegistry()
	frame, err := wire.EncodeReply(reg, reply)
	if err != nil {
		tb.Fatal(err)
	}
	state := reply.Results[0].(*replication.Payload).Objects[0].State
	node := &goldenNode{Payload: make([]byte, 64), Next: objmodel.NewLocalRef(nil, 1002)}
	return []codecStep{
		{"step reply encode", stepReplyEncodeAllocs, func() error { _, err := wire.EncodeReply(reg, reply); return err }},
		{"step reply decode", stepReplyDecodeAllocs, func() error { _, err := wire.Decode(reg, frame); return err }},
		{"node EncodeStruct", nodeEncodeAllocs, func() error { return codec.NewEncoder(128).EncodeStruct(reg, node) }},
		{"node DecodeStruct", nodeDecodeAllocs, func() error { return codec.NewDecoder(state).DecodeStruct(reg, &goldenNode{}) }},
	}
}

func TestWireCodecAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	for _, s := range stepShapes(t) {
		var err error
		got := testing.AllocsPerRun(1000, func() {
			if e := s.fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		t.Logf("%s: %.2f allocations", s.name, got)
		if got > float64(s.pin) {
			t.Errorf("%s allocates %.2f objects, pinned at %d", s.name, got, s.pin)
		}
	}
}

// BenchmarkStepCodec times the pinned operations: go test -run xxx -bench
// StepCodec -cpu 1 ./internal/wire
func BenchmarkStepCodec(b *testing.B) {
	for _, s := range stepShapes(b) {
		b.Run(strings.ReplaceAll(s.name, " ", "_"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
