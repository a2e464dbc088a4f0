package wire_test

import (
	"fmt"
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
// removes an allocation. Per-type plans changed none of them; the Encoder
// and Decoder headers left the heap when the Marshaler hook stopped taking
// them (one fewer each).
const (
	// The head, copied out of a lent encoder at its length. 2 while the
	// head had a buffer of its own from a guessed size, which the Payload
	// outgrew.
	stepReplyEncodeAllocs = 1
	// The Reply, its results, the Payload, its record and frontier slices
	// and every string on the way (the states are borrowed). 16 while the
	// Payload's wire name was copied out of the frame.
	stepReplyDecodeAllocs = 14
	// The same through a connection memo that has seen the frame: its six
	// strings (two type names, two provider addresses, two interface
	// names) are the memo's.
	stepReplyWarmDecodeAllocs = stepReplyDecodeAllocs - 6
	// The buffer.
	nodeEncodeAllocs = 1
	// The node decoded into, the payload bytes (a copying decoder) and the
	// Ref.
	nodeDecodeAllocs = 3
)

type codecStep struct {
	name string
	pin  int
	fn   func() error
}

// stepShapes are the codec operations on the walk_step1 shapes, each
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
	var memo codec.Memo
	if _, err := wire.DecodeMemo(reg, &memo, frame); err != nil {
		tb.Fatal(err)
	}
	return []codecStep{
		{"step reply encode", stepReplyEncodeAllocs, func() error { _, err := wire.EncodeReply(reg, reply); return err }},
		{"step reply decode", stepReplyDecodeAllocs, func() error { _, err := wire.Decode(reg, frame); return err }},
		{"step reply decode, warm memo", stepReplyWarmDecodeAllocs, func() error { _, err := wire.DecodeMemo(reg, &memo, frame); return err }},
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

// BenchmarkDecodeUniqueStrings prices the connection memo where it cannot
// help: call frames whose two strings (method, an argument) never repeat,
// so each is a miss that also forgets an older string. The rows are no
// memo, the memo missing on every string, and the memo on one frame over
// and over (every string a hit): go test -run xxx -bench
// DecodeUniqueStrings -cpu 1 ./internal/wire
func BenchmarkDecodeUniqueStrings(b *testing.B) {
	reg := codec.NewRegistry()
	frames := make([][]byte, 4096)
	for i := range frames {
		f, err := wire.EncodeCall(reg, &wire.Call{ID: uint64(i), Target: 17, Method: fmt.Sprintf("Method%05d", i),
			Args: []any{fmt.Sprintf("argument-%05d", i)}})
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	var memo codec.Memo
	for _, bc := range []struct {
		name   string
		decode func(i int) error
	}{
		{"no_memo", func(i int) error { _, err := wire.Decode(reg, frames[i%len(frames)]); return err }},
		{"memo_misses", func(i int) error { _, err := wire.DecodeMemo(reg, &memo, frames[i%len(frames)]); return err }},
		{"memo_hits", func(int) error { _, err := wire.DecodeMemo(reg, &memo, frames[0]); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
