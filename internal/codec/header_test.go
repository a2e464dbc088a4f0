package codec_test

import (
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/wire"
)

// node is a replicable object: a payload and a reference, whose hook
// (objmodel.Ref's Marshaler) is on the path of every call below.
type node struct {
	Payload []byte
	Next    *objmodel.Ref
}

// TestCodecHeadersAllocationsPinned: no Encoder or Decoder reaches the heap.
// Each operation below allocates what it returns and nothing for the codec's
// own bookkeeping; each count would be one higher with a heap-allocated
// header, which every frame paid while the Marshaler hook took the Encoder
// and the Decoder through an interface. They only ever go down.
func TestCodecHeadersAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	reg := codec.NewRegistry()
	big := &node{Payload: make([]byte, 4<<10), Next: objmodel.NewLocalRef(nil, 7)}
	state, err := objmodel.CaptureState(reg, big)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := wire.EncodeReply(reg, &wire.Reply{ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pin  float64
		fn   func() error
	}{
		{"frame decode (the Reply)", 1, func() error { _, err := wire.Decode(reg, reply); return err }},
		{"EncodeStruct into an Encoder value (its buffer)", 1, func() error {
			var e codec.Encoder
			return e.EncodeStruct(reg, big)
		}},
		{"CaptureState (the state)", 1, func() error { _, err := objmodel.CaptureState(reg, big); return err }},
		{"AdoptState (the node, its Ref)", 2, func() error { return objmodel.AdoptState(reg, &node{}, state) }},
		{"RestoreState (the node, its payload, its Ref)", 3, func() error { return objmodel.RestoreState(reg, &node{}, state) }},
	} {
		var err error
		got := testing.AllocsPerRun(200, func() {
			if e := tc.fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got > tc.pin {
			t.Errorf("%s allocates %.2f objects, pinned at %.0f", tc.name, got, tc.pin)
		}
	}
}
