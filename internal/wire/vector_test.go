package wire_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"obiwan/internal/codec"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// The payload and put request as they were before their states were
// Frozen: the same fields, plain []byte states, registered under the same
// wire names in a registry of their own. Plain bytes are never referenced,
// so their contiguous encoding is the reference a vector must join to.
type plainRecord struct {
	OID      uint64
	TypeName string
	Version  uint64
	State    []byte
	Provider rmi.RemoteRef
}

type plainPayload struct {
	Objects         []plainRecord
	Frontier        []replication.FrontierRef
	Clustered       bool
	ClusterProvider rmi.RemoteRef
	Spec            replication.GetSpec
	Group           []transport.Addr
}

type plainPut struct {
	OID         uint64
	BaseVersion uint64
	State       []byte
	Frontier    []replication.FrontierRef
}

// joined is the frame's bytes as the peer receives them.
func joined(f wire.Frame) []byte {
	one, parts := f.Buffers()
	if parts == nil {
		return one
	}
	return bytes.Join(parts, nil)
}

// referencing finds, from outside the codec, the shortest state a frame
// sends from where it lies: the codec keeps the constant to itself.
func referencing(t *testing.T, reg *codec.Registry) int {
	lo, hi := 0, 64<<10
	for lo < hi {
		mid := (lo + hi) / 2
		f, err := wire.EncodeFrame(reg, &wire.Reply{Results: []any{codec.Frozen(make([]byte, mid))}})
		if err != nil {
			t.Fatal(err)
		}
		if _, parts := f.Buffers(); parts != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 || lo == 64<<10 {
		t.Fatalf("no state length between 1 byte and 64 KiB is referenced (found %d)", lo)
	}
	return lo
}

// TestQuickVectorFrameIsTheContiguousFrame: for cluster payloads (a reply)
// and put requests (a call) whose states straddle the referencing length,
// the vector EncodeFrame sends joins to exactly the bytes the contiguous
// encoders write for the same value with plain []byte states, and for the
// value itself; its length is the frame's; every state at or over the
// length is sent from where it lies and every shorter one is copied.
func TestQuickVectorFrameIsTheContiguousFrame(t *testing.T) {
	reg := codec.DefaultRegistry()
	plain := codec.NewRegistry()
	plain.MustRegister("obiwan.repl.Payload", plainPayload{})
	plain.MustRegister("obiwan.repl.PutRequest", plainPut{})
	min := referencing(t, reg)
	lengths := []int{0, min - 1, min, 64 << 10}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		state := func() codec.Frozen {
			b := make(codec.Frozen, lengths[rng.Intn(len(lengths))])
			rng.Read(b)
			return b
		}
		ref := func() rmi.RemoteRef {
			return rmi.RemoteRef{Addr: transport.Addr("site-" + string(rune('a'+rng.Intn(26)))), ID: rmi.ObjID(rng.Uint64())}
		}
		frontier := make([]replication.FrontierRef, rng.Intn(3))
		for i := range frontier {
			frontier[i] = replication.FrontierRef{OID: rng.Uint64(), Provider: ref()}
		}
		p := &replication.Payload{Frontier: frontier, Clustered: rng.Intn(2) == 0,
			ClusterProvider: ref(), Spec: replication.GetSpec{Batch: rng.Intn(200), Clustered: true},
			Group: []transport.Addr{"g1", "g2"}}
		pp := &plainPayload{Frontier: frontier, Clustered: p.Clustered,
			ClusterProvider: p.ClusterProvider, Spec: p.Spec, Group: p.Group}
		for i := rng.Intn(6); i > 0; i-- {
			rec := replication.ObjectRecord{OID: rng.Uint64(), TypeName: "node", Version: rng.Uint64(), State: state(), Provider: ref()}
			p.Objects = append(p.Objects, rec)
			pp.Objects = append(pp.Objects, plainRecord{rec.OID, rec.TypeName, rec.Version, rec.State, rec.Provider})
		}
		put := &replication.PutRequest{OID: rng.Uint64(), BaseVersion: rng.Uint64(), State: state(), Frontier: frontier}
		pput := &plainPut{put.OID, put.BaseVersion, put.State, frontier}

		var states []codec.Frozen
		for _, rec := range p.Objects {
			states = append(states, rec.State)
		}
		reply := &wire.Reply{ID: rng.Uint64(), Results: []any{p, "ok"}}
		call := &wire.Call{ID: rng.Uint64(), Target: 3, Method: "Put", TraceID: 1, SpanID: 2, Args: []any{put, int64(-1)}}
		for _, tc := range []struct {
			msg, plainMsg any
			states        []codec.Frozen
		}{
			{reply, &wire.Reply{ID: reply.ID, Results: []any{pp, "ok"}}, states},
			{call, &wire.Call{ID: call.ID, Target: 3, Method: "Put", TraceID: 1, SpanID: 2, Args: []any{pput, int64(-1)}}, []codec.Frozen{put.State}},
		} {
			frame, err := wire.EncodeFrame(reg, tc.msg)
			if err != nil {
				t.Log(err)
				return false
			}
			want, err := contiguous(plain, tc.plainMsg)
			if err != nil {
				t.Log(err)
				return false
			}
			same, err := contiguous(reg, tc.msg)
			if err != nil || !bytes.Equal(same, want) {
				t.Logf("the contiguous encoding of Frozen states differs from that of plain bytes: %v", err)
				return false
			}
			if got := joined(frame); !bytes.Equal(got, want) || frame.Len() != len(want) {
				t.Logf("%T: the vector joins to %d bytes (Len %d), the contiguous frame is %d", tc.msg, len(got), frame.Len(), len(want))
				return false
			}
			_, parts := frame.Buffers()
			for _, s := range tc.states {
				if inPlace := sentInPlace(parts, s); inPlace != (len(s) >= min) {
					t.Logf("%T: a %d-byte state sent in place: %v", tc.msg, len(s), inPlace)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// contiguous is the one-buffer encoding of a *wire.Call or *wire.Reply.
func contiguous(reg *codec.Registry, msg any) ([]byte, error) {
	if c, ok := msg.(*wire.Call); ok {
		return wire.EncodeCall(reg, c)
	}
	return wire.EncodeReply(reg, msg.(*wire.Reply))
}

// sentInPlace reports whether one of parts is s itself, not a copy.
func sentInPlace(parts [][]byte, s []byte) bool {
	for _, p := range parts {
		if len(p) > 0 && len(s) > 0 && reflect.ValueOf(p).Pointer() == reflect.ValueOf(s).Pointer() {
			return true
		}
	}
	return false
}
