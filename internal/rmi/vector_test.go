package rmi

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// cluster is a result shaped like a cluster payload: scalar fields around
// states long enough to be sent from where they lie.
type cluster struct {
	Root   uint64
	States []codec.Frozen
	Tail   string
}

func init() {
	codec.MustRegister("rmi_test.cluster", cluster{})
}

// clusterServer hands out one cluster and counts the calls that ran.
type clusterServer struct {
	reply *cluster
	runs  atomic.Int32
}

func (s *clusterServer) Cluster() *cluster {
	s.runs.Add(1)
	return s.reply
}

// TestVectorReplyOverRawTCP: a raw socket that calls for a cluster reads
// exactly the contiguous reply frame, though the server sent it as a vector
// referencing the states the method returned. A retry of the same id under
// the same Hello identity, on a fresh connection as after a redial, reads the same
// bytes again, replayed from the dedupe table, which keeps that vector; the
// method ran once.
func TestVectorReplyOverRawTCP(t *testing.T) {
	server, err := newRuntime(transport.NewTCPNetwork(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	var states []codec.Frozen
	for i, n := range []int{16 << 10, 16 << 10, 4 << 10} {
		states = append(states, bytes.Repeat([]byte{byte(i + 1), 0x5a, byte(i)}, n/3))
	}
	srv := &clusterServer{reply: &cluster{Root: 7, States: states, Tail: "end"}}
	ref, _ := server.Export(srv)
	reg := server.Registry()
	call, err := wire.EncodeCall(reg, &wire.Call{ID: 41, Target: uint64(ref.ID), Method: "Cluster"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.EncodeReply(reg, &wire.Reply{ID: 41, Results: []any{srv.reply}})
	if err != nil {
		t.Fatal(err)
	}
	raw := wire.Identity{Addr: "raw", Incarnation: 1}
	ask := func() []byte {
		c, err := net.Dial("tcp", string(server.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, p := range [][]byte{wire.EncodeHello(raw), call} {
			hdr := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
			if _, err := c.Write(append(hdr, p...)); err != nil {
				t.Fatal(err)
			}
		}
		var hdr [4]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	first := ask()
	if !bytes.Equal(first, want) {
		t.Fatalf("the raw peer read %d bytes, not the %d-byte contiguous reply", len(first), len(want))
	}
	server.dedupe.mu.Lock()
	kept := server.dedupe.clients[raw].entries[41].frame
	server.dedupe.mu.Unlock()
	_, parts := kept.Buffers()
	for i, s := range states {
		inPlace := false
		for _, p := range parts {
			inPlace = inPlace || (len(p) > 0 && &p[0] == &s[0])
		}
		if !inPlace {
			t.Fatalf("state %d is not referenced where it lies by the kept reply (%d parts)", i, len(parts))
		}
	}

	if again := ask(); !bytes.Equal(again, first) {
		t.Fatal("the retry's replay differs from the first reply")
	}
	if n, st := srv.runs.Load(), server.Stats(); n != 1 || st.DupsSuppressed != 1 {
		t.Fatalf("the method ran %d times, %d duplicates suppressed; want 1 and 1", n, st.DupsSuppressed)
	}
}
