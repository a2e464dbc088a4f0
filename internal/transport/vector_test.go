package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"obiwan/internal/netsim"
)

// oversized is a vector one byte over MaxMessageSize, made of one shared
// MiB: refusing it must not cost 64 MiB either.
func oversized() [][]byte {
	mib := make([]byte, 1<<20)
	parts := make([][]byte, 0, MaxMessageSize>>20+1)
	for len(parts) < MaxMessageSize>>20 {
		parts = append(parts, mib)
	}
	return append(parts, []byte{0})
}

// memPair dials c→s on a fresh loopback network and returns both ends.
func memPair(t *testing.T) (n *MemNetwork, client, server Conn) {
	t.Helper()
	n = NewMemNetwork(netsim.Loopback)
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	if client, err = n.Dial("c", "s"); err != nil {
		t.Fatal(err)
	}
	return n, client, <-accepted
}

// TestVectorOversizedRefusedBeforeAnythingIsWritten: a vector whose total
// exceeds MaxMessageSize fails as a property of the message (not closed,
// not transient) with nothing on the stream or the link, and the
// connection carries the next vector whole.
func TestVectorOversizedRefusedBeforeAnythingIsWritten(t *testing.T) {
	next := [][]byte{pattern(10, 1), pattern(5000, 2), pattern(3, 3)}
	refused := func(t *testing.T, c Conn) {
		t.Helper()
		if err := SendVector(c, oversized()); err == nil || errors.Is(err, ErrClosed) || IsTransient(err) {
			t.Fatalf("want a fatal size error, got %v", err)
		}
		if err := SendVector(c, next); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("tcp", func(t *testing.T) {
		framed, raw := rawPair(t)
		refused(t, framed)
		want := frame(bytes.Join(next, nil))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(raw, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the stream after the refusal is not the next frame alone: %v", err)
		}
	})
	t.Run("mem", func(t *testing.T) {
		n, client, server := memPair(t)
		refused(t, client)
		if s := n.LinkStats("c", "s"); s.Messages != 1 || s.Bytes != 5013 {
			t.Fatalf("link carried %+v, want the next message alone", s)
		}
		if got, err := server.Recv(); err != nil || !bytes.Equal(got, bytes.Join(next, nil)) {
			t.Fatalf("peer received %d bytes (%v), want the next vector joined", len(got), err)
		}
	})
}

// TestVectorPeerClosesMidVector: a vector the peer stops reading part-way
// through fails and closes the connection, which then reports ErrClosed
// both ways, as TestTCPFailedSendClosesConn requires of one buffer; the
// connection keeps no reference to any part.
func TestVectorPeerClosesMidVector(t *testing.T) {
	framed, raw := rawPair(t)
	mib := pattern(1<<20, 1)
	parts := make([][]byte, 48) // far more than loopback buffers hold
	for i := range parts {
		parts[i] = mib
	}
	go func() {
		_, _ = io.ReadFull(raw, make([]byte, 4+100))
		_ = raw.(*net.TCPConn).SetLinger(0) // reset, mid-frame
		_ = raw.Close()
	}()
	if err := SendVector(framed, parts); err == nil {
		t.Fatal("a vector cut off by the peer reported success")
	}
	for i, p := range framed.sendVec {
		if p != nil {
			t.Fatalf("the failed send kept a reference to part %d", i)
		}
	}
	if err := SendVector(framed, [][]byte{pattern(8, 2)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("next send: want ErrClosed, got %v", err)
	}
	if _, err := framed.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv: want ErrClosed, got %v", err)
	}
}
