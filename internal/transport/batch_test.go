package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/raceflag"
)

// TestSendBatchOverRawTCPIsLengthPrefixedFrames: a peer that reads one
// batch of three messages (a buffer, a vector, an empty message) reads
// three length-prefixed frames, byte for byte, in batch order.
func TestSendBatchOverRawTCPIsLengthPrefixedFrames(t *testing.T) {
	framed, raw := rawPair(t)
	msgs := [][][]byte{
		{pattern(54, 1)},
		{pattern(10, 2), pattern(5000, 3), pattern(3, 4)},
		{},
	}
	errs := make([]error, len(msgs))
	SendBatch(framed, msgs, errs)
	var want []byte
	for i, m := range msgs {
		if errs[i] != nil {
			t.Fatalf("message %d: %v", i, errs[i])
		}
		want = append(want, frame(bytes.Join(m, nil))...)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(raw, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the peer did not read the three frames byte for byte: %v", err)
	}
	for i, p := range framed.sendVec {
		if p != nil {
			t.Fatalf("the batch kept a reference to buffer %d", i)
		}
	}
}

// TestSendBatchOversizedRefusedAlone: a message over MaxMessageSize gets
// the size error, a property of the message (not closed, not transient),
// and the rest of its batch goes out whole around it.
func TestSendBatchOversizedRefusedAlone(t *testing.T) {
	framed, raw := rawPair(t)
	msgs := [][][]byte{{pattern(7, 1)}, oversized(), {pattern(9, 2)}}
	errs := make([]error, len(msgs))
	SendBatch(framed, msgs, errs)
	if err := errs[1]; err == nil || errors.Is(err, ErrClosed) || IsTransient(err) {
		t.Fatalf("oversized message: want a fatal size error, got %v", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("the others failed with it: %v, %v", errs[0], errs[2])
	}
	want := append(frame(msgs[0][0]), frame(msgs[2][0])...)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(raw, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the stream is not the two other frames alone: %v", err)
	}
}

// TestSendBatchPeerResetClosesEveryMessage: a peer that resets in the
// middle of a batch closes the connection, and every message of the batch
// sees ErrClosed; the connection keeps no reference to any part.
func TestSendBatchPeerResetClosesEveryMessage(t *testing.T) {
	framed, raw := rawPair(t)
	mib := pattern(1<<20, 1)
	huge := make([][]byte, 48) // far more than loopback buffers hold
	for i := range huge {
		huge[i] = mib
	}
	go func() {
		_, _ = io.ReadFull(raw, make([]byte, 4+10+4+100))
		_ = raw.(*net.TCPConn).SetLinger(0) // reset, mid-batch
		_ = raw.Close()
	}()
	msgs := [][][]byte{{pattern(10, 2)}, huge, {pattern(10, 3)}}
	errs := make([]error, len(msgs))
	SendBatch(framed, msgs, errs)
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("message %d: want ErrClosed, got %v", i, err)
		}
	}
	for i, p := range framed.sendVec {
		if p != nil {
			t.Fatalf("the failed batch kept a reference to buffer %d", i)
		}
	}
	if err := framed.Send(pattern(8, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("next send: want ErrClosed, got %v", err)
	}
}

// onlySend is a Conn from outside the package as far as SendBatch can
// tell: it has Send and no batch or vector path.
type onlySend struct {
	Conn
	refuse byte // the first byte of a message it refuses
	err    error
}

func (c onlySend) Send(p []byte) error {
	if len(p) > 0 && p[0] == c.refuse {
		return c.err
	}
	return c.Conn.Send(p)
}

// TestSendBatchOneByOneErrorsPerMessage: where a batch is sent one message
// at a time (the mem network, a decorator), each message gets its own
// error, in order, and the rest of the batch still goes out: a message the
// link drops fails alone, and so does one a decorator refuses.
func TestSendBatchOneByOneErrorsPerMessage(t *testing.T) {
	refused := errors.New("refused")
	for _, tc := range []struct {
		name string
		conn func(n *MemNetwork, c Conn) Conn
		want error
	}{
		{"mem", func(n *MemNetwork, c Conn) Conn {
			n.SetFaultSchedule("c", "s", netsim.NewFaultSchedule(netsim.FaultEvent{AtSend: 2, Action: netsim.ActDrop}))
			return c
		}, netsim.ErrDropped},
		{"decorator", func(_ *MemNetwork, c Conn) Conn { return onlySend{Conn: c, refuse: 2, err: refused} }, refused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := memPair(t)
			c := tc.conn(n, client)
			msgs := [][][]byte{{{1, 1}}, {{2}, {2}}, {{3}, {3, 3}}}
			errs := make([]error, len(msgs))
			SendBatch(c, msgs, errs)
			if errs[0] != nil || !errors.Is(errs[1], tc.want) || errs[2] != nil {
				t.Fatalf("errors %v, want [nil %v nil]", errs, tc.want)
			}
			for _, want := range [][]byte{{1, 1}, {3, 3, 3}} {
				if got, err := server.Recv(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("peer received %v (%v), want %v", got, err, want)
				}
			}
		})
	}
}

// TestBatchSendAllocationsPinned: on a warm TCP connection a batch of up
// to four frames, of one buffer or a vector each, allocates nothing: the
// headers and the write vector live in the connection.
func TestBatchSendAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	framed, raw := rawPair(t)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := raw.Read(buf); err != nil {
				return
			}
		}
	}()
	msgs := [][][]byte{{pattern(54, 1)}, {pattern(10, 2), pattern(3000, 3)}, {pattern(54, 4)}, {pattern(900, 5)}}
	errs := make([]error, len(msgs))
	SendBatch(framed, msgs, errs) // warm: the connection's scratch grows once
	for n := 1; n <= len(msgs); n++ {
		if got := testing.AllocsPerRun(500, func() { SendBatch(framed, msgs[:n], errs[:n]) }); got != 0 {
			t.Fatalf("a batch of %d frames allocates %.1f objects, pinned at 0", n, got)
		}
		for i, err := range errs[:n] {
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	}
}
