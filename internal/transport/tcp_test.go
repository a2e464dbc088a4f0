package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
)

// rawPair returns a framed tcpConn and the raw net.Conn at its other end,
// so a test can put arbitrary bytes on the stream or read exactly what
// Send wrote.
func rawPair(t *testing.T) (*tcpConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	framed := newTCPConn(c)
	t.Cleanup(func() {
		_ = framed.Close()
		_ = raw.Close()
	})
	return framed, raw
}

// frame returns p as it appears on the wire.
func frame(p []byte) []byte {
	out := make([]byte, 4, 4+len(p))
	binary.BigEndian.PutUint32(out, uint32(len(p)))
	return append(out, p...)
}

// pattern is n bytes that differ from their neighbours, so a frame cut or
// spliced at the wrong offset cannot compare equal.
func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) ^ salt
	}
	return p
}

// TestTCPRecvFraming feeds Recv every way a stream can cut frames: the
// buffered reader must neither lose bytes across frame boundaries nor
// hand one frame's bytes to the next.
func TestTCPRecvFraming(t *testing.T) {
	payloads := [][]byte{
		pattern(54, 1),               // a null call
		{},                           // zero-length frame
		pattern(recvBufSize-4, 2),    // header+payload fill the buffer exactly
		pattern(recvBufSize, 3),      // payload of exactly the buffer's size
		pattern(3*recvBufSize+17, 4), // larger than the buffer: read direct
		pattern(1, 5),
	}
	var stream []byte
	for _, p := range payloads {
		stream = append(stream, frame(p)...)
	}
	cuts := map[string]func(w io.Writer) error{
		"one write": func(w io.Writer) error {
			_, err := w.Write(stream)
			return err
		},
		"one byte per write": func(w io.Writer) error {
			for i := range stream {
				if _, err := w.Write(stream[i : i+1]); err != nil {
					return err
				}
			}
			return nil
		},
		"cut inside every header": func(w io.Writer) error {
			rest := stream
			for _, p := range payloads {
				n := 2 // half a header, then the other half with the payload
				if _, err := w.Write(rest[:n]); err != nil {
					return err
				}
				if _, err := w.Write(rest[n : 4+len(p)]); err != nil {
					return err
				}
				rest = rest[4+len(p):]
			}
			return nil
		},
	}
	for name, write := range cuts {
		t.Run(name, func(t *testing.T) {
			framed, raw := rawPair(t)
			werr := make(chan error, 1)
			go func() { werr <- write(raw) }()
			for i, want := range payloads {
				got, err := framed.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d: got %d bytes, want %d; contents differ", i, len(got), len(want))
				}
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTCPRecvFrameBelongsToCaller: the slice Recv returns is the
// caller's own — a later Recv reusing the read buffer must not change it.
func TestTCPRecvFrameBelongsToCaller(t *testing.T) {
	framed, raw := rawPair(t)
	a, b := pattern(100, 1), pattern(100, 2)
	if _, err := raw.Write(append(frame(a), frame(b)...)); err != nil {
		t.Fatal(err)
	}
	first, err := framed.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := framed.Recv(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, a) {
		t.Fatal("second Recv overwrote the first frame")
	}
}

// TestTCPRecvRejectsOversizedHeaderBeforeAllocating: a corrupt length
// prefix must fail on the four header bytes alone — no 64 MiB make, no
// wait for a payload that will never come.
func TestTCPRecvRejectsOversizedHeaderBeforeAllocating(t *testing.T) {
	framed, raw := rawPair(t)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := framed.Recv()
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, ErrClosed) || IsTransient(err) {
		t.Fatalf("want a fatal size error, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", grew)
	}
}

func TestTCPRecvPeerClosesMidPayload(t *testing.T) {
	framed, raw := rawPair(t)
	whole := frame(pattern(1000, 1))
	if _, err := raw.Write(whole[:500]); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	if _, err := framed.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestTCPSendWritesOneFramePerCall reads what Send wrote, byte for byte,
// including the empty frame and one far larger than a socket buffer.
func TestTCPSendWritesOneFramePerCall(t *testing.T) {
	framed, raw := rawPair(t)
	payloads := [][]byte{pattern(54, 1), {}, pattern(1<<20, 2), pattern(1, 3)}
	done := make(chan error, 1)
	go func() {
		for _, p := range payloads {
			if err := framed.Send(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, p := range payloads {
		got := make([]byte, 4+len(p))
		if _, err := io.ReadFull(raw, got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, frame(p)) {
			t.Fatalf("frame %d differs on the wire", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if framed.sendVec[1] != nil || len(framed.sendBufs) != 0 {
		t.Fatal("Send kept a reference to the payload")
	}
}

// TestTCPConcurrentSendersInterleaveNoFrames: eight goroutines share one
// connection; every frame the peer parses must be one sender's, whole.
func TestTCPConcurrentSendersInterleaveNoFrames(t *testing.T) {
	framed, raw := rawPair(t)
	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Each sender has its own length and fill byte, so a spliced
			// frame is recognisable from either.
			p := bytes.Repeat([]byte{byte(s + 1)}, 10+s*1000)
			for i := 0; i < each; i++ {
				if err := framed.Send(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	seen := make([]int, senders)
	for i := 0; i < senders*each; i++ {
		var hdr [4]byte
		if _, err := io.ReadFull(raw, hdr[:]); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(raw, p); err != nil {
			t.Fatal(err)
		}
		s := (len(p) - 10) / 1000
		if len(p) != 10+s*1000 || s < 0 || s >= senders {
			t.Fatalf("frame %d: impossible length %d — a header landed inside a payload", i, len(p))
		}
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(s + 1)}, len(p))) {
			t.Fatalf("frame %d: sender %d's frame carries another sender's bytes", i, s)
		}
		seen[s]++
	}
	wg.Wait()
	for s, n := range seen {
		if n != each {
			t.Fatalf("sender %d: %d frames, want %d", s, n, each)
		}
	}
}

// flakyConn is a net.Conn whose nth Write fails after writing half of its
// input — the short write that leaves a TCP stream mid-frame.
type flakyConn struct {
	net.Conn
	failAt int // 1-based Write call that fails
	writes int
	closed bool
}

func (c *flakyConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.writes++
	if c.writes == c.failAt {
		n, _ := c.Conn.Write(p[:len(p)/2])
		return n, errors.New("flaky: short write")
	}
	return c.Conn.Write(p)
}

func (c *flakyConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// TestTCPFailedSendClosesConn: a Send that fails part-way has put half a
// frame on the stream. The next Send must not write a fresh header into
// it: the connection is closed, both ends see ErrClosed, and the payload
// is released either way.
func TestTCPFailedSendClosesConn(t *testing.T) {
	for name, failAt := range map[string]int{"header": 1, "payload": 2} {
		t.Run(name, func(t *testing.T) {
			local, remote := net.Pipe()
			flaky := &flakyConn{Conn: local, failAt: failAt}
			framed, peer := newTCPConn(flaky), newTCPConn(remote)
			defer framed.Close()
			defer peer.Close()

			peerErr := make(chan error, 1)
			go func() {
				_, err := peer.Recv()
				peerErr <- err
			}()
			if err := framed.Send(pattern(64, 1)); err == nil {
				t.Fatal("short write reported as success")
			}
			if !flaky.closed {
				t.Fatal("connection left open mid-frame")
			}
			if framed.sendVec[1] != nil {
				t.Fatal("failed Send kept a reference to the payload")
			}
			if err := <-peerErr; !errors.Is(err, ErrClosed) {
				t.Fatalf("peer: want ErrClosed, got %v", err)
			}
			if err := framed.Send(pattern(64, 2)); !errors.Is(err, ErrClosed) {
				t.Fatalf("next Send: want ErrClosed, got %v", err)
			}
		})
	}
}
