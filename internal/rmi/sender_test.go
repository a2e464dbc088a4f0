package rmi

import (
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// heldWrites is a sender's batch writer that records each batch (the tag,
// the first byte, of every frame in it) and holds every write until the
// test releases it with the error the write is to return.
type heldWrites struct {
	mu      sync.Mutex
	batches [][]byte
	entered chan struct{}
	release chan error
}

func newHeldSender() (*sender, *heldWrites) {
	h := &heldWrites{entered: make(chan struct{}), release: make(chan error)}
	s := new(sender)
	s.init(netsim.Real(), nil, true)
	s.write = h.write
	return s, h
}

func (h *heldWrites) write(msgs [][][]byte, errs []error) {
	tags := make([]byte, len(msgs))
	for i, m := range msgs {
		tags[i] = m[0][0]
	}
	h.mu.Lock()
	h.batches = append(h.batches, tags)
	h.mu.Unlock()
	h.entered <- struct{}{}
	err := <-h.release
	for i := range errs {
		errs[i] = err
	}
}

func (h *heldWrites) seen() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.batches)
}

// sendTag sends the one-byte frame tag on s from a new goroutine; the
// channel receives the send's error.
func sendTag(s *sender, tag byte) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.send(wire.FrameOf([]byte{tag}), false) }()
	return done
}

// awaitQueued waits until n frames are queued on s.
func awaitQueued(t *testing.T, s *sender, n int) {
	t.Helper()
	for i := 0; ; i++ {
		s.mu.Lock()
		k := len(s.queue)
		s.mu.Unlock()
		if k == n {
			return
		}
		if i == 1e7 {
			t.Fatalf("%d frames queued, want %d", k, n)
		}
		runtime.Gosched()
	}
}

// recv takes the next value from c. The bound is a watchdog against a
// hang, not a budget: nothing is asserted about how long it took.
func recv[T any](t *testing.T, c <-chan T) T {
	t.Helper()
	for i := 0; ; i++ {
		select {
		case v := <-c:
			return v
		default:
		}
		if i == 1e7 {
			t.Fatal("gave up waiting: a write never began or a send never returned")
		}
		runtime.Gosched()
	}
}

// pending fails the test if any of sends has returned.
func pending(t *testing.T, what string, sends ...<-chan error) {
	t.Helper()
	for i, done := range sends {
		select {
		case err := <-done:
			t.Fatalf("%s: send %d returned (%v) before the write that carried its frame", what, i, err)
		default:
		}
	}
}

// TestSenderCombinesQueuedFrames: while the leader is held inside the
// write of its own frame, three more senders queue; the next write carries
// all three, in queue order, and no sender returns before the write that
// carried its frame has.
func TestSenderCombinesQueuedFrames(t *testing.T) {
	s, h := newHeldSender()
	first := sendTag(s, 0)
	recv(t, h.entered)
	var rest []<-chan error
	for tag := byte(1); tag <= 3; tag++ {
		rest = append(rest, sendTag(s, tag))
		awaitQueued(t, s, int(tag))
	}
	pending(t, "first write held", append(rest, first)...)
	h.release <- nil
	recv(t, h.entered)
	pending(t, "second write held", rest...)
	h.release <- nil
	for i, done := range append(rest, first) {
		if err := recv(t, done); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got, want := h.seen(), [][]byte{{0}, {1, 2, 3}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("batches %v, want %v", got, want)
	}
}

// TestSenderLeaderHandsOffAfterTwoBatches: under a steady stream, one new
// sender queueing during every write, each frame goes out in the write
// after the one it queued behind, so no send waits on more than one write
// that does not carry it; and the leader of two batches hands the role to
// the first sender still queued instead of writing a third.
func TestSenderLeaderHandsOffAfterTwoBatches(t *testing.T) {
	s, h := newHeldSender()
	const writes = 8
	sends := []<-chan error{sendTag(s, 0)}
	returned := make([]bool, writes+1)
	for i := 0; i < writes; i++ {
		recv(t, h.entered) // write i is in progress; sender i-i%2 leads it
		sends = append(sends, sendTag(s, byte(i+1)))
		awaitQueued(t, s, 1)
		leader := i - i%2
		for j := 0; j < i; j++ {
			if j != leader && !returned[j] {
				if err := recv(t, sends[j]); err != nil {
					t.Fatalf("send %d: %v", j, err)
				}
				returned[j] = true
			}
		}
		pending(t, "write held", sends[leader], sends[i], sends[i+1])
		h.release <- nil
	}
	recv(t, h.entered)
	h.release <- nil
	var want [][]byte
	for i := 0; i <= writes; i++ {
		want = append(want, []byte{byte(i)})
	}
	if got := h.seen(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("batches %v, want one frame each, in order", got)
	}
}

// TestSenderFailedBatchErrorsItsOwnSenders: a write that fails gives its
// error to every sender whose frame it carried and to no one else.
func TestSenderFailedBatchErrorsItsOwnSenders(t *testing.T) {
	s, h := newHeldSender()
	cut := errors.New("cut")
	first := sendTag(s, 0)
	recv(t, h.entered)
	var batch []<-chan error
	for tag := byte(1); tag <= 3; tag++ {
		batch = append(batch, sendTag(s, tag))
		awaitQueued(t, s, int(tag))
	}
	h.release <- nil
	recv(t, h.entered)
	after := sendTag(s, 4)
	awaitQueued(t, s, 1)
	h.release <- cut
	recv(t, h.entered)
	h.release <- nil
	if err := recv(t, first); err != nil {
		t.Fatalf("the write before the failed one: %v", err)
	}
	for i, done := range batch {
		if err := recv(t, done); !errors.Is(err, cut) {
			t.Fatalf("send %d of the failed batch: %v, want its error", i+1, err)
		}
	}
	if err := recv(t, after); err != nil {
		t.Fatalf("the write after the failed one: %v", err)
	}
	if got, want := h.seen(), [][]byte{{0}, {1, 2, 3}, {4}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("batches %v, want %v", got, want)
	}
}

// oversizedFrame is a call frame one state over MaxMessageSize, made of one
// shared MiB that the frame references where it lies.
func oversizedFrame(t *testing.T, reg *codec.Registry) wire.Frame {
	t.Helper()
	mib := make(codec.Frozen, 1<<20)
	args := make([]any, transport.MaxMessageSize>>20+1)
	for i := range args {
		args[i] = mib
	}
	f, err := wire.EncodeFrame(reg, &wire.Call{ID: 1, Method: "Big", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() <= transport.MaxMessageSize {
		t.Fatalf("frame of %d bytes is not oversized", f.Len())
	}
	return f
}

// TestSenderRefusesOversizedFrameAlone: an oversized frame gets the
// transport's size error without joining a batch: nothing is written, and
// the connection carries the next frame whole.
func TestSenderRefusesOversizedFrameAlone(t *testing.T) {
	n := transport.NewMemNetwork(netsim.Loopback)
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var s sender
	s.init(netsim.Real(), conn, false)
	err = s.send(oversizedFrame(t, codec.DefaultRegistry()), false)
	if err == nil || errors.Is(err, transport.ErrClosed) || transport.IsTransient(err) {
		t.Fatalf("want the size error, got %v", err)
	}
	if st := n.LinkStats("c", "s"); st.Messages != 0 {
		t.Fatalf("the link carried %d messages after the refusal, want 0", st.Messages)
	}
	if err := s.send(wire.FrameOf([]byte("next")), false); err != nil {
		t.Fatal(err)
	}
	if st := n.LinkStats("c", "s"); st.Messages != 1 || st.Bytes != 4 {
		t.Fatalf("link carried %+v, want the next frame alone", st)
	}
}

// TestSenderPeerResetMidBatch: over TCP, a peer that resets in the middle
// of a batch closes the connection, and every sender in that batch sees
// ErrClosed; the frame written before the batch succeeded.
func TestSenderPeerResetMidBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := transport.NewTCPNetwork().Dial("", transport.Addr(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var s sender
	s.init(netsim.Real(), conn, true)
	entered, release := make(chan struct{}), make(chan struct{})
	writes := 0
	s.write = func(msgs [][][]byte, errs []error) {
		if writes++; writes == 1 {
			entered <- struct{}{}
			<-release
		}
		transport.SendBatch(conn, msgs, errs)
	}
	send := func(f wire.Frame) <-chan error {
		done := make(chan error, 1)
		go func() { done <- s.send(f, false) }()
		return done
	}

	small := wire.FrameOf([]byte("small frame"))
	first := send(small)
	recv(t, entered)
	// 48 MiB on the wire, far more than loopback buffers hold, from one MiB.
	mib := make(codec.Frozen, 1<<20)
	args := make([]any, 48)
	for i := range args {
		args[i] = mib
	}
	huge, err := wire.EncodeFrame(codec.DefaultRegistry(), &wire.Call{ID: 2, Method: "Big", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	var batch []<-chan error
	for i, f := range []wire.Frame{small, huge, small} {
		batch = append(batch, send(f))
		awaitQueued(t, &s, i+1)
	}
	go func() {
		_, _ = io.ReadFull(raw, make([]byte, 2*(4+small.Len())+100))
		_ = raw.(*net.TCPConn).SetLinger(0) // reset, mid-batch
		_ = raw.Close()
	}()
	release <- struct{}{}
	if err := recv(t, first); err != nil {
		t.Fatalf("the frame before the batch: %v", err)
	}
	for i, done := range batch {
		if err := recv(t, done); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("send %d of the batch: want ErrClosed, got %v", i, err)
		}
	}
}

// TestSenderBatchesOfOneUnderVirtualClock: under a virtual clock one
// tracked goroutine runs at a time and the mem transport never blocks a
// write, so eight concurrent callers on one connection still write one
// frame per batch (the server, at width 1, has one sender: its reader).
func TestSenderBatchesOfOneUnderVirtualClock(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	n := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	clock.Run(func() {
		server, err := NewRuntime(n, "server")
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		client, err := NewRuntime(n, "client")
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		ref, _ := server.Export(&calculator{})
		if _, err := client.Call(ref, "Total"); err != nil { // dials
			t.Error(err)
			return
		}
		client.mu.Lock()
		cc := client.conns["server"]
		client.mu.Unlock()
		write := cc.out.write
		var sizes []int
		overlapped := 0
		cc.out.write = func(msgs [][][]byte, errs []error) {
			sizes = append(sizes, len(msgs))
			if cc.live.Load() > 1 {
				overlapped++
			}
			write(msgs, errs)
		}
		const callers, each = 8, 20
		wg := netsim.NewWaitGroup(clock)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := client.Call(ref, "Accumulate", int64(1)); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
		if len(sizes) != callers*each || overlapped == 0 {
			t.Errorf("%d writes, %d with another call live; want %d and some", len(sizes), overlapped, callers*each)
		}
		for i, k := range sizes {
			if k != 1 {
				t.Errorf("write %d carried %d frames, want 1", i, k)
				return
			}
		}
	})
}

// cutNet is a mem network whose first connection dies at its third send
// (the preamble is the first), in the middle of the batch that carries it.
type cutNet struct {
	*transport.MemNetwork
	dials int
}

func (n *cutNet) Dial(local, remote transport.Addr) (transport.Conn, error) {
	c, err := n.MemNetwork.Dial(local, remote)
	if n.dials++; err != nil || n.dials > 1 {
		return c, err
	}
	return &cutConn{Conn: c}, nil
}

type cutConn struct {
	transport.Conn
	sends int
}

func (c *cutConn) Send(p []byte) error {
	if c.sends++; c.sends < 3 {
		return c.Conn.Send(p)
	}
	_ = c.Conn.Close()
	return transport.ErrClosed
}

// TestSendBatchResentWholeAfterRedialServedOnce: a batch whose connection
// dies after delivering its first call goes again, whole, on the redialled
// connection, so that call arrives twice; the dedupe table answers the
// repeat, and every call is served exactly once.
func TestSendBatchResentWholeAfterRedialServedOnce(t *testing.T) {
	cut := &cutNet{MemNetwork: transport.NewMemNetwork(netsim.Loopback)}
	server, err := newRuntime(cut.MemNetwork, "server")
	if err != nil {
		t.Fatal(err)
	}
	calc := &calculator{}
	ref, _ := server.Export(calc)
	conn, err := transport.NewReconnecting(cut, "client", "server", func(c transport.Conn) error {
		return c.Send(wire.EncodeHello(wire.Identity{Addr: "batch", Incarnation: 1}))
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs [][][]byte
	for id := uint64(1); id <= 3; id++ {
		f, err := wire.EncodeCall(server.Registry(), &wire.Call{
			ID: id, Target: uint64(ref.ID), Method: "Accumulate", Args: []any{int64(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, [][]byte{f})
	}
	errs := make([]error, len(msgs))
	transport.SendBatch(conn, msgs, errs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	if cut.dials != 2 {
		t.Fatalf("%d dials, want the first and one redial", cut.dials)
	}
	replied := map[uint64]bool{}
	for len(replied) < len(msgs) {
		frame, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Decode(server.Registry(), frame)
		if err != nil {
			t.Fatal(err)
		}
		reply, ok := msg.(*wire.Reply)
		if !ok {
			t.Fatalf("got %T, want a reply", msg)
		}
		replied[reply.ID] = true
	}
	_ = conn.Close()
	_ = server.Close() // waits for the first connection's reader too
	if st := server.Stats(); st.CallsServed != 3 || st.DupsSuppressed != 1 || calc.Total() != 3 {
		t.Fatalf("served %d, duplicates %d, total %d; want 3, 1 and 3", st.CallsServed, st.DupsSuppressed, calc.Total())
	}
}
