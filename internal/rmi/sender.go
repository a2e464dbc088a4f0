package rmi

import (
	"runtime"
	"sync"

	"obiwan/internal/netsim"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// sender is the one way frames leave an rmi connection: calls at a client,
// replies at a server. The first sender to find the connection idle leads:
// it writes its frame and every frame queued by then as one batch
// (transport.SendBatch), while the others queue and return the error of
// the write that carried their frame. A leader writes at most two batches,
// then hands the role to the first sender still queued.
type sender struct {
	clock   netsim.Clock
	conn    transport.Conn
	write   func(msgs [][][]byte, errs []error) // SendBatch on conn
	batched bool                                // conn writes a batch as one write (TCP)

	mu      sync.Mutex
	writing bool        // a leader holds the connection
	queue   []*sendSlot // oldest first; the leader writes from batch
	batch   []*sendSlot
	free    []*sendSlot // recycled slots, slab's among them
	slab    [2]sendSlot
	msgs    [][][]byte // the leader's scratch
	errs    []error
	arrs    [3][2]*sendSlot // queue, batch and free start on these
}

// sendSlot is one queued frame and its sender's wait.
type sendSlot struct {
	one        [1][]byte // the parts of a frame of one buffer
	parts      [][]byte
	err        error
	done, lead bool
	wake       netsim.Cond // on sender.mu
}

func (s *sender) init(clock netsim.Clock, conn transport.Conn, batched bool) {
	s.clock, s.conn, s.batched = clock, conn, batched
	s.write = func(msgs [][][]byte, errs []error) { transport.SendBatch(conn, msgs, errs) }
	s.queue, s.batch, s.free = s.arrs[0][:0], s.arrs[1][:0], s.arrs[2][:0]
	for i := range s.slab {
		s.slab[i].wake.Init(clock, &s.mu)
		s.free = append(s.free, &s.slab[i])
	}
	s.msgs, s.errs = make([][][]byte, 0, len(s.slab)), make([]error, 0, len(s.slab))
}

// send writes frame and returns the error of the write that carried it.
// others says another call on the connection is in progress.
func (s *sender) send(frame wire.Frame, others bool) error {
	one, parts := frame.Buffers()
	if frame.Len() > transport.MaxMessageSize {
		if parts == nil {
			parts = [][]byte{one}
		}
		return transport.SendVector(s.conn, parts) // refused before anything is written
	}
	s.mu.Lock()
	var w *sendSlot
	if n := len(s.free); n > 0 {
		w, s.free = s.free[n-1], s.free[:n-1]
	} else {
		w = new(sendSlot)
		w.wake.Init(s.clock, &s.mu)
	}
	if parts == nil {
		w.one[0], parts = one, w.one[:]
	}
	w.parts, s.queue = parts, append(s.queue, w)
	if !s.writing {
		s.writing, w.lead = true, true
	}
	for !w.lead && !w.done {
		w.wake.Wait()
	}
	if !w.done {
		s.mu.Unlock()
		if others && s.batched {
			runtime.Gosched() // on one P, how another call's frame gets into the batch
		}
		s.lead() // w heads the queue, so the first batch carries it
		s.mu.Lock()
	}
	err := w.err
	w.one[0], w.parts, w.err, w.done, w.lead = nil, nil, nil, false, false
	s.free = append(s.free, w)
	s.mu.Unlock()
	return err
}

// lead writes the queue, oldest first, in at most two batches, then hands
// the role to the sender at the head of the queue, or gives it up.
func (s *sender) lead() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := 0; len(s.queue) > 0; n++ {
		if n == 2 {
			s.queue[0].lead = true
			s.queue[0].wake.Signal()
			return
		}
		batch := s.queue
		s.queue = s.batch
		for _, w := range batch {
			s.msgs, s.errs = append(s.msgs, w.parts), append(s.errs, nil)
		}
		s.mu.Unlock()
		s.write(s.msgs, s.errs)
		s.mu.Lock()
		for i, w := range batch {
			w.err, w.done = s.errs[i], true
			w.wake.Signal()
		}
		clear(s.msgs) // the frames are their senders' again
		clear(s.errs)
		s.msgs, s.errs, s.batch = s.msgs[:0], s.errs[:0], batch[:0]
	}
	s.writing = false
}
