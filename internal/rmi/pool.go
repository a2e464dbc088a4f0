package rmi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

const (
	// poolWidth is how many goroutines one inbound connection may run under
	// the real clock: its frame reader and poolWidth-1 workers.
	poolWidth = 64
	// idleFloor is how many parked workers a connection keeps; a worker that
	// finishes a call with that many already parked retires instead.
	idleFloor = 4
)

// inbound is one decoded call on its way to whoever serves it.
type inbound struct {
	call   *wire.Call
	recvAt time.Time // queue-phase epoch (zero with telemetry off)
}

// connPool is the dispatch of one inbound connection: the goroutine that
// reads its frames and up to width-1 long-lived workers. The reader hands
// each call to the most recently parked worker, so a connection with one
// call in flight runs every call on the same, already grown stack; it
// starts a worker while fewer than width-1 exist; and with none to be had
// it refuses the call (wire.FaultBusy) and goes on reading. Width 1 is the
// same routine with no worker to hand to: the reader serves the call
// itself, in frame order, and the peer's backlog waits in the transport.
// That is what a virtual clock runs (NewRuntime), where one goroutine is
// runnable at a time and a hand-off would buy an event, not parallelism.
type connPool struct {
	rt         *Runtime
	caller     wire.Identity // the connection's Hello named it: every call is its
	out        sender        // every reply leaves through it
	unanswered atomic.Int32  // calls dispatched and not yet answered

	mu      sync.Mutex
	idle    []*poolWorker // parked, most recently parked last
	workers int           // started and not yet retired
	closing bool
	drained netsim.Cond // drain waits here for workers to reach zero
}

// poolWorker is one parked-or-serving goroutine. The reader fills job under
// connPool.mu before signalling wake.
type poolWorker struct {
	wake netsim.Cond
	job  inbound
}

func newConnPool(rt *Runtime, conn transport.Conn, caller wire.Identity) *connPool {
	p := &connPool{rt: rt, caller: caller}
	p.out.init(rt.clock, conn, rt.batched)
	p.drained.Init(rt.clock, &p.mu)
	return p
}

// dispatch routes one call: to a parked worker, to a new one, inline, or
// back to the caller as busy. Only the connection's reader calls it.
func (p *connPool) dispatch(job inbound) {
	p.unanswered.Add(1)
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		w.job = job
		w.wake.Signal()
		p.mu.Unlock()
		return
	}
	if p.workers < p.rt.width-1 {
		p.workers++
		p.mu.Unlock()
		w := &poolWorker{job: job}
		w.wake.Init(p.rt.clock, &p.mu)
		p.rt.clock.Go(func() { p.work(w) })
		return
	}
	p.mu.Unlock()
	if p.rt.width == 1 {
		p.reply(p.rt.dispatchOnce(p.caller, job.call, job.recvAt))
		return
	}
	// Refused before dedupe.begin: the call leaves no trace here, so the
	// caller's retry (same id) is a first arrival whenever it gets in.
	p.reply(wire.FrameOf(wire.EncodeFault(&wire.Fault{
		ID: job.call.ID, Code: wire.FaultBusy,
		Message: fmt.Sprintf("connection already serves %d calls", p.rt.width-1),
	})))
}

// work is a worker's life: serve the call it was started or woken with,
// park, repeat; retire when enough peers are parked already or the
// connection is going away.
func (p *connPool) work(w *poolWorker) {
	for {
		p.reply(p.rt.dispatchOnce(p.caller, w.job.call, w.job.recvAt))
		p.mu.Lock()
		w.job = inbound{}
		if !p.closing && len(p.idle) < idleFloor {
			p.idle = append(p.idle, w)
			for w.job.call == nil && !p.closing {
				w.wake.Wait()
			}
		}
		if w.job.call == nil {
			p.workers--
			if p.workers == 0 {
				p.drained.Signal()
			}
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// reply sends a call's response frame, ending its hold; the call is answered.
func (p *connPool) reply(frame wire.Frame) {
	defer p.unanswered.Add(-1)
	defer p.rt.dedupe.states.drop(frame)
	select {
	case <-p.rt.closed:
		return
	default:
	}
	if err := p.out.send(frame, p.unanswered.Load() > 1); err != nil {
		p.rt.met.sendErrors.Inc()
	} else {
		p.rt.met.bytesSent.Add(uint64(frame.Len()))
	}
}

// drain retires the parked workers and waits for the serving ones; the
// reader calls it once, when the connection is done.
func (p *connPool) drain() {
	p.mu.Lock()
	p.closing = true
	for _, w := range p.idle {
		w.wake.Signal()
	}
	p.idle = nil
	for p.workers > 0 {
		p.drained.Wait()
	}
	p.mu.Unlock()
}
