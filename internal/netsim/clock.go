// Discrete-event virtual time.
//
// Every simulated delay in this package is realized through a Clock. The
// real clock (Real) keeps the historical behavior: delays become actual
// sleeps, so benchmark wall-clock numbers stay comparable to the paper's
// milliseconds. The VirtualClock replaces sleeping with a discrete-event
// scheduler: goroutines that wait for a deadline park on an event heap,
// and virtual time jumps to the next event only when the simulated world
// has quiesced — no tracked goroutine is runnable. Minutes of simulated
// traffic then execute in milliseconds, and because exactly one event
// fires per quiescence, the interleaving of a seeded scenario is the same
// on every run.
//
// The quiescence rule is a token algebra:
//
//   - every tracked goroutine holds one busy token while it is runnable;
//   - parking on the clock (SleepUntil, AfterFunc deadlines) returns the
//     token to the scheduler; the scheduler re-mints it when it fires the
//     event, before waking the sleeper, so the count never dips spuriously;
//   - blocking on anything else (a message queue, a reply, a latch) must
//     go through the clock-aware Cond or WaitGroup in this package: the
//     waiter's token is released by Wait, and the signal travels through
//     the event queue, re-minting the token when the wake event fires.
//
// Crucially, the simulation is *serial*: at most one tracked goroutine is
// runnable at any moment. Go enqueues the new goroutine as an immediate
// event instead of starting it concurrently, and Cond wakeups are likewise
// deferred to the next quiescence — so every handoff (spawn, signal, timer)
// is serialized through the event queue's (time, seq) order, and a seeded
// scenario replays the exact same interleaving on every run.
//
// With that discipline the invariant holds: busy == 0 means no tracked
// goroutine can take another step until an event fires, so firing the
// earliest event is safe and deterministic. A pause with no token panics —
// it means an untracked goroutine (one not started via Go/Run) called into
// the simulated world, which would make quiescence detection unsound.
package netsim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is the time source of the simulated world. Two implementations
// exist, both in this package: Real() (wall clock, delays are slept) and
// VirtualClock (discrete-event, delays are scheduled). The unexported
// methods keep the token accounting private to this package's primitives.
type Clock interface {
	// Now returns the current (real or virtual) time.
	Now() time.Time
	// Sleep blocks for d on this clock's timeline.
	Sleep(d time.Duration)
	// SleepUntil blocks until deadline on this clock's timeline.
	SleepUntil(deadline time.Time)
	// SleepUntilCancel sleeps until deadline or until cancel closes,
	// whichever comes first; it reports whether the deadline was reached.
	SleepUntilCancel(deadline time.Time, cancel <-chan struct{}) bool
	// AfterFunc schedules fn to run once deadline d has passed. Under the
	// virtual clock fn runs as a tracked goroutine at the scheduled
	// instant; Stop before firing cancels it.
	AfterFunc(d time.Duration, fn func()) Timer
	// Go starts fn as a goroutine tracked by the clock's quiescence
	// accounting. All goroutines that block inside the simulated world
	// (transport queues, RMI waits) must be started this way — or with
	// VirtualClock.Run — when a virtual clock is in use.
	Go(fn func())

	// pause marks the calling tracked goroutine idle while it blocks on an
	// external condition; resume re-mints n tokens on behalf of waiters
	// being woken. Unexported: only Cond/WaitGroup may keep this balanced.
	pause()
	resume(n int)
}

// Timer is a cancellable deadline created by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer; it reports whether it was still pending.
	Stop() bool
}

// ---------------------------------------------------------------------------
// Real clock

type realClock struct{}

var theRealClock Clock = realClock{}

// Real returns the wall-clock Clock: Now is time.Now and sleeps are real.
// It is the default everywhere, preserving pre-virtual-clock behavior.
func Real() Clock { return theRealClock }

func (realClock) Now() time.Time                { return time.Now() }
func (realClock) Sleep(d time.Duration)         { time.Sleep(d) }
func (realClock) SleepUntil(deadline time.Time) { SleepUntil(deadline) }

func (realClock) SleepUntilCancel(deadline time.Time, cancel <-chan struct{}) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

func (realClock) Go(fn func()) { go fn() }
func (realClock) pause()       {}
func (realClock) resume(int)   {}

// ClockProvider is implemented by networks that carry a simulation clock
// (transport.MemNetwork). The RMI layer uses it to inherit the clock of
// the network it runs on, so no option threading is needed.
type ClockProvider interface {
	Clock() Clock
}

// ---------------------------------------------------------------------------
// Virtual clock

// VirtualBase is the fixed instant a VirtualClock starts at. It is a
// constant so that two runs of the same scenario — even in one process —
// produce identical timestamps (the determinism suite compares them
// byte for byte).
var VirtualBase = time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC) // ICDCS 2002

const (
	evPending = iota
	evFired
	evStopped
)

// vEvent is one scheduled wakeup: either a parked sleeper (wake != nil)
// or an AfterFunc callback (fn != nil).
type vEvent struct {
	at    time.Time
	seq   uint64 // schedule order: ties on at resolve deterministically
	state int
	wake  chan struct{}
	fn    func()
	// inline marks fn as safe to run on the scheduler goroutine itself:
	// short, non-parking (wake events). Everything else gets its own
	// goroutine, because a parked event callback would wedge the loop.
	inline bool
	index  int // heap position, -1 when popped
}

type eventHeap []*vEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*vEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// VirtualClock is the discrete-event Clock. Create with NewVirtualClock,
// run simulated work with Run (or Go), and Stop it when done. It is safe
// for concurrent use.
type VirtualClock struct {
	mu      sync.Mutex
	advance *sync.Cond // the scheduler waits here for quiescence
	now     time.Time
	busy    int // tracked goroutines currently runnable
	paused  int // tracked goroutines idle in Cond/WaitGroup waits
	seq     uint64
	events  eventHeap
	stopped bool
	held    int // Hold depth: dispatch is frozen while > 0

	advances uint64 // fired events, for reports and stuck detection
}

// NewVirtualClock returns a running virtual clock at VirtualBase.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{now: VirtualBase}
	c.advance = sync.NewCond(&c.mu)
	go c.schedule()
	return c
}

// Hold freezes event dispatch: Go, AfterFunc, and wake events may still
// be enqueued, but none fire until a matching Release. World builders use
// this to construct a scenario from an untracked goroutine — sites whose
// construction spawns tracked goroutines with their own timers (consensus
// election loops, say) would otherwise start advancing virtual time in a
// real-time race with the rest of construction, making the scenario
// body's start time (and thus the entire schedule) nondeterministic.
// Hold before the first spawn, Release after the body is enqueued.
func (c *VirtualClock) Hold() {
	c.mu.Lock()
	c.held++
	c.mu.Unlock()
}

// Release undoes one Hold, resuming dispatch when the last hold clears.
// Releasing an unheld clock is a no-op.
func (c *VirtualClock) Release() {
	c.mu.Lock()
	if c.held > 0 {
		c.held--
		if c.held == 0 && c.busy == 0 {
			c.advance.Signal()
		}
	}
	c.mu.Unlock()
}

// Stop shuts the scheduler down. Pending sleepers are woken (their
// deadline is treated as reached) so tracked goroutines can drain.
func (c *VirtualClock) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	for _, ev := range c.events {
		if ev.state == evPending && ev.wake != nil {
			ev.state = evFired
			close(ev.wake)
		}
	}
	c.events = nil
	c.advance.Broadcast()
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Elapsed returns how much virtual time has passed since VirtualBase.
func (c *VirtualClock) Elapsed() time.Duration {
	return c.Now().Sub(VirtualBase)
}

// Advances returns how many events have fired — a proxy for simulation
// progress used by capacity reports and the stuck dump.
func (c *VirtualClock) Advances() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advances
}

// Sleep blocks the calling tracked goroutine for d of virtual time.
func (c *VirtualClock) Sleep(d time.Duration) { c.SleepUntil(c.Now().Add(d)) }

// SleepUntil parks the calling tracked goroutine until virtual time
// reaches deadline. There is no spin tail: the slack path of the real
// SleepUntil is bypassed entirely — waking is an exact event.
//
// A deadline at or before the current instant still parks: the event fires
// on the next quiescence without advancing time. This is deliberate — it
// serializes same-instant wakeups (e.g. two messages delivered at the same
// virtual nanosecond) through the event queue in schedule order, which is
// what makes burst interleavings reproducible.
func (c *VirtualClock) SleepUntil(deadline time.Time) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	ev := c.parkLocked(deadline)
	c.mu.Unlock()
	<-ev.wake
}

// SleepUntilCancel sleeps to the deadline and reports false when cancel
// was closed by then. Unlike the real clock, it does NOT wake early on
// cancellation: selecting on a raw channel would unpark the sleeper
// concurrently with the canceller — two runnable tracked goroutines, and
// the serial-simulation determinism guarantee gone. Virtual time is free,
// so sleeping out the remainder costs nothing, and both the close and the
// wake happen at deterministic points of the event order.
func (c *VirtualClock) SleepUntilCancel(deadline time.Time, cancel <-chan struct{}) bool {
	cancelled := func() bool {
		if cancel == nil {
			return false
		}
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	if cancelled() {
		return false
	}
	c.SleepUntil(deadline)
	return !cancelled()
}

// parkLocked registers a sleeper event and releases the caller's token.
func (c *VirtualClock) parkLocked(deadline time.Time) *vEvent {
	if c.busy <= 0 {
		c.mu.Unlock() // the panic must not wedge Stop/Now behind the lock
		panic("netsim: VirtualClock.SleepUntil from an untracked goroutine (start it with Clock.Go or VirtualClock.Run)")
	}
	c.seq++
	ev := &vEvent{at: deadline, seq: c.seq, wake: make(chan struct{})}
	heap.Push(&c.events, ev)
	c.busy--
	if c.busy == 0 && !c.tryFireNextLocked(true) {
		c.advance.Signal()
	}
	return ev
}

type virtualTimer struct {
	c  *VirtualClock
	ev *vEvent
}

func (t virtualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.ev.state != evPending {
		return false
	}
	t.ev.state = evStopped
	return true
}

// AfterFunc schedules fn at now+d. fn runs as a tracked goroutine when
// the event fires; timers that are stopped first never consume a token.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ev := &vEvent{at: c.now.Add(d), seq: c.seq, fn: fn}
	heap.Push(&c.events, ev)
	if c.busy == 0 {
		c.advance.Signal()
	}
	return virtualTimer{c: c, ev: ev}
}

// Go starts fn as a tracked goroutine. It does not start fn concurrently
// with the caller: the spawn is enqueued as an immediate event, so fn takes
// its first step only when the world next quiesces. This is the rule that
// keeps the simulation serial — at most one tracked goroutine is ever
// runnable — which in turn makes every interleaving a deterministic
// function of the event queue's (time, seq) order.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		go fn() // the simulation is over; run untracked so teardown can drain
		return
	}
	c.seq++
	ev := &vEvent{at: c.now, seq: c.seq, fn: fn}
	heap.Push(&c.events, ev)
	if c.busy == 0 {
		c.advance.Signal()
	}
	c.mu.Unlock()
}

// Run executes fn as a tracked goroutine and blocks (in real time) until
// it returns. It is the entry point for driving simulated work from an
// untracked goroutine — a test's main goroutine, typically.
func (c *VirtualClock) Run(fn func()) {
	done := make(chan struct{})
	c.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

func (c *VirtualClock) exitBusy() {
	c.mu.Lock()
	c.busy--
	if c.busy == 0 && !c.tryFireNextLocked(true) {
		c.advance.Signal()
	}
	c.mu.Unlock()
}

func (c *VirtualClock) pause() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock() // accounting no longer matters; let teardown drain
		return
	}
	if c.busy <= 0 {
		c.mu.Unlock()
		panic("netsim: clock-aware wait from an untracked goroutine (start it with Clock.Go or VirtualClock.Run)")
	}
	c.busy--
	c.paused++
	// The pauser still holds its Cond's lock here (Wait's contract), so
	// inline wake events — whose callbacks take a Cond lock — must not
	// fire on this goroutine; they fall back to the scheduler.
	if c.busy == 0 && !c.tryFireNextLocked(false) {
		c.advance.Signal()
	}
	c.mu.Unlock()
}

func (c *VirtualClock) resume(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.busy += n
	c.paused -= n
	c.mu.Unlock()
}

// scheduleWake enqueues an immediate event that re-mints one waiter token
// and signals sc, waking exactly one Cond waiter at the next quiescence.
// Deferring the wakeup through the event queue (rather than resuming the
// waiter inline) is what keeps signaler and waiter from ever being runnable
// at once — see Go. The event takes sc's lock before signalling so it can
// never slip between a waiter's token release and its arrival in sc.Wait.
// Returns false when the clock is stopped (the caller falls back to an
// inline wake so teardown cannot lose signals).
func (c *VirtualClock) scheduleWake(sc *sync.Cond) bool {
	return c.scheduleWakeAt(sc, time.Time{})
}

// scheduleWakeAt is scheduleWake with an explicit fire time: the waiter
// wakes when virtual time reaches at (immediately if at is zero or in the
// past). Timed wakes let a producer that already knows a delivery deadline
// wake its consumer in ONE event instead of an immediate wake followed by
// a re-park — at fleet scale that halves the event count per message.
func (c *VirtualClock) scheduleWakeAt(sc *sync.Cond, at time.Time) bool {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	if at.Before(c.now) {
		at = c.now
	}
	c.seq++
	ev := &vEvent{at: at, seq: c.seq, inline: true, fn: func() {
		sc.L.Lock()
		c.resume(1)
		sc.Signal()
		sc.L.Unlock()
	}}
	heap.Push(&c.events, ev)
	if c.busy == 0 {
		c.advance.Signal()
	}
	c.mu.Unlock()
	return true
}

// tryFireNextLocked pops and fires the earliest pending event if the world
// is quiescent. Called with c.mu held; may release and reacquire it.
//
// This is the serialization point shared by the scheduler goroutine and
// tail dispatch: a tracked goroutine whose park brought busy to zero fires
// the successor event itself, handing the token straight to the wakee.
// That saves the bounce through the scheduler goroutine — one goroutine
// switch per event instead of two, which is the difference between a
// thousand-site run fitting its wall budget under the race detector or
// not. Event order is identical either way: whoever fires always takes
// the heap head at a quiescent instant.
//
// allowLocking gates inline wake events, whose callbacks take the target
// Cond's lock: a goroutine pausing inside Cond.Wait still holds its own
// Cond lock, so it must leave those to the scheduler (a waiter arriving
// while a wake for the same Cond is pending would deadlock otherwise).
func (c *VirtualClock) tryFireNextLocked(allowLocking bool) bool {
	if c.stopped || c.busy != 0 || c.held > 0 {
		return false
	}
	// Drop cancelled timers lazily.
	for len(c.events) > 0 && c.events[0].state == evStopped {
		heap.Pop(&c.events)
	}
	if len(c.events) == 0 {
		return false
	}
	if c.events[0].inline && !allowLocking {
		return false
	}
	ev := heap.Pop(&c.events).(*vEvent)
	if ev.at.After(c.now) {
		c.now = ev.at
	}
	ev.state = evFired
	c.advances++
	c.busy++ // the token the wakee (or callback) will run on
	switch {
	case ev.wake != nil:
		close(ev.wake)
	case ev.inline:
		// Run wake events on the firing goroutine: they only re-mint a
		// token and signal, so no goroutine spawn is needed — a large
		// saving when thousands of sites signal queues constantly.
		fn := ev.fn
		c.mu.Unlock()
		fn()
		c.mu.Lock()
		c.busy-- // the event's own token; the wakee keeps the minted one
		if c.busy == 0 {
			// The wakee already parked again (or exited) while we ran the
			// callback; hand the next event to the scheduler.
			c.advance.Signal()
		}
	default:
		fn := ev.fn
		c.mu.Unlock()
		go func() {
			defer c.exitBusy()
			fn()
		}()
		c.mu.Lock()
	}
	return true
}

// schedule is the event loop of last resort: whenever the world quiesces
// (busy == 0) with an event nobody tail-dispatched, it fires exactly one —
// the earliest by (time, schedule order) — and waits for quiescence again.
// Firing one event at a time serializes same-instant wakeups in a
// deterministic order, which is what makes a seeded thousand-site scenario
// reproduce bit-identically.
func (c *VirtualClock) schedule() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.stopped {
			return
		}
		if c.tryFireNextLocked(true) {
			continue
		}
		c.advance.Wait()
	}
}

// Snapshot describes the clock's state for debugging stuck scenarios.
func (c *VirtualClock) Snapshot() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("vclock: now=%s busy=%d paused=%d events=%d advances=%d stopped=%v held=%d",
		c.now.Sub(VirtualBase), c.busy, c.paused, len(c.events), c.advances, c.stopped, c.held)
}

var _ Clock = (*VirtualClock)(nil)

// ---------------------------------------------------------------------------
// Clock-aware blocking primitives

// Cond is a condition variable whose waiters count as idle under a
// VirtualClock. Semantics mirror sync.Cond: Wait must be called with L
// held, Signal/Broadcast with L held too (this is stricter than
// sync.Cond, and required: the waiter bookkeeping lives under L).
//
// Under a virtual clock a wakeup is not delivered inline: Signal/Broadcast
// enqueue one wake event per waiter, and each event re-mints the waiter's
// token when it fires — after the signaler itself has parked or exited.
// Waiters must therefore re-check their predicate in a loop (Mesa
// semantics), which all callers in this codebase do anyway.
type Cond struct {
	clock   Clock
	c       sync.Cond
	waiting int
}

// Init binds cd to clock with l as its lock. It must be called once,
// before first use; a Cond is meant to be embedded by value next to the
// mutex it guards, so a waiter costs one heap object, not two.
func (cd *Cond) Init(clock Clock, l sync.Locker) {
	cd.clock = clock
	cd.c.L = l
}

// Wait atomically releases the lock (and, under a virtual clock, the
// caller's busy token) and blocks until woken.
func (cd *Cond) Wait() {
	cd.waiting++
	cd.clock.pause()
	cd.c.Wait()
}

// Signal wakes one waiter. Under a virtual clock the wake is deferred
// through the event queue (the waiter runs at the next quiescence, after
// the signaler has parked or exited); under the real clock it is an
// ordinary inline signal.
func (cd *Cond) Signal() {
	if vc, ok := cd.clock.(*VirtualClock); ok {
		if cd.waiting == 0 {
			// No logical waiter. The underlying sync.Cond may still hold
			// goroutines parked for already-scheduled wake events; a raw
			// Signal here would wake one before its event re-mints its
			// token, so it must NOT fall through.
			return
		}
		if vc.scheduleWake(&cd.c) {
			cd.waiting--
			return
		}
		// Clock stopped: inline fallback so teardown cannot lose the wake.
		cd.waiting--
		cd.clock.resume(1)
		cd.c.Signal()
		return
	}
	if cd.waiting > 0 {
		cd.waiting--
	}
	cd.c.Signal()
}

// SignalAt wakes one waiter when the clock reaches at. Under a virtual
// clock the wake event is placed directly at that instant, so a consumer
// waiting for an item with a known ready time needs no second sleep;
// under the real clock it degenerates to an immediate Signal and the
// caller is expected to sleep out any remaining delay itself (the usual
// pop-then-SleepUntil idiom, which both clocks support).
func (cd *Cond) SignalAt(at time.Time) {
	if cd.waiting > 0 {
		if vc, ok := cd.clock.(*VirtualClock); ok && vc.scheduleWakeAt(&cd.c, at) {
			cd.waiting--
			return
		}
	}
	cd.Signal()
}

// Broadcast wakes all waiters. Under a virtual clock each waiter gets its
// own wake event, so even a broadcast releases them one quiescence at a
// time in deterministic order — the underlying sync.Cond must NOT be
// broadcast inline in that case, or waiters would wake before their wake
// event re-mints their token and run untracked.
func (cd *Cond) Broadcast() {
	if vc, ok := cd.clock.(*VirtualClock); ok {
		for cd.waiting > 0 && vc.scheduleWake(&cd.c) {
			cd.waiting--
		}
		if cd.waiting == 0 {
			return // every wakeup travels through its scheduled event
		}
		// scheduleWake refused: the clock stopped mid-loop. Fall through to
		// an inline wake so teardown cannot lose the remainder.
	}
	if cd.waiting > 0 {
		cd.clock.resume(cd.waiting)
		cd.waiting = 0
	}
	cd.c.Broadcast()
}

// WaitGroup is a sync.WaitGroup whose Wait counts as idle under a
// VirtualClock — a tracked goroutine can wait for others to finish
// without wedging the event scheduler.
type WaitGroup struct {
	mu   sync.Mutex
	cond Cond
	n    int
}

// NewWaitGroup returns a WaitGroup bound to clock.
func NewWaitGroup(clock Clock) *WaitGroup {
	w := &WaitGroup{}
	w.cond.Init(clock, &w.mu)
	return w
}

// Add adds delta to the counter, waking waiters when it reaches zero.
func (w *WaitGroup) Add(delta int) {
	w.mu.Lock()
	w.n += delta
	if w.n < 0 {
		w.mu.Unlock()
		panic("netsim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	for w.n > 0 {
		w.cond.Wait()
	}
	w.mu.Unlock()
}
