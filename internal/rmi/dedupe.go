package rmi

import (
	"sync"

	"obiwan/internal/netsim"
	"obiwan/internal/wire"
)

// The duplicate-suppression table makes retried calls exactly-once from the
// application's view. A client that re-sends a call (its reply was lost, or
// the connection died between send and receive) reuses the call's ID, on a
// connection whose Hello named the same wire.Identity; the server executes
// the first arrival and answers every later one from the recorded response
// frame — including arrivals on a different connection after a redial, and
// arrivals while the first execution is still running (those wait for it to
// finish). A call to a method its target declares read-only (Idempotent) is
// not recorded: it runs on every arrival, and a client that makes only such
// calls has no log here.
//
// What a client's log retains is bounded twice, both bounds applying to
// completed calls in the order they completed; a call still executing is in
// neither queue and is never touched.
//
//   - By count: beyond maxDedupePerClient completed calls the oldest entry
//     goes entirely. Call ids are monotonically increasing per client
//     incarnation, so by then the client has long since stopped retrying it.
//   - By bytes: beyond maxDedupeBytesPerClient of recorded frames the oldest
//     entries give up their frame and stay behind as tombstones; the frame
//     completed last is always kept, whatever its size. A frame is counted
//     at what it pins (wire.Frame.Pinned): a vector's referenced states are
//     counted at their size classes, so the budget bounds memory. A retry
//     that finds a tombstone is refused with wire.FaultReplyEvicted instead
//     of being executed again: at-most-once holds unconditionally,
//     exactly-once whenever the reply being retried is still inside the
//     budget.
//
// A client's whole log goes when a higher incarnation of the same address
// calls (see admitLocked). Nothing is dropped for mere silence: the server
// cannot know a caller's overall deadline, and a call that waits it out on
// one attempt is silent for all of it.
const (
	maxDedupePerClient      = 4096
	maxDedupeBytesPerClient = 4 << 20
)

// dedupeEntry is one tracked invocation, guarded by its table's mu. The
// completion latch is a clock-aware Cond rather than a closed channel: a
// duplicate arrival that waits for the first execution counts as idle under
// a virtual clock, so the scheduler can advance time past it (the first
// execution may need a timer to make progress).
//
// The entry knows its log so that complete needs no second lookup, but not
// its call id, which complete is handed: a wire.Frame is a slice and a
// pointer, and an id beside it would push the entry into the 144-byte
// class. At 128 bytes it fills the class it was in when it had a mutex of
// its own; smaller, it would share the 112-byte class with the client's
// replyWaiter, whose freed slots leave the retained entries thinly spread
// over twice the spans (measured: +11 % heap in use after 4096 null calls).
type dedupeEntry struct {
	cond    netsim.Cond
	log     *clientLog
	frame   wire.Frame
	done    bool
	evicted bool // done, and the frame has been given up to the byte budget
}

// clientLog tracks one client incarnation's calls.
type clientLog struct {
	entries map[uint64]*dedupeEntry
	order   []uint64 // completed ids, oldest completion first
	held    int      // order[held:] still hold their frames
	bytes   int      // what those frames pin

	client wire.Identity // the key in dedupeTable.clients
}

// line is an address's incarnation namespace: ephemeral or durable.
type line struct {
	addr    string
	durable bool
}

// dedupeTable is the server-side suppression table, keyed by client
// incarnation then call id.
type dedupeTable struct {
	clock   netsim.Clock
	mu      sync.Mutex
	clients map[wire.Identity]*clientLog
	// lines indexes the resident logs by address and namespace, so that a
	// new incarnation finds the ones it supersedes without a scan of
	// clients.
	lines  map[line][]*clientLog
	states stateList // fed by a lent reply's last drop: its send's, or eviction here
}

func newDedupeTable(clock netsim.Clock) *dedupeTable {
	return &dedupeTable{
		clock:   clock,
		clients: make(map[wire.Identity]*clientLog),
		lines:   make(map[line][]*clientLog),
	}
}

// begin registers (client, id) and reports whether it was already present.
// The caller owns a fresh entry: it must record the response frame with
// complete. For a duplicate, the caller awaits and replays the frame.
func (t *dedupeTable) begin(client wire.Identity, id uint64) (*dedupeEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cl, ok := t.clients[client]
	if !ok {
		cl = t.admitLocked(client)
	}
	if e, ok := cl.entries[id]; ok {
		return e, true
	}
	e := &dedupeEntry{log: cl}
	e.cond.Init(t.clock, &t.mu)
	cl.entries[id] = e
	return e, false
}

// admitLocked opens a log for a client seen for the first time and drops the
// logs that client supersedes: those of lower incarnations of the same
// address in the same namespace (ephemeral, drawn from the clock, or durable,
// persisted by a site's WAL). The address can only have been bound again
// once its previous holder was gone, so nothing retries from those any more.
// A frame that still arrives from one of them opens a log of its own; it
// never displaces a higher incarnation's.
func (t *dedupeTable) admitLocked(client wire.Identity) *clientLog {
	cl := &clientLog{entries: make(map[uint64]*dedupeEntry), client: client}
	t.clients[client] = cl
	l := line{client.Addr, client.Durable}
	resident, n := t.lines[l], 0
	for _, old := range resident {
		if old.client.Incarnation < client.Incarnation {
			delete(t.clients, old.client)
			continue
		}
		resident[n] = old
		n++
	}
	clear(resident[n:]) // let go of the dropped logs
	t.lines[l] = append(resident[:n], cl)
	return cl
}

// complete records the response frame of e, the entry begin returned for
// id, releases all waiting duplicates and brings the log back inside its
// bounds. A frame of lent states is held for its first send too.
func (t *dedupeTable) complete(e *dedupeEntry, id uint64, frame wire.Frame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	frame.Hold()
	e.frame, e.done = frame, true
	e.cond.Broadcast()
	cl := e.log
	cl.order = append(cl.order, id)
	cl.bytes += frame.Pinned()
	for cl.bytes > maxDedupeBytesPerClient && cl.held < len(cl.order)-1 {
		old := cl.entries[cl.order[cl.held]]
		cl.bytes -= old.frame.Pinned()
		t.states.drop(old.frame)
		old.frame, old.evicted = wire.Frame{}, true
		cl.held++
	}
	for len(cl.order) > maxDedupePerClient {
		oldest := cl.order[0]
		if cl.held > 0 {
			cl.held--
		} else {
			cl.bytes -= cl.entries[oldest].frame.Pinned()
		}
		delete(cl.entries, oldest)
		cl.order = cl.order[1:]
	}
}

// await blocks until the entry completes and returns the recorded frame,
// the one every replay sends, held for that send; ok is false when it has
// been evicted.
func (t *dedupeTable) await(e *dedupeEntry) (frame wire.Frame, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !e.done {
		e.cond.Wait()
	}
	e.frame.Hold()
	return e.frame, !e.evicted
}
