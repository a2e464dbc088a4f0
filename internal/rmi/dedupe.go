package rmi

import (
	"sync"

	"obiwan/internal/netsim"
)

// The duplicate-suppression table makes retried calls exactly-once from the
// application's view. A client that re-sends a call (its reply was lost, or
// the connection died between send and receive) reuses the call's
// (Client, ID) identity; the server executes the first arrival and answers
// every later one from the recorded response frame — including arrivals on
// a different connection after a redial, and arrivals while the first
// execution is still running (those wait for it to finish).
//
// Entries are evicted per client in insertion order once the client exceeds
// maxDedupePerClient completed calls. Call ids are monotonically increasing
// per client incarnation, so by the time an id is evicted the client has
// long since stopped retrying it.
const maxDedupePerClient = 4096

// dedupeEntry is one tracked invocation. The completion latch is a
// clock-aware Cond rather than a closed channel: a duplicate arrival that
// waits for the first execution counts as idle under a virtual clock, so
// the scheduler can advance time past it (the first execution may need a
// timer to make progress).
type dedupeEntry struct {
	mu    sync.Mutex
	cond  netsim.Cond
	frame []byte
	done  bool
}

func newDedupeEntry(clock netsim.Clock) *dedupeEntry {
	e := &dedupeEntry{}
	e.cond.Init(clock, &e.mu)
	return e
}

// complete records the response frame and releases all waiting duplicates.
func (e *dedupeEntry) complete(frame []byte) {
	e.mu.Lock()
	e.frame = frame
	e.done = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// await blocks until the entry completes and returns the recorded frame.
func (e *dedupeEntry) await() []byte {
	e.mu.Lock()
	for !e.done {
		e.cond.Wait()
	}
	frame := e.frame
	e.mu.Unlock()
	return frame
}

func (e *dedupeEntry) isDone() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// clientLog tracks one client incarnation's calls.
type clientLog struct {
	entries map[uint64]*dedupeEntry
	order   []uint64 // insertion order, for eviction
}

// dedupeTable is the server-side suppression table, keyed by client
// incarnation then call id.
type dedupeTable struct {
	clock   netsim.Clock
	mu      sync.Mutex
	clients map[string]*clientLog
}

func newDedupeTable(clock netsim.Clock) *dedupeTable {
	return &dedupeTable{clock: clock, clients: make(map[string]*clientLog)}
}

// begin registers (client, id) and reports whether it was already present.
// The caller owns a fresh entry: it must record the response frame with
// complete. For a duplicate, the caller awaits and replays the frame.
func (t *dedupeTable) begin(client string, id uint64) (*dedupeEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cl, ok := t.clients[client]
	if !ok {
		cl = &clientLog{entries: make(map[uint64]*dedupeEntry)}
		t.clients[client] = cl
	}
	if e, ok := cl.entries[id]; ok {
		return e, true
	}
	e := newDedupeEntry(t.clock)
	cl.entries[id] = e
	cl.order = append(cl.order, id)
	t.evictLocked(cl)
	return e, false
}

// evictLocked trims completed entries beyond the per-client cap, oldest
// first. In-flight entries are never evicted.
func (t *dedupeTable) evictLocked(cl *clientLog) {
	for len(cl.order) > maxDedupePerClient {
		id := cl.order[0]
		if e, ok := cl.entries[id]; ok {
			if !e.isDone() {
				return // oldest still executing; try again next insert
			}
			delete(cl.entries, id)
		}
		cl.order = cl.order[1:]
	}
}

// size returns the number of tracked calls for a client (tests).
func (t *dedupeTable) size(client string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cl, ok := t.clients[client]; ok {
		return len(cl.entries)
	}
	return 0
}
