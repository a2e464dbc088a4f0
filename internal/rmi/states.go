package rmi

import (
	"slices"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/wire"
)

// StatesOwner is a call result whose OwnedStates in-place states were
// captured for it alone (replication's Payload): nothing else holds them.
type StatesOwner interface{ OwnedStates() int }

// stateList is a free list of state buffers; a runtime keeps two. The
// dedupe table's feeds the Get path (LendState): a reply frame whose result
// owns its in-place states is lent (wire.Frame.Lend) and counts its holds,
// one per send or replay in flight plus the dedupe table's when the call is
// recorded, and the last Drop gives its states back: a Get's (not recorded,
// see Idempotent) once its send has written it, a recorded frame's after
// eviction. The runtime's own feeds the
// call side (LendCallState): the caller gives a state back once no call
// can send it again (GiveBackCallState). Neither evicts the other's class.
// A list keeps one size class, the last fresh capture's, so a lent buffer
// pins what a fresh one would, and holds at most maxDedupeBytesPerClient.
type stateList struct {
	mu         sync.Mutex
	low, class int      // a fresh buffer for low..class bytes has capacity class
	free       [][]byte // of capacity class
	carved     int      // bytes of blocks carved, charged whole, never refunded
}

const maxCarvedBytes = 8 * maxDedupeBytesPerClient // all a list carves in its life

// LendState answers an empty buffer for a state EncodeStructIn sizes at n
// bytes, or nil for one the frame copies (codec.StaysInPlace). Outside the
// list's class it allocates as EncodeStruct would and adopts that class.
// Inside, it lends one of the list's, or carves a block of four where that
// is a span of whole 8 KiB pages of its own: a lone buffer that outlives the
// rest of its span holds it (walk_cluster16k's live heap grew 0.15 MB a block).
func (rt *Runtime) LendState(n int) []byte { return rt.dedupe.states.lend(n) }

// LendCallState is LendState for a state that a call of this runtime sends
// as an argument (a put's), from the runtime's own list.
func (rt *Runtime) LendCallState(n int) []byte { return rt.calls.lend(n) }

// GiveBackCallState gives s, a state captured for calls that are all over,
// to the list LendCallState lends from. Each send of a call returns before
// the call goes on and a transport.Conn keeps nothing it sent, so a call's
// states are free once it returns, unless the caller sends them again (a
// failover to the next group member): it gives them back after its last
// call. A state under 2 KiB (codec.StaysInPlace) is left alone, as is one
// of another class or beyond the list's bound.
func (rt *Runtime) GiveBackCallState(s []byte) {
	if codec.StaysInPlace(len(s)) {
		rt.calls.mu.Lock()
		rt.calls.takeLocked(s)
		rt.calls.mu.Unlock()
	}
}

func (l *stateList) lend(n int) []byte {
	if !codec.StaysInPlace(n) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < l.low || n > l.class {
		b := slices.Grow([]byte(nil), n)
		if cap(b) != l.class {
			l.class, l.free = cap(b), nil
		}
		l.low = n
		return b
	}
	c, k := l.class, len(l.free)
	if k > 0 {
		b := l.free[k-1]
		l.free[k-1], l.free = nil, l.free[:k-1]
		return b
	}
	if c <= 8<<10 || c > 32<<10 || c%(2<<10) != 0 || l.carved+4*c > maxCarvedBytes {
		return slices.Grow([]byte(nil), n)
	}
	block := make([]byte, 4*c)
	l.carved += 4 * c
	l.free = append(l.free, block[c:c:2*c], block[2*c:2*c:3*c], block[3*c:3*c])
	return block[:0:c]
}

// lendOwned lends f when its one result owns every in-place state in it.
func lendOwned(f wire.Frame, results []any) {
	if n := f.States(); n > 0 && len(results) == 1 {
		if o, ok := results[0].(StatesOwner); ok && o.OwnedStates() == n {
			f.Lend()
		}
	}
}

// drop ends one hold on f and, when that was the last, takes back its
// states.
func (l *stateList) drop(f wire.Frame) {
	if !f.Drop() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < f.States(); i++ {
		l.takeLocked(f.State(i))
	}
}

// takeLocked takes s back when it is of the list's class and its bound
// admits one more.
func (l *stateList) takeLocked(s []byte) {
	if cap(s) == l.class && (len(l.free)+1)*l.class <= maxDedupeBytesPerClient {
		l.free = append(l.free, s[:0])
	}
}
