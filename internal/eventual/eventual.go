// Package eventual implements weakly-connected replication for OBIWAN in
// the style of Bayou (Terry et al., SOSP '95): the robustness story the
// paper's mobility pitch needs. Instead of shipping raw replica state and
// resolving concurrent offline edits by last-writer-wins, every edit is a
// deterministic **update function** appended to a per-site ordered log and
// stamped with a `<logical clock, site>` id. Replicas apply updates
// *tentatively* — immediately, against whatever they currently know — and
// roll back and replay when anti-entropy delivers earlier-ordered updates
// from elsewhere. The object's master (the *primary*) assigns commit
// sequence numbers in arrival order, so the committed prefix is stable and
// byte-identical at every site that has heard of it, while the tentative
// suffix converges as version vectors equalize.
//
// The pieces, mapped to the Bayou vocabulary:
//
//   - Update function (this file): a registered, deterministic function
//     run against an object's current state. "Meet at 9 if the room is
//     free at 9, else 10, else 11" — the conflict resolver rides inside
//     the update, so concurrent offline edits merge automatically instead
//     of silently losing work.
//   - Update log (log.go / store.go): per site, one ordered log across
//     the tracked objects. Order is commit sequence number for the
//     committed prefix, then `<clock, site>` for the tentative suffix.
//   - Rollback/replay (store.go): when sync changes the order, the object
//     rolls back to its committed state and replays; the live object is
//     always `committed state + tentative suffix in log order`.
//   - Primary commit (store.go): the site whose heap masters the object
//     assigns CSNs as updates reach it; commit records propagate through
//     the same anti-entropy sessions as the updates themselves.
//   - Anti-entropy (sync.go): version-vector exchange, peer-to-peer as
//     well as replica↔primary, in any pairwise order. Each session ships
//     exactly the updates and commit records the receiver lacks.
//   - Durability (journal hooks in store.go): every log mutation is
//     journaled write-ahead through the site's WAL, so tentative updates
//     survive crash+restart.
//
// # Determinism contract
//
// Convergence to *byte-identical* state rests on update functions being
// deterministic: given the same object state and the same argument bytes,
// an update function must make the same mutation at every site. Functions
// must not read clocks, random sources, site identity, or any state
// outside the target object; they must be registered under the same name
// with identical semantics at every site (same discipline as
// objmodel.RegisterType). Arguments are opaque bytes — encode them with
// the codec package so the encoding itself is deterministic.
package eventual

import (
	"errors"
	"fmt"
	"sync"
)

// Errors.
var (
	// ErrUnknownUpdateFunc is returned when an update names a function this
	// site has not registered. The update cannot be applied — and because
	// updates must apply identically everywhere, the whole sync batch
	// carrying it is rejected.
	ErrUnknownUpdateFunc = errors.New("eventual: unknown update function")
	// ErrNotTracked is returned for operations on objects never enrolled
	// with Store.Track.
	ErrNotTracked = errors.New("eventual: object not tracked")
	// ErrCommitGap is returned when a commit record would leave a hole in
	// the commit sequence — the sender violated CSN-order delivery.
	ErrCommitGap = errors.New("eventual: commit sequence gap")
)

// UpdateID is the global identity and tentative-order timestamp of one
// update: a Lamport clock paired with the minting site's id. Clocks
// advance on receipt, so an update created after a sync sorts after
// everything learned in it — causality survives pairwise sync in any
// order. Site breaks ties, making the order total.
type UpdateID struct {
	// Clock is the logical (Lamport) timestamp.
	Clock uint64
	// Site is the minting site's heap id (tiebreaker).
	Site uint16
}

// IsZero reports whether id is the zero identity.
func (id UpdateID) IsZero() bool { return id.Clock == 0 && id.Site == 0 }

// Less orders ids by (Clock, Site) — the tentative total order.
func (id UpdateID) Less(o UpdateID) bool {
	if id.Clock != o.Clock {
		return id.Clock < o.Clock
	}
	return id.Site < o.Site
}

func (id UpdateID) String() string {
	return fmt.Sprintf("<%d,%d>", id.Clock, id.Site)
}

// Update is one logged update: a deterministic update function applied to
// one object. CSN is zero while tentative; the primary assigns the final
// commit position.
type Update struct {
	// ID is the update's global identity and tentative-order stamp.
	ID UpdateID
	// OID identifies the target object.
	OID uint64
	// Fn names the registered update function.
	Fn string
	// Args is the function's opaque encoded argument payload.
	Args []byte
	// CSN is the commit sequence number assigned by the object's primary
	// (0 = tentative). CSNs are contiguous per object, starting at 1.
	CSN uint64
}

// UpdateFunc is a deterministic update function: it mutates obj in place
// based on obj's current state and args. An error aborts the applying
// operation (the update stays in the log and is retried on replay); errors
// must themselves be deterministic or sites will diverge.
type UpdateFunc func(obj any, args []byte) error

var (
	fnMu  sync.RWMutex
	fnReg = make(map[string]UpdateFunc)
)

// RegisterUpdate binds name to fn in the process-global update-function
// registry. Every site of a deployment must register the same names with
// identical semantics (an init function is the conventional place).
// Re-registering a name is an error.
func RegisterUpdate(name string, fn UpdateFunc) error {
	if name == "" {
		return errors.New("eventual: empty update-function name")
	}
	if fn == nil {
		return fmt.Errorf("eventual: nil update function for %q", name)
	}
	fnMu.Lock()
	defer fnMu.Unlock()
	if _, dup := fnReg[name]; dup {
		return fmt.Errorf("eventual: update function %q already registered", name)
	}
	fnReg[name] = fn
	return nil
}

// MustRegisterUpdate is RegisterUpdate but panics on error.
func MustRegisterUpdate(name string, fn UpdateFunc) {
	if err := RegisterUpdate(name, fn); err != nil {
		panic(err)
	}
}

// lookupUpdate resolves a registered update function.
func lookupUpdate(name string) (UpdateFunc, error) {
	fnMu.RLock()
	fn, ok := fnReg[name]
	fnMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUpdateFunc, name)
	}
	return fn, nil
}
