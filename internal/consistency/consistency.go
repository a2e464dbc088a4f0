// Package consistency is the library of replica-consistency protocols the
// paper defers to: "the application programmer is not forced to deal with
// consistency; he may simply use a library of specific consistency
// protocols written by any other programmer. We plan to develop such
// libraries for well known consistency policies" (§2.1, note 2).
//
// Master-side policies plug into the replication engine's hook surface
// (replication.Policy); client-side helpers (leases, staleness tracking)
// integrate at the site facade.
//
//   - LastWriterWins: every put overwrites; the paper's laissez-faire
//     default made explicit.
//   - FirstWriterWins: a put based on a stale version is rejected with
//     ErrConflict, so the first concurrent writer wins and later writers
//     must refresh and retry (optimistic concurrency control).
//   - Invalidation: the master remembers which sites replicated each
//     object and notifies them on every update, so replicas learn they
//     are stale instead of serving old data silently.
//   - Lease: replicas are considered valid for a TTL after fetch; after
//     that, the holder should refresh before trusting local state.
package consistency

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"obiwan/internal/objmodel"
)

// ErrConflict is returned (and travels to the putting site as a remote
// application error) when a policy rejects a stale update.
var ErrConflict = errors.New("consistency: conflicting update (stale base version)")

// LastWriterWins accepts every update: whoever puts last overwrites. This
// matches the paper's default, where consistency is the programmer's
// responsibility.
type LastWriterWins struct{}

// ApplyPut always accepts.
func (LastWriterWins) ApplyPut(objmodel.OID, uint64, uint64) error { return nil }

// ReplicaCreated is a no-op.
func (LastWriterWins) ReplicaCreated(objmodel.OID, string, uint64) {}

// MasterUpdated is a no-op.
func (LastWriterWins) MasterUpdated(objmodel.OID, uint64) {}

// FirstWriterWins rejects updates whose base version is not the master's
// current version: concurrent writers lose and must refresh + retry.
type FirstWriterWins struct{}

// ApplyPut rejects stale bases with ErrConflict.
func (FirstWriterWins) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	if base != cur {
		return fmt.Errorf("%w: object %v at v%d, update based on v%d", ErrConflict, oid, cur, base)
	}
	return nil
}

// ReplicaCreated is a no-op.
func (FirstWriterWins) ReplicaCreated(objmodel.OID, string, uint64) {}

// MasterUpdated is a no-op.
func (FirstWriterWins) MasterUpdated(objmodel.OID, uint64) {}

// Notifier delivers an invalidation to a replica site. The site facade
// wires this to an RMI call into the site's invalidation sink; tests can
// substitute a local function.
type Notifier func(site string, oid objmodel.OID, version uint64) error

// Invalidation tracks, at the master, which sites hold replicas of each
// object, and notifies them when the master changes. Delivery is
// best-effort — an unreachable (mobile, disconnected) site simply misses
// the notification and discovers staleness on reconnection, exactly the
// weak-connectivity regime the paper targets.
type Invalidation struct {
	// Base decides put acceptance; defaults to LastWriterWins.
	Base interface {
		ApplyPut(objmodel.OID, uint64, uint64) error
	}
	notify Notifier

	mu      sync.Mutex
	holders map[objmodel.OID]map[string]bool
}

// NewInvalidation builds an invalidation policy delivering via notify.
func NewInvalidation(notify Notifier) *Invalidation {
	return &Invalidation{
		Base:    LastWriterWins{},
		notify:  notify,
		holders: make(map[objmodel.OID]map[string]bool),
	}
}

// ApplyPut delegates to the base policy.
func (p *Invalidation) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	return p.Base.ApplyPut(oid, cur, base)
}

// ReplicaCreated records the holder site.
func (p *Invalidation) ReplicaCreated(oid objmodel.OID, site string, _ uint64) {
	if site == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	holders, ok := p.holders[oid]
	if !ok {
		holders = make(map[string]bool)
		p.holders[oid] = holders
	}
	holders[site] = true
}

// MasterUpdated notifies every recorded holder, in site-name order so the
// fan-out is deterministic (virtual-clock runs replay bit-identically).
// Sites whose notification fails stay registered and will be notified
// again on the next update.
func (p *Invalidation) MasterUpdated(oid objmodel.OID, version uint64) {
	p.mu.Lock()
	sites := make([]string, 0, len(p.holders[oid]))
	for s := range p.holders[oid] {
		sites = append(sites, s)
	}
	p.mu.Unlock()
	sort.Strings(sites)
	for _, s := range sites {
		// Best-effort: failures are expected while holders are offline.
		_ = p.notify(s, oid, version)
	}
}

// Holders returns the sites currently recorded for oid (diagnostics).
func (p *Invalidation) Holders(oid objmodel.OID) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.holders[oid]))
	for s := range p.holders[oid] {
		out = append(out, s)
	}
	return out
}

// Forget removes a holder (e.g. after it unsubscribed or was garbage
// collected remotely).
func (p *Invalidation) Forget(oid objmodel.OID, site string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.holders[oid], site)
}

// ErrTentative is returned when a raw state put targets an object managed
// by the weakly-connected update log: its state is `committed prefix +
// tentative suffix` and may be rolled back and replayed at any sync, so
// overwriting it wholesale would silently discard logged updates. Mutate
// such objects through update functions (eventual.Store.Append /
// Txn.Apply) instead.
var ErrTentative = errors.New("consistency: object is tentatively replicated; use update functions")

// Tentative guards log-managed objects: puts against them are rejected
// with ErrTentative, everything else falls through to Base. Wire Managed
// to eventual.Store.Managed.
type Tentative struct {
	// Base decides put acceptance for unmanaged objects; defaults to
	// LastWriterWins.
	Base interface {
		ApplyPut(objmodel.OID, uint64, uint64) error
	}
	// Managed reports whether oid is enrolled in the update log.
	Managed func(objmodel.OID) bool
}

// NewTentative builds the policy over managed.
func NewTentative(managed func(objmodel.OID) bool) *Tentative {
	return &Tentative{Base: LastWriterWins{}, Managed: managed}
}

// ApplyPut rejects puts to managed objects; unmanaged ones go to Base.
func (p *Tentative) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	if p.Managed != nil && p.Managed(oid) {
		return fmt.Errorf("%w: object %v", ErrTentative, oid)
	}
	if p.Base == nil {
		return nil
	}
	return p.Base.ApplyPut(oid, cur, base)
}

// ReplicaCreated is a no-op.
func (p *Tentative) ReplicaCreated(objmodel.OID, string, uint64) {}

// MasterUpdated is a no-op.
func (p *Tentative) MasterUpdated(objmodel.OID, uint64) {}

// StaleSet is the client-side staleness ledger fed by invalidations. A
// site's invalidation sink marks entries; the application (or the site's
// auto-refresh) queries and clears them.
type StaleSet struct {
	mu      sync.Mutex
	stale   map[objmodel.OID]uint64 // oid → newest version heard of
	observe func(int)               // nil unless SetObserver was called
}

// NewStaleSet returns an empty ledger.
func NewStaleSet() *StaleSet {
	return &StaleSet{stale: make(map[objmodel.OID]uint64)}
}

// SetObserver installs fn, called with the ledger size after every
// size-changing mutation — the bridge a telemetry staleness gauge rides
// without this package importing telemetry. Install before concurrent
// use; fn runs under the ledger lock and must not call back in.
func (s *StaleSet) SetObserver(fn func(int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observe = fn
}

// MarkStale records that oid has a newer master version.
func (s *StaleSet) MarkStale(oid objmodel.OID, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version > s.stale[oid] {
		s.stale[oid] = version
		if s.observe != nil {
			s.observe(len(s.stale))
		}
	}
}

// IsStale reports whether oid has been invalidated, and the newest master
// version heard of.
func (s *StaleSet) IsStale(oid objmodel.OID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.stale[oid]
	return v, ok
}

// Clear removes oid from the ledger (after a refresh).
func (s *StaleSet) Clear(oid objmodel.OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stale[oid]; !ok {
		return
	}
	delete(s.stale, oid)
	if s.observe != nil {
		s.observe(len(s.stale))
	}
}

// Stale returns all currently stale OIDs, sorted, so refresh rounds that
// walk the ledger issue their RMIs in a deterministic order.
func (s *StaleSet) Stale() []objmodel.OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]objmodel.OID, 0, len(s.stale))
	for oid := range s.stale {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Lease is the client-side time-based validity policy: a replica fetched
// at time T is trusted until T+TTL; afterwards the holder should refresh.
type Lease struct {
	// TTL is how long a fetched replica stays trusted.
	TTL time.Duration
	// Clock allows tests to control time; defaults to time.Now.
	Clock func() time.Time
}

// NewLease builds a lease policy with the given TTL.
func NewLease(ttl time.Duration) *Lease {
	return &Lease{TTL: ttl}
}

func (l *Lease) now() time.Time {
	if l.Clock != nil {
		return l.Clock()
	}
	return time.Now()
}

// Expired reports whether a replica fetched at fetchedAt has outlived its
// lease.
func (l *Lease) Expired(fetchedAt time.Time) bool {
	if l.TTL <= 0 {
		return false
	}
	return l.now().After(fetchedAt.Add(l.TTL))
}
