// Package txn provides the relaxed transactional support the paper lists
// among OBIWAN's application hooks: "provides hooks for the application
// programmer to implement a set of application specific properties such as
// relaxed transactional support or updates dissemination" (§1).
//
// Transactions here are optimistic and replica-local, designed for the
// mobile scenario:
//
//   - Begin opens a transaction at a site; Read and Write enroll replicas,
//     snapshotting read versions and pre-images.
//   - Commit validates the read set against the local heap (no replica
//     changed underneath the transaction) and then ships each written
//     replica to its master with Put. The master's consistency policy
//     (e.g. consistency.FirstWriterWins) is the global validator.
//   - A conflict anywhere rolls the local replicas back to their
//     pre-images and returns ErrConflict.
//   - Commit while disconnected parks the transaction on a pending queue
//     instead of failing: local state stays committed locally, and
//     FlushPending replays the queue after reconnection — the paper's
//     "users should be able to modify local replicas of global data"
//     carried to its transactional conclusion.
//
// "Relaxed" is precise: there is no cross-master atomic commit (no 2PC);
// isolation is per-site; durability is the master's. This is the standard
// trade-off for disconnected operation.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// Errors.
var (
	// ErrConflict is returned by Commit when validation fails locally or a
	// master rejects an update; the transaction has been rolled back.
	ErrConflict = errors.New("txn: conflict, transaction rolled back")
	// ErrClosed is returned for operations on a finished transaction.
	ErrClosed = errors.New("txn: transaction already finished")
	// ErrNotEnrolled is returned by Write for objects never Read/Written
	// in this transaction... it is returned by Commit internals when
	// bookkeeping is inconsistent.
	ErrNotEnrolled = errors.New("txn: object not enrolled")
)

// Status of a transaction.
type Status uint8

const (
	// Active transactions accept reads and writes.
	Active Status = iota
	// Committed transactions applied their writes at the masters.
	Committed
	// Pending transactions committed locally while disconnected and await
	// FlushPending.
	Pending
	// Aborted transactions were rolled back.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Pending:
		return "pending"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// PendingJournal durably records the pending-commit queue: which parked
// transactions exist (their write-set OIDs ride along so recovery can
// rebuild the write set from the recovered heap) and when each resolves.
// The site layer implements it over the same WAL as the replication
// journal; the written replica states themselves are made durable through
// the engine's dirty-replica journaling, so a parked commit survives a
// crash end to end.
type PendingJournal interface {
	TxnParked(id uint64, writeOIDs []uint64) error
	TxnResolved(id uint64) error
}

// Manager coordinates transactions at one site.
type Manager struct {
	eng *replication.Engine

	mu      sync.Mutex
	nextID  uint64
	pending []*Txn
	pj      PendingJournal
}

// NewManager builds a transaction manager over a site's engine.
func NewManager(eng *replication.Engine) *Manager {
	return &Manager{eng: eng}
}

// SetPendingJournal installs the pending-queue journal (nil to clear).
func (m *Manager) SetPendingJournal(pj PendingJournal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pj = pj
}

func (m *Manager) pendingJournal() PendingJournal {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pj
}

// AdoptPending re-parks a transaction recovered from the pending-commit
// journal. The write set is rebuilt from the recovered heap (the dirty
// replica states came back through the replication journal); OIDs no
// longer in the heap are skipped. Adopted transactions have no pre-images
// — a post-recovery rejection clears the dirty flag and leaves the state
// for a Refresh rather than rolling back.
func (m *Manager) AdoptPending(id uint64, writeOIDs []uint64) *Txn {
	t := &Txn{
		mgr:      m,
		id:       id,
		status:   Pending,
		parked:   true,
		reads:    make(map[objmodel.OID]uint64),
		preimage: make(map[objmodel.OID][]byte),
		writes:   make(map[objmodel.OID]any),
	}
	for _, o := range writeOIDs {
		oid := objmodel.OID(o)
		if entry, ok := m.eng.Heap().Get(oid); ok {
			t.writes[oid] = entry.Obj
		}
	}
	m.mu.Lock()
	if id > m.nextID {
		m.nextID = id
	}
	m.pending = append(m.pending, t)
	m.mu.Unlock()
	return t
}

// Begin opens a transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	return &Txn{
		mgr:      m,
		id:       id,
		status:   Active,
		reads:    make(map[objmodel.OID]uint64),
		preimage: make(map[objmodel.OID][]byte),
		writes:   make(map[objmodel.OID]any),
	}
}

// Pending returns the transactions parked by disconnected commits.
func (m *Manager) Pending() []*Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Txn(nil), m.pending...)
}

// FlushPending replays parked transactions in commit order — the
// reconnection step. Transactions that now conflict are rolled back (their
// local effects are undone) and reported; the rest commit. It returns the
// number committed and the first error.
func (m *Manager) FlushPending() (int, error) {
	m.mu.Lock()
	queue := m.pending
	m.pending = nil
	m.mu.Unlock()

	var firstErr error
	committed := 0
	for _, t := range queue {
		err := t.push()
		switch {
		case err == nil:
			t.setStatus(Committed)
			t.journalResolve()
			committed++
		case isDisconnection(err):
			// Still offline: keep it parked (its journal record stands).
			m.mu.Lock()
			m.pending = append(m.pending, t)
			m.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
		default:
			// Definitive rejection: undo the local effects.
			t.rollbackLocked()
			t.setStatus(Aborted)
			t.journalResolve()
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: txn %d: %w", ErrConflict, t.id, err)
			}
		}
	}
	return committed, firstErr
}

// Txn is one optimistic transaction. A Txn must be used from one goroutine
// at a time.
type Txn struct {
	mgr    *Manager
	id     uint64
	mu     sync.Mutex
	status Status
	// parked: this transaction's park is journaled and must be resolved.
	parked bool

	// reads: replica version observed at enrollment (validation set).
	reads map[objmodel.OID]uint64
	// preimage: state snapshot taken at first enrollment (rollback set).
	preimage map[objmodel.OID][]byte
	// writes: objects the transaction intends to put.
	writes map[objmodel.OID]any
}

// Status returns the transaction's state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

func (t *Txn) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

// enroll snapshots version and pre-image on first contact with obj.
func (t *Txn) enroll(obj any) (*heap.Entry, error) {
	entry, ok := t.mgr.eng.Heap().EntryOf(obj)
	if !ok {
		return nil, heap.ErrUnknownObject
	}
	if _, seen := t.reads[entry.OID]; !seen {
		state, err := t.mgr.eng.CaptureSnapshot(obj)
		if err != nil {
			return nil, err
		}
		t.reads[entry.OID] = entry.Version()
		t.preimage[entry.OID] = state
	}
	return entry, nil
}

// Read enrolls obj in the read set. Call before (or at) first access.
func (t *Txn) Read(obj any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != Active {
		return ErrClosed
	}
	_, err := t.enroll(obj)
	return err
}

// Write enrolls obj in the write set (implying Read). The caller mutates
// the object afterwards as usual.
func (t *Txn) Write(obj any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != Active {
		return ErrClosed
	}
	entry, err := t.enroll(obj)
	if err != nil {
		return err
	}
	t.writes[entry.OID] = obj
	entry.SetDirty(true)
	return nil
}

// Commit validates and applies the transaction. Read-set validation is
// local; write application is per-master Put, judged by the master's
// consistency policy. While disconnected the transaction parks as Pending
// and Commit returns nil: local work proceeds, FlushPending finishes the
// job later.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return ErrClosed
	}
	// Local validation: no enrolled object changed version since we read
	// it (another transaction or a refresh would have bumped it).
	for oid, readV := range t.reads {
		entry, ok := t.mgr.eng.Heap().Get(oid)
		if !ok {
			t.rollbackLocked()
			t.status = Aborted
			t.mu.Unlock()
			return fmt.Errorf("%w: %v evicted during transaction", ErrConflict, oid)
		}
		if entry.Version() != readV {
			t.rollbackLocked()
			t.status = Aborted
			t.mu.Unlock()
			return fmt.Errorf("%w: %v changed underneath (v%d → v%d)",
				ErrConflict, oid, readV, entry.Version())
		}
	}
	t.mu.Unlock()

	err := t.push()
	switch {
	case err == nil:
		t.setStatus(Committed)
		return nil
	case isDisconnection(err):
		t.setStatus(Pending)
		t.mgr.mu.Lock()
		t.mgr.pending = append(t.mgr.pending, t)
		t.mgr.mu.Unlock()
		return t.journalPark()
	default:
		t.mu.Lock()
		t.rollbackLocked()
		t.status = Aborted
		t.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrConflict, err)
	}
}

// journalPark makes a freshly parked transaction durable: each written
// replica's edited state goes through the engine's dirty-replica journal
// and the park itself through the pending journal. A returned error means
// the park is NOT durable (the transaction stays parked in memory).
func (t *Txn) journalPark() error {
	t.mu.Lock()
	if t.parked {
		t.mu.Unlock()
		return nil
	}
	t.parked = true
	oids := make([]uint64, 0, len(t.writes))
	objs := make([]any, 0, len(t.writes))
	for oid, obj := range t.writes {
		oids = append(oids, uint64(oid))
		objs = append(objs, obj)
	}
	t.mu.Unlock()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, obj := range objs {
		entry, ok := t.mgr.eng.Heap().EntryOf(obj)
		if !ok || entry.Role == heap.Master {
			continue // masters journal through their own update path
		}
		if err := t.mgr.eng.JournalDirty(obj); err != nil {
			return err
		}
	}
	pj := t.mgr.pendingJournal()
	if pj == nil {
		return nil
	}
	return pj.TxnParked(t.id, oids)
}

// journalResolve retracts a parked transaction's journal record once it
// commits or aborts. Best-effort: a missed retraction only means recovery
// re-adopts a finished transaction, whose replay is idempotent.
func (t *Txn) journalResolve() {
	t.mu.Lock()
	wasParked := t.parked
	t.parked = false
	t.mu.Unlock()
	if !wasParked {
		return
	}
	if pj := t.mgr.pendingJournal(); pj != nil {
		_ = pj.TxnResolved(t.id)
	}
}

// push ships the write set to the masters. Masters only see whole objects,
// so a master write (role Master) just bumps versions via MarkUpdated.
func (t *Txn) push() error {
	t.mu.Lock()
	writes := make([]any, 0, len(t.writes))
	for _, obj := range t.writes {
		writes = append(writes, obj)
	}
	t.mu.Unlock()
	for _, obj := range writes {
		entry, ok := t.mgr.eng.Heap().EntryOf(obj)
		if !ok {
			return ErrNotEnrolled
		}
		var err error
		if entry.Role == heap.Master {
			err = t.mgr.eng.MarkUpdated(obj)
		} else {
			err = t.mgr.eng.PutCluster(telemetry.SpanContext{}, obj) // the unit it arrived in
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes the transaction's local effects and closes it.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	if t.status != Active && t.status != Pending {
		t.mu.Unlock()
		return ErrClosed
	}
	t.rollbackLocked()
	t.status = Aborted
	t.mu.Unlock()
	t.journalResolve()
	return nil
}

// rollbackLocked restores every pre-image. Caller holds t.mu or has
// exclusive access.
func (t *Txn) rollbackLocked() {
	for oid, state := range t.preimage {
		entry, ok := t.mgr.eng.Heap().Get(oid)
		if !ok {
			continue
		}
		// Restore failures leave the object as-is; there is no better
		// recovery than the master's copy (a later Refresh).
		_ = t.mgr.eng.RestoreSnapshot(entry.Obj, state)
		entry.SetDirty(false)
	}
	// Adopted (recovered) transactions carry no pre-images: the best undo
	// is dropping the dirty mark and letting a Refresh fetch the master's
	// copy.
	for oid := range t.writes {
		if _, havePre := t.preimage[oid]; havePre {
			continue
		}
		if entry, ok := t.mgr.eng.Heap().Get(oid); ok {
			entry.SetDirty(false)
		}
	}
}

// isDisconnection classifies errors that mean "try again when connected":
// link-level disconnections, unreachable peers, dropped connections, and
// call timeouts. Definitive application-level rejections (e.g. a
// consistency conflict) are not disconnections.
func isDisconnection(err error) bool {
	return errors.Is(err, netsim.ErrDisconnected) ||
		errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, rmi.ErrTimeout)
}
