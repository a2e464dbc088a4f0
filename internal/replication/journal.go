package replication

import (
	"fmt"
	"hash/crc32"

	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
)

// The journal is the engine's durability hook surface. A site that opened
// a WAL installs one; the engine then reports every mutation that must
// survive a crash *before* acknowledging it, write-ahead style: master
// state changes (registration, applied puts, local updates), replica-side
// dirty edits and their eventual clean-up, and proxy-in exports (so a
// reborn site can re-export at the same object ids and keep remote
// provider references valid). A journal error propagates to the caller —
// a durable site refuses mutations it cannot make durable.
//
// Lock ordering: the engine NEVER calls the journal while holding e.mu or
// an entry's state lock, so the journal may freely call back into the
// engine (capture, frontier building) and the heap.

// Journal records engine mutations durably. Implementations must be safe
// for concurrent use.
type Journal interface {
	// MasterChanged records a master object's full current state. Called
	// on registration and after every version bump. Records are
	// last-state-wins: replay keeps only the newest per OID.
	MasterChanged(rec JournalMaster) error
	// ReplicaDirtied records a replica's locally edited state so an
	// offline edit survives a crash and can be put back after rebirth.
	ReplicaDirtied(rec JournalReplica) error
	// ReplicaCleaned retracts a dirty record: the edit reached its master
	// (or was overwritten by a refresh) and must not be replayed.
	ReplicaCleaned(oid objmodel.OID, newVersion uint64) error
	// ProxyInExported records the RMI object id serving oid, so recovery
	// re-exports the proxy-in at the same id.
	ProxyInExported(oid objmodel.OID, id uint64) error
}

// JournalMaster is the durable image of one master object.
type JournalMaster struct {
	OID      uint64
	TypeName string
	Version  uint64
	State    []byte
	Frontier []FrontierRef

	// The applied-put dedupe triple (see appliedPut): carried on every
	// record, not just put-applied ones, because replay is
	// last-record-wins — a later MarkUpdated record would otherwise
	// erase the exactly-once guard for a retry racing the crash.
	AppliedBase    uint64
	AppliedCRC     uint64
	AppliedVersion uint64
}

// JournalReplica is the durable image of one dirty replica: enough to
// recreate the entry, its provider route, and its outward references.
type JournalReplica struct {
	OID         uint64
	TypeName    string
	Version     uint64
	State       []byte
	Provider    rmi.RemoteRef
	ClusterRoot uint64
	Frontier    []FrontierRef
}

// SetJournal installs (or clears) the journal at run time. A durable site
// installs it before any application mutation can occur.
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
}

func (e *Engine) getJournal() Journal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal
}

// appliedPut is the exactly-once guard for put retries that straddle a
// master restart: the rmi dedupe table dies with the process, so the
// engine remembers, per master, the last applied update's (base version,
// state checksum) and the version it produced. A retried PutRequest
// matching the pair gets the recorded reply instead of a second apply.
type appliedPut struct {
	base    uint64
	crc     uint64
	version uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func stateCRC(state []byte) uint64 {
	return uint64(crc32.Checksum(state, castagnoli))
}

// CaptureImage captures obj's current state plus its recovery frontier —
// the pair every durable or agreed image of an object carries: journal
// records, compaction snapshots, and the group's register/bump commands.
func (e *Engine) CaptureImage(obj any) (state []byte, frontier []FrontierRef, err error) {
	if state, err = e.CaptureSnapshot(obj); err != nil {
		return nil, nil, err
	}
	if frontier, err = e.frontierOf(obj, e.recoveryFrontierFor); err != nil {
		return nil, nil, err
	}
	return state, frontier, nil
}

// MasterImage builds the durable record of a master entry as it stands:
// what journalMaster appends and what a compaction snapshot keeps.
func (e *Engine) MasterImage(entry *heap.Entry) (JournalMaster, error) {
	state, frontier, err := e.CaptureImage(entry.Obj)
	if err != nil {
		return JournalMaster{}, fmt.Errorf("replication: journal image %v: %w", entry.OID, err)
	}
	rec := JournalMaster{
		OID:      uint64(entry.OID),
		TypeName: entry.TypeName,
		Version:  entry.Version(),
		State:    state,
		Frontier: frontier,
	}
	e.mu.Lock()
	if ap, ok := e.appliedPuts[entry.OID]; ok {
		rec.AppliedBase, rec.AppliedCRC, rec.AppliedVersion = ap.base, ap.crc, ap.version
	}
	e.mu.Unlock()
	return rec, nil
}

// ReplicaImage builds the durable record of a locally edited replica.
func (e *Engine) ReplicaImage(entry *heap.Entry) (JournalReplica, error) {
	state, frontier, err := e.CaptureImage(entry.Obj)
	if err != nil {
		return JournalReplica{}, fmt.Errorf("replication: journal image %v: %w", entry.OID, err)
	}
	return JournalReplica{
		OID:         uint64(entry.OID),
		TypeName:    entry.TypeName,
		Version:     entry.Version(),
		State:       state,
		Provider:    entry.Provider(),
		ClusterRoot: uint64(entry.ClusterRoot()),
		Frontier:    frontier,
	}, nil
}

// journalMaster reports entry's current image to the journal, if any.
func (e *Engine) journalMaster(entry *heap.Entry) error {
	j := e.getJournal()
	if j == nil {
		return nil
	}
	rec, err := e.MasterImage(entry)
	if err != nil {
		return err
	}
	return j.MasterChanged(rec)
}

// journalDirtyReplica reports a locally edited replica to the journal.
func (e *Engine) journalDirtyReplica(entry *heap.Entry) error {
	j := e.getJournal()
	if j == nil {
		return nil
	}
	rec, err := e.ReplicaImage(entry)
	if err != nil {
		return err
	}
	return j.ReplicaDirtied(rec)
}

// JournalDirty reports obj's current (locally edited) replica state to
// the journal, if one is installed — the exported form of the dirty-edit
// hook, for layers that mutate replica state outside the engine's own
// paths (the transaction manager journaling parked disconnected commits).
func (e *Engine) JournalDirty(obj any) error {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return fmt.Errorf("replication: journal dirty: %w: %T", heap.ErrUnknownObject, obj)
	}
	return e.journalDirtyReplica(entry)
}

// journalCleanReplica retracts a dirty record after a successful put or a
// refresh that overwrote the local edit.
func (e *Engine) journalCleanReplica(oid objmodel.OID, newVersion uint64) error {
	j := e.getJournal()
	if j == nil {
		return nil
	}
	return j.ReplicaCleaned(oid, newVersion)
}

// journalProxyIn records a proxy-in export.
func (e *Engine) journalProxyIn(oid objmodel.OID, id rmi.ObjID) error {
	j := e.getJournal()
	if j == nil {
		return nil
	}
	return j.ProxyInExported(oid, uint64(id))
}

// recoveryFrontierFor describes one outgoing reference for a durable
// record. Unlike frontierFor it NEVER exports a proxy-in: a reference to
// a local master gets no descriptor at all — recovery restores all masters
// first, so bindRefs finds those targets in the heap. Everything that
// leaves the site (replica providers, forwarded proxy-outs) is carried.
// This keeps journaling free of export side effects, which would both
// mutate the table being journaled and invert the compactor's lock order.
func (e *Engine) recoveryFrontierFor(ref *objmodel.Ref) (FrontierRef, error) {
	if !ref.IsResolved() {
		if pout, ok := ref.Faulter().(*ProxyOut); ok {
			return FrontierRef{OID: uint64(ref.OID()), Provider: pout.provider}, nil
		}
		return FrontierRef{}, nil
	}
	te, err := e.targetEntry(ref)
	if err != nil {
		return FrontierRef{}, err
	}
	// A provider-less replica is only reachable while live; after a
	// restart the reference must re-fault through the master, so there is
	// nothing durable to record for it either.
	if prov := te.Provider(); te.Role != heap.Master && !prov.IsZero() {
		return FrontierRef{OID: uint64(ref.OID()), Provider: prov}, nil
	}
	return FrontierRef{}, nil
}

// SeedAppliedPut restores a master's exactly-once guard during recovery.
func (e *Engine) SeedAppliedPut(oid objmodel.OID, base, crc, version uint64) {
	if base == 0 && crc == 0 && version == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.appliedPuts[oid] = appliedPut{base: base, crc: crc, version: version}
}

// RestoreProxyIn re-exports the proxy-in serving oid at the exact object
// id its previous incarnation used, so provider references held by remote
// replicas keep resolving after a restart.
func (e *Engine) RestoreProxyIn(oid objmodel.OID, id uint64) error {
	entry, ok := e.heap.Get(oid)
	if !ok {
		return fmt.Errorf("replication: restore proxy-in: %w: %v", heap.ErrUnknownObject, oid)
	}
	pin := &ProxyIn{eng: e, entry: entry}
	ref, err := e.rt.ExportWithID(rmi.ObjID(id), pin)
	if err != nil {
		return fmt.Errorf("replication: restore proxy-in %v at id %d: %w", oid, id, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.proxyIns[oid] = ref
	e.gc.ProxyInExported()
	return nil
}

// RestoreClusterMember re-registers a recovered replica's cluster
// membership so PutCluster can ship it after a restart. Only journaled
// (dirty) members are restored, so a recovered cluster ships as the dirty
// subset of its former self — the master applies each member
// individually, which is exactly what a partial ClusterPutRequest does.
func (e *Engine) RestoreClusterMember(root, member objmodel.OID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.clusters[root] {
		if m == member {
			return
		}
	}
	e.clusters[root] = append(e.clusters[root], member)
	e.inCluster[member] = root
}

// ProxyInIDs returns the current proxy-in export table (OID → RMI object
// id) for snapshotting.
func (e *Engine) ProxyInIDs() map[objmodel.OID]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[objmodel.OID]uint64, len(e.proxyIns))
	for oid, ref := range e.proxyIns {
		out[oid] = uint64(ref.ID)
	}
	return out
}
