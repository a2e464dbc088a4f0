package site

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/eventual"
	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/txn"
	"obiwan/internal/wal"
)

// Durability wires the replication engine's journal hooks to a wal.Store.
// Each engine mutation becomes one framed WAL record; recovery replays
// the snapshot plus log to rebuild the master heap, the dirty set, the
// proxy-in export table, and the name bindings of the previous
// incarnation. Records are last-state-wins per object, so replaying a
// stale log suffix over a snapshot (the compaction crash window) is
// idempotent.
//
// Documented deviations of a recovered site from its previous life:
//   - Cluster replicas recover as the dirty subset of their cluster; a
//     SyncDirty ships that subset through the cluster proxy-in, which the
//     master applies member-by-member.
//   - Only engine-managed exports come back: the well-known sinks (ids
//     1–3) occupy the same slots by construction and journaled proxy-ins
//     are re-exported at their recorded ids; application-level rt.Export
//     ids are not journaled.

// WAL record kinds (first uvarint of every record payload).
const (
	recMaster uint64 = 1 // full master image (last-wins per OID)
	recDirty  uint64 = 2 // dirty replica image (last-wins per OID)
	recClean  uint64 = 3 // retracts a dirty record
	recBind   uint64 = 4 // name binding (last-wins per name)
	recProxy  uint64 = 5 // proxy-in export id (last-wins per OID)

	recPending     uint64 = 6 // parked disconnected txn commit (last-wins per id)
	recPendingDone uint64 = 7 // retracts a parked-txn record
	recEventual    uint64 = 8 // one update-log event (replayed in order)
)

// compactThreshold is the log size that triggers background compaction.
const compactThreshold = 1 << 20

// The master, dirty-replica and update-log records are the journal types
// themselves — replication.JournalMaster, replication.JournalReplica and
// eventual.JournalRecord — encoded as they arrive; the record types below
// are the ones only this layer produces.

// walCleanRec retracts the dirty record for OID (edit reached the master).
type walCleanRec struct {
	OID     uint64
	Version uint64
}

// walBindRec records a name binding. The descriptor stays valid across
// restarts because recovery re-exports the proxy-in at the same id.
type walBindRec struct {
	Name string
	Desc replication.Descriptor
}

// walProxyRec records the RMI object id exporting OID's proxy-in.
type walProxyRec struct {
	OID uint64
	ID  uint64
}

// walPendingRec records a transaction commit parked by disconnection: the
// id plus its write set, enough to re-adopt the pending commit after a
// crash (the dirty state itself rides the ordinary recDirty records).
type walPendingRec struct {
	ID   uint64
	OIDs []uint64
}

// walPendingDoneRec retracts a parked-txn record (flushed or rolled back).
type walPendingDoneRec struct {
	ID uint64
}

func init() {
	codec.MustRegister("obiwan.site.walCleanRec", walCleanRec{})
	codec.MustRegister("obiwan.site.walBindRec", walBindRec{})
	codec.MustRegister("obiwan.site.walProxyRec", walProxyRec{})
	codec.MustRegister("obiwan.site.walPendingRec", walPendingRec{})
	codec.MustRegister("obiwan.site.walPendingDoneRec", walPendingDoneRec{})
}

// durability implements replication.Journal over a wal.Store.
//
// Lock ordering: the engine never calls the journal while holding its own
// locks, so d.mu may be taken freely here; the compactor takes d.mu FIRST
// and only then reads engine/heap state. No journal path takes engine
// locks while holding d.mu except compaction, which is safe because the
// engine's journal calls arrive lock-free.
type durability struct {
	site  *Site
	store *wal.Store
	reg   *codec.Registry

	mu       sync.Mutex
	bindings map[string]replication.Descriptor
	parked   map[uint64][]uint64 // live parked txns: id → sorted write OIDs

	compactC chan struct{}
	stopC    chan struct{}
	wg       sync.WaitGroup
}

var (
	_ replication.Journal = (*durability)(nil)
	_ eventual.Journal    = (*durability)(nil)
	_ txn.PendingJournal  = (*durability)(nil)
)

func newDurability(s *Site, store *wal.Store) *durability {
	return &durability{
		site:     s,
		store:    store,
		reg:      s.rt.Registry(),
		bindings: make(map[string]replication.Descriptor),
		parked:   make(map[uint64][]uint64),
		compactC: make(chan struct{}, 1),
		stopC:    make(chan struct{}),
	}
}

// encodeRec frames one record: kind uvarint + struct body.
func (d *durability) encodeRec(kind uint64, rec any) ([]byte, error) {
	enc := codec.NewEncoder(256)
	enc.WriteUvarint(kind)
	if err := enc.EncodeStruct(d.reg, rec); err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}

// append journals one record and pokes the compactor when the log has
// outgrown the threshold.
func (d *durability) append(kind uint64, rec any) error {
	payload, err := d.encodeRec(kind, rec)
	if err != nil {
		return fmt.Errorf("site: encode wal record: %w", err)
	}
	d.mu.Lock()
	err = d.store.Append(payload)
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("site: journal append: %w", err)
	}
	if d.store.LogSize() > compactThreshold {
		select {
		case d.compactC <- struct{}{}:
		default:
		}
	}
	return nil
}

// MasterChanged implements replication.Journal.
func (d *durability) MasterChanged(rec replication.JournalMaster) error {
	return d.append(recMaster, &rec)
}

// ReplicaDirtied implements replication.Journal.
func (d *durability) ReplicaDirtied(rec replication.JournalReplica) error {
	return d.append(recDirty, &rec)
}

// ReplicaCleaned implements replication.Journal.
func (d *durability) ReplicaCleaned(oid objmodel.OID, newVersion uint64) error {
	return d.append(recClean, &walCleanRec{OID: uint64(oid), Version: newVersion})
}

// ProxyInExported implements replication.Journal.
func (d *durability) ProxyInExported(oid objmodel.OID, id uint64) error {
	return d.append(recProxy, &walProxyRec{OID: uint64(oid), ID: id})
}

// AppendEventual implements eventual.Journal: one update-log event,
// write-ahead. Unlike the other record kinds these are event-sourced, not
// last-wins: recovery replays them in log order through
// eventual.Store.Recover. The store calls this without holding its state
// mutex, so the lock order stays d.mu → store.mu (compaction) with no
// inversion.
func (d *durability) AppendEventual(rec eventual.JournalRecord) error {
	return d.append(recEventual, &rec)
}

// TxnParked implements txn.PendingJournal: a disconnected commit joined
// the pending queue and must survive a crash.
func (d *durability) TxnParked(id uint64, writeOIDs []uint64) error {
	d.mu.Lock()
	d.parked[id] = append([]uint64(nil), writeOIDs...)
	d.mu.Unlock()
	return d.append(recPending, &walPendingRec{ID: id, OIDs: writeOIDs})
}

// TxnResolved implements txn.PendingJournal: the parked commit flushed or
// rolled back.
func (d *durability) TxnResolved(id uint64) error {
	d.mu.Lock()
	delete(d.parked, id)
	d.mu.Unlock()
	return d.append(recPendingDone, &walPendingDoneRec{ID: id})
}

// parkedTxn is one recovered parked commit, for adoption by TxnManager.
type parkedTxn struct {
	id   uint64
	oids []uint64
}

// parkedSnapshot returns the live parked txns in id order.
func (d *durability) parkedSnapshot() []parkedTxn {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]parkedTxn, 0, len(d.parked))
	for _, id := range sortedKeys(d.parked) {
		out = append(out, parkedTxn{id: id, oids: append([]uint64(nil), d.parked[id]...)})
	}
	return out
}

// journalBind records a successful name binding.
func (d *durability) journalBind(name string, desc replication.Descriptor) error {
	d.mu.Lock()
	d.bindings[name] = desc
	d.mu.Unlock()
	return d.append(recBind, &walBindRec{Name: name, Desc: desc})
}

// recoveredState is the decoded, last-wins-folded content of a WAL.
type recoveredState struct {
	masters  map[uint64]replication.JournalMaster
	dirty    map[uint64]replication.JournalReplica
	bindings map[string]replication.Descriptor
	proxyIns map[uint64]uint64
	parked   map[uint64][]uint64
	eventual []eventual.JournalRecord // in log order, NOT folded
}

// sortedKeys returns m's keys in ascending order: recovery and snapshots
// walk every last-wins table in key order so both are deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// foldRecords decodes raw WAL records (snapshot first, then log) into the
// last-state-wins view of the previous incarnation.
func (d *durability) foldRecords(raw [][]byte) (*recoveredState, error) {
	st := &recoveredState{
		masters:  make(map[uint64]replication.JournalMaster),
		dirty:    make(map[uint64]replication.JournalReplica),
		bindings: make(map[string]replication.Descriptor),
		proxyIns: make(map[uint64]uint64),
		parked:   make(map[uint64][]uint64),
	}
	for i, payload := range raw {
		if err := d.foldRecord(st, payload); err != nil {
			return nil, fmt.Errorf("site: wal record %d: %w", i, err)
		}
	}
	return st, nil
}

// foldRecord decodes one record (kind uvarint + struct body) into st.
func (d *durability) foldRecord(st *recoveredState, payload []byte) error {
	dec := codec.NewDecoder(payload)
	kind, err := dec.ReadUvarint()
	if err != nil {
		return err
	}
	body := func(rec any) bool {
		err = dec.DecodeStruct(d.reg, rec)
		return err == nil
	}
	switch kind {
	case recMaster:
		var rec replication.JournalMaster
		if body(&rec) {
			st.masters[rec.OID] = rec
		}
	case recDirty:
		var rec replication.JournalReplica
		if body(&rec) {
			st.dirty[rec.OID] = rec
		}
	case recClean:
		var rec walCleanRec
		if body(&rec) {
			delete(st.dirty, rec.OID)
		}
	case recBind:
		var rec walBindRec
		if body(&rec) {
			st.bindings[rec.Name] = rec.Desc
		}
	case recProxy:
		var rec walProxyRec
		if body(&rec) {
			st.proxyIns[rec.OID] = rec.ID
		}
	case recPending:
		var rec walPendingRec
		if body(&rec) {
			st.parked[rec.ID] = rec.OIDs
		}
	case recPendingDone:
		var rec walPendingDoneRec
		if body(&rec) {
			delete(st.parked, rec.ID)
		}
	case recEventual:
		var rec eventual.JournalRecord
		if body(&rec) {
			st.eventual = append(st.eventual, rec)
		}
	default:
		return fmt.Errorf("unknown kind %d", kind)
	}
	return err
}

// recover rebuilds the previous incarnation from recovered WAL records:
// masters first (create, then restore state + references), then dirty
// replicas, then proxy-in exports at their recorded ids, then name
// re-registration. Must run before the journal is installed on the
// engine — recovery itself is not re-journaled; the post-recovery
// compaction snapshot captures the rebuilt state instead.
func (d *durability) recover(raw [][]byte) error {
	st, err := d.foldRecords(raw)
	if err != nil {
		return err
	}
	eng, h := d.site.engine, d.site.heap

	// Pass 1: masters exist before anything binds references to them.
	masterOIDs := sortedKeys(st.masters)
	for _, oid := range masterOIDs {
		rec := st.masters[oid]
		info, ok := objmodel.InfoByName(rec.TypeName)
		if !ok {
			return fmt.Errorf("site: recover master %d: unknown type %q", rec.OID, rec.TypeName)
		}
		if err := h.AddMasterWithOID(info.New(), objmodel.OID(rec.OID), rec.TypeName, rec.Version); err != nil {
			return fmt.Errorf("site: recover master %d: %w", rec.OID, err)
		}
	}
	// Pass 2: state + reference binding (local targets resolve from the
	// heap; off-site targets through frontier proxy-outs).
	for _, oid := range masterOIDs {
		rec := st.masters[oid]
		entry, _ := h.Get(objmodel.OID(rec.OID))
		if err := eng.RestoreWithFrontier(entry.Obj, rec.State, rec.Frontier); err != nil {
			return fmt.Errorf("site: restore master %d: %w", rec.OID, err)
		}
		eng.SeedAppliedPut(objmodel.OID(rec.OID), rec.AppliedBase, rec.AppliedCRC, rec.AppliedVersion)
	}

	// Dirty replicas: the offline edits the crash must not lose.
	for _, oid := range sortedKeys(st.dirty) {
		rec := st.dirty[oid]
		info, ok := objmodel.InfoByName(rec.TypeName)
		if !ok {
			return fmt.Errorf("site: recover replica %d: unknown type %q", rec.OID, rec.TypeName)
		}
		entry, _ := h.AddReplica(info.New(), objmodel.OID(rec.OID), rec.TypeName, rec.Version)
		entry.Touch(d.site.rt.Clock().Now())
		entry.SetProvider(rec.Provider, objmodel.OID(rec.ClusterRoot))
		if rec.ClusterRoot != 0 {
			eng.RestoreClusterMember(objmodel.OID(rec.ClusterRoot), objmodel.OID(rec.OID))
		}
		if err := eng.RestoreWithFrontier(entry.Obj, rec.State, rec.Frontier); err != nil {
			return fmt.Errorf("site: restore replica %d: %w", rec.OID, err)
		}
		entry.SetDirty(true)
	}

	// Proxy-ins, in OID order for determinism. A record whose entry did
	// not survive (a live replica that served onward replication) is
	// skipped: its remote holders re-fault exactly as they would against
	// a non-durable site.
	for _, oid := range sortedKeys(st.proxyIns) {
		if _, ok := h.Get(objmodel.OID(oid)); !ok {
			continue
		}
		if err := eng.RestoreProxyIn(objmodel.OID(oid), st.proxyIns[oid]); err != nil {
			return err
		}
	}

	// Update log last: its base records may re-create heap entries, and
	// its replays read whatever master/replica state the passes above
	// rebuilt. Replay runs in log order (event-sourced) through the same
	// ingest path live sync uses.
	if len(st.eventual) > 0 {
		ev := d.site.eventual
		if ev == nil {
			return fmt.Errorf("site: wal holds %d update-log records but the site was built without WithEventual", len(st.eventual))
		}
		if err := ev.Recover(st.eventual); err != nil {
			return fmt.Errorf("site: recover update log: %w", err)
		}
	}

	// Parked disconnected commits: kept here until TxnManager adopts them.
	d.mu.Lock()
	for id, oids := range st.parked {
		d.parked[id] = oids
	}
	d.mu.Unlock()

	// Re-register bindings. Bind (not Rebind) on purpose: the nameserver
	// recognizes the same provider address as the owner coming back.
	d.mu.Lock()
	for name, desc := range st.bindings {
		d.bindings[name] = desc
	}
	d.mu.Unlock()
	if d.site.ns != nil {
		for _, name := range sortedKeys(st.bindings) {
			if err := d.site.ns.Bind(name, st.bindings[name]); err != nil {
				return fmt.Errorf("site: re-bind %q: %w", name, err)
			}
		}
	}
	return nil
}

// snapshotRecords serializes the site's full durable state for compaction:
// the same records the journal hooks append, built by the same functions.
// Caller holds d.mu.
func (d *durability) snapshotRecords() ([][]byte, error) {
	eng := d.site.engine
	var out [][]byte
	add := func(kind uint64, rec any) error {
		payload, err := d.encodeRec(kind, rec)
		if err == nil {
			out = append(out, payload)
		}
		return err
	}
	entries := d.site.heap.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].OID < entries[j].OID })
	for _, en := range entries {
		var err error
		switch {
		case en.Role == heap.Master:
			var rec replication.JournalMaster
			if rec, err = eng.MasterImage(en); err == nil {
				err = add(recMaster, &rec)
			}
		case en.Dirty():
			var rec replication.JournalReplica
			if rec, err = eng.ReplicaImage(en); err == nil {
				err = add(recDirty, &rec)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("site: snapshot %v: %w", en.OID, err)
		}
	}
	proxyIns := eng.ProxyInIDs()
	for _, oid := range sortedKeys(proxyIns) {
		if err := add(recProxy, &walProxyRec{OID: uint64(oid), ID: proxyIns[oid]}); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedKeys(d.bindings) {
		if err := add(recBind, &walBindRec{Name: name, Desc: d.bindings[name]}); err != nil {
			return nil, err
		}
	}
	for _, id := range sortedKeys(d.parked) {
		if err := add(recPending, &walPendingRec{ID: id, OIDs: d.parked[id]}); err != nil {
			return nil, err
		}
	}
	if ev := d.site.eventual; ev != nil {
		// Lock order d.mu → store.mu, same as every compaction read of
		// engine state; the store never journals while holding store.mu.
		for _, rec := range ev.SnapshotRecords() {
			if err := add(recEventual, &rec); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// compactNow snapshots current state and truncates the log. Safe against
// concurrent journaling: d.mu blocks appends for the duration, so no
// record can land between the snapshot capture and the truncate.
func (d *durability) compactNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	records, err := d.snapshotRecords()
	if err != nil {
		return err
	}
	if err := d.store.Compact(records); err != nil {
		return err
	}
	d.site.met.compactions.Inc()
	return nil
}

// startCompactor launches the background compaction goroutine.
func (d *durability) startCompactor() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-d.stopC:
				return
			case <-d.compactC:
				// Best-effort: a failed compaction leaves the log intact
				// and will be retried at the next threshold crossing.
				_ = d.compactNow()
			}
		}
	}()
}

// stop halts the compactor and waits for it to drain.
func (d *durability) stop() {
	close(d.stopC)
	d.wg.Wait()
}
