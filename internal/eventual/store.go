package eventual

import (
	"fmt"
	"sort"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/telemetry"
)

// Journal is the store's durability hook: each log mutation becomes one
// kind-tagged record appended write-ahead (the site layer frames them into
// its WAL). A nil journal keeps the store memory-only.
//
// Lock ordering: the store NEVER calls the journal while holding its state
// mutex, so the journal may freely call back into Store read methods
// (SnapshotRecords during compaction). A dedicated journal mutex keeps the
// record order consistent with the mutation order.
type Journal interface {
	AppendEventual(rec JournalRecord) error
}

// JournalRecord is one durable event of the update log.
type JournalRecord struct {
	Kind    uint64
	Payload []byte
}

// Journal record kinds.
const (
	// JBase enrolls (or re-bases) one tracked object: identity, committed
	// state, commit frontier, committed-history vector.
	JBase uint64 = 1
	// JUpdate is one update-log record (EncodeRecord format, CSN as known
	// at journal time).
	JUpdate uint64 = 2
	// JCommit assigns a CSN to a previously journaled update.
	JCommit uint64 = 3
	// JTruncate drops committed records at or below a CSN.
	JTruncate uint64 = 4
	// JMeta persists the store-wide version vector (journaled at
	// truncation and in compaction snapshots, so recovered clocks never
	// regress below ids that were minted then truncated).
	JMeta uint64 = 5
)

// VVPair is one version-vector component on the wire and in the journal.
type VVPair struct {
	Site  uint64
	Clock uint64
}

// journal payload structs (codec-registered).
type baseRec struct {
	OID      uint64
	TypeName string
	Primary  bool
	State    []byte
	CSN      uint64
	Hist     []VVPair
}

// CommitRec assigns one commit sequence number; it travels both in the
// journal and in anti-entropy batches.
type CommitRec struct {
	OID   uint64
	Clock uint64
	Site  uint64
	CSN   uint64
}

type truncRec struct {
	OID      uint64
	BelowCSN uint64
}

type metaRec struct {
	VV []VVPair
}

func init() {
	codec.MustRegister("obiwan.eventual.baseRec", baseRec{})
	codec.MustRegister("obiwan.eventual.CommitRec", CommitRec{})
	codec.MustRegister("obiwan.eventual.truncRec", truncRec{})
	codec.MustRegister("obiwan.eventual.metaRec", metaRec{})
}

// stormThreshold is the replayed-updates count in a single reorder above
// which the store flags a rollback storm to the flight recorder.
const stormThreshold = 32

// tracked is the store's view of one enrolled object.
type tracked struct {
	oid      objmodel.OID
	typeName string
	// primary: this site's heap masters the object, so this store assigns
	// its commit sequence numbers.
	primary bool
	// committedState is the object's state after the full committed
	// prefix — the rollback point.
	committedState []byte
	// frontier is the highest committed CSN reflected in committedState.
	frontier uint64
	// floor is the truncation watermark: committed updates with CSN <=
	// floor have been dropped from the retained list (their effect lives
	// only in committedState).
	floor uint64
	// committed retains updates with CSN in (floor, frontier], CSN order,
	// for shipping to lagging peers.
	committed []*Update
	// tentative holds uncommitted updates in UpdateID order; the live
	// object is committedState plus this suffix.
	tentative []*Update
	// hist is the committed-history vector: per minting site, the highest
	// clock among ALL updates ever committed for this object (including
	// truncated ones). An incoming update with ID.Clock <= hist[ID.Site]
	// is already folded into committedState (per-origin prefix delivery
	// plus commit-on-receipt at the primary guarantee this).
	hist map[uint16]uint64
}

// knows reports whether id is already present (retained or folded).
func (t *tracked) knows(id UpdateID) bool {
	if id.Clock <= t.hist[id.Site] {
		return true
	}
	for _, u := range t.committed {
		if u.ID == id {
			return true
		}
	}
	for _, u := range t.tentative {
		if u.ID == id {
			return true
		}
	}
	return false
}

// find returns the retained update with id, if any.
func (t *tracked) find(id UpdateID) *Update {
	for _, u := range t.tentative {
		if u.ID == id {
			return u
		}
	}
	for _, u := range t.committed {
		if u.ID == id {
			return u
		}
	}
	return nil
}

// StoreStats is a snapshot of the store's lifetime counters.
type StoreStats struct {
	Tentative uint64 // updates appended or received tentatively
	Committed uint64 // commit positions applied
	Rollbacks uint64 // rollback/replay events where applied order changed
	Replayed  uint64 // tentative updates re-applied during rollbacks
	NoOps     uint64 // update functions that declined (returned an error)
	Truncated uint64 // committed records dropped below the fleet frontier
}

// Store is one site's weakly-connected replication state: the ordered
// update log, per-object committed/tentative division, the version
// vector, and the peer commit-frontier table driving log truncation.
type Store struct {
	eng  *replication.Engine
	site uint16
	name string
	hub  *telemetry.Hub // nil-safe

	// jmu serializes mutate+journal pairs so journal order matches
	// mutation order; held across both, never while applying nothing.
	jmu     sync.Mutex
	journal Journal

	mu    sync.Mutex
	clock uint64
	vv    map[uint16]uint64
	objs  map[objmodel.OID]*tracked
	// peerFrontiers: peer site name -> oid -> committed frontier that peer
	// acknowledged, feeding fleet-wide truncation.
	peerFrontiers map[string]map[uint64]uint64
	stats         StoreStats

	met struct {
		tentative *telemetry.Counter
		committed *telemetry.Counter
		rollbacks *telemetry.Counter
		replayed  *telemetry.Counter
		sessions  *telemetry.Counter
		shipped   *telemetry.Counter
		truncated *telemetry.Counter
	}
}

// NewStore builds the eventual-consistency store over a site's engine.
// name is the site's name (peer-table key and flight-event tag); hub may
// be nil.
func NewStore(name string, eng *replication.Engine, hub *telemetry.Hub) *Store {
	s := &Store{
		eng:           eng,
		site:          eng.Heap().SiteID(),
		name:          name,
		hub:           hub,
		vv:            make(map[uint16]uint64),
		objs:          make(map[objmodel.OID]*tracked),
		peerFrontiers: make(map[string]map[uint64]uint64),
	}
	if m := hub.Metrics(); m != nil {
		s.met.tentative = m.Counter("eventual.tentative")
		s.met.committed = m.Counter("eventual.committed")
		s.met.rollbacks = m.Counter("eventual.rollbacks")
		s.met.replayed = m.Counter("eventual.replayed")
		s.met.sessions = m.Counter("eventual.sync.sessions")
		s.met.shipped = m.Counter("eventual.sync.shipped")
		s.met.truncated = m.Counter("eventual.truncated")
	}
	return s
}

// SetJournal installs (or clears) the durability journal. Install before
// any tracked mutation; recovery runs with the journal still unset.
func (s *Store) SetJournal(j Journal) {
	s.jmu.Lock()
	s.journal = j
	s.jmu.Unlock()
}

// Track enrolls obj — which must already live in the site's heap, as a
// master (making this site the object's primary) or a replica — into the
// update log. Its current state becomes the committed base at frontier 0,
// so every site must Track from an identical state (replicate first, then
// Track). Tracking an already tracked object is a no-op.
func (s *Store) Track(obj any) error {
	entry, ok := s.eng.Heap().EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	if _, dup := s.objs[entry.OID]; dup {
		s.mu.Unlock()
		return nil
	}
	state, err := s.eng.CaptureSnapshot(obj)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("eventual: track %v: %w", entry.OID, err)
	}
	t := &tracked{
		oid:            entry.OID,
		typeName:       entry.TypeName,
		primary:        entry.Role == heap.Master,
		committedState: state,
		hist:           make(map[uint16]uint64),
	}
	s.objs[entry.OID] = t
	rec := s.encodeBase(t)
	s.mu.Unlock()
	return s.journalLocked([]JournalRecord{rec})
}

// Managed reports whether oid is enrolled in the update log. Safe for use
// as a consistency-policy predicate (consistency.Tentative).
func (s *Store) Managed(oid objmodel.OID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objs[oid]
	return ok
}

// Tracked returns the enrolled OIDs in sorted order.
func (s *Store) Tracked() []objmodel.OID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]objmodel.OID, 0, len(s.objs))
	for oid := range s.objs {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Append creates a local update — fn(args) against obj — stamps it with
// the next logical clock, applies it tentatively, and (if this site is
// the object's primary) commits it immediately. This is the whole
// disconnected-write path: it never touches the network and never fails
// for connectivity reasons.
func (s *Store) Append(obj any, fn string, args []byte) (UpdateID, error) {
	entry, ok := s.eng.Heap().EntryOf(obj)
	if !ok {
		return UpdateID{}, heap.ErrUnknownObject
	}
	if _, err := lookupUpdate(fn); err != nil {
		return UpdateID{}, err
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	t, tracked := s.objs[entry.OID]
	if !tracked {
		s.mu.Unlock()
		return UpdateID{}, fmt.Errorf("%w: %v", ErrNotTracked, entry.OID)
	}
	s.clock++
	u := &Update{
		ID:   UpdateID{Clock: s.clock, Site: s.site},
		OID:  uint64(entry.OID),
		Fn:   fn,
		Args: args,
	}
	s.vv[s.site] = s.clock
	recs, err := s.ingestLocked(t, []*Update{u}, nil)
	if err != nil {
		s.mu.Unlock()
		return UpdateID{}, err
	}
	s.mu.Unlock()
	if err := s.journalLocked(recs); err != nil {
		return UpdateID{}, err
	}
	return u.ID, nil
}

// ingestLocked folds new updates and commit records into one object's
// log and rebuilds its live state. Caller holds s.mu (and s.jmu). The
// returned journal records must be appended by the caller after releasing
// s.mu. Validation runs before any mutation, so an error leaves the
// object untouched.
func (s *Store) ingestLocked(t *tracked, updates []*Update, commits []CommitRec) ([]JournalRecord, error) {
	// ---- Phase A: validate and plan (no mutation). ----
	var fresh []*Update
	for _, u := range updates {
		if _, err := lookupUpdate(u.Fn); err != nil {
			return nil, err
		}
		if t.knows(u.ID) {
			continue
		}
		fresh = append(fresh, u)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID.Less(fresh[j].ID) })

	// The commit queue: explicit commit records plus fresh pre-committed
	// updates, ordered by CSN, checked for contiguity above the frontier.
	type commitPlan struct {
		id  UpdateID
		csn uint64
	}
	var queue []commitPlan
	for _, c := range commits {
		queue = append(queue, commitPlan{id: UpdateID{Clock: c.Clock, Site: uint16(c.Site)}, csn: c.CSN})
	}
	for _, u := range fresh {
		if u.CSN != 0 {
			queue = append(queue, commitPlan{id: u.ID, csn: u.CSN})
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].csn < queue[j].csn })
	next := t.frontier
	var toCommit []commitPlan
	for _, c := range queue {
		if c.csn <= next {
			continue // already reflected
		}
		if c.csn != next+1 {
			return nil, fmt.Errorf("%w: %v csn %d after frontier %d", ErrCommitGap, t.oid, c.csn, next)
		}
		// The referenced update must be present: fresh or retained.
		found := t.find(c.id) != nil
		for _, u := range fresh {
			if u.ID == c.id {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %v csn %d commits unknown update %v", ErrCommitGap, t.oid, c.csn, c.id)
		}
		toCommit = append(toCommit, c)
		next = c.csn
	}

	// ---- Phase B: list surgery. ----
	appendOnly := true
	for _, u := range fresh {
		v := *u
		v.CSN = 0
		if n := len(t.tentative); n > 0 && !t.tentative[n-1].ID.Less(v.ID) {
			appendOnly = false
		}
		t.tentative = append(t.tentative, &v)
		s.stats.Tentative++
		s.met.tentative.Inc()
		if v.ID.Clock > s.vv[v.ID.Site] {
			s.vv[v.ID.Site] = v.ID.Clock
		}
		if v.ID.Clock > s.clock {
			s.clock = v.ID.Clock
		}
	}
	sort.Slice(t.tentative, func(i, j int) bool { return t.tentative[i].ID.Less(t.tentative[j].ID) })

	commitSet := make(map[UpdateID]uint64, len(toCommit))
	for _, c := range toCommit {
		commitSet[c.id] = c.csn
	}
	var committing []*Update
	if len(toCommit) > 0 {
		rest := t.tentative[:0]
		for _, u := range t.tentative {
			if csn, ok := commitSet[u.ID]; ok {
				u.CSN = csn
				committing = append(committing, u)
				continue
			}
			rest = append(rest, u)
		}
		t.tentative = rest
		sort.Slice(committing, func(i, j int) bool { return committing[i].CSN < committing[j].CSN })
	}

	// Primary commit: whatever remains tentative at the primary commits
	// now, in log (UpdateID) order — Bayou's commit-on-receipt.
	if t.primary {
		for _, u := range t.tentative {
			u.CSN = next + 1
			next = u.CSN
			committing = append(committing, u)
		}
		t.tentative = t.tentative[:0]
	}

	// ---- Phase C: state rebuild. ----
	entry, ok := s.eng.Heap().Get(t.oid)
	if !ok {
		return nil, fmt.Errorf("eventual: tracked object %v missing from heap", t.oid)
	}
	switch {
	case len(committing) > 0:
		// The committed prefix advances: roll back to it, extend it, then
		// replay the tentative suffix.
		if err := s.eng.RestoreSnapshot(entry.Obj, t.committedState); err != nil {
			return nil, fmt.Errorf("eventual: rollback %v: %w", t.oid, err)
		}
		for _, u := range committing {
			s.applyFn(entry, u)
			t.committed = append(t.committed, u)
			t.frontier = u.CSN
			if u.ID.Clock > t.hist[u.ID.Site] {
				t.hist[u.ID.Site] = u.ID.Clock
			}
			s.stats.Committed++
			s.met.committed.Inc()
		}
		state, err := s.eng.CaptureSnapshot(entry.Obj)
		if err != nil {
			return nil, fmt.Errorf("eventual: capture committed %v: %w", t.oid, err)
		}
		t.committedState = state
		s.replaySuffix(entry, t)
	case !appendOnly:
		// Earlier-ordered tentative updates arrived: full rollback/replay.
		if err := s.eng.RestoreSnapshot(entry.Obj, t.committedState); err != nil {
			return nil, fmt.Errorf("eventual: rollback %v: %w", t.oid, err)
		}
		s.replaySuffix(entry, t)
	default:
		// Fast path: new updates extend the applied order — apply in place.
		for _, u := range fresh {
			if v := t.find(u.ID); v != nil {
				s.applyFn(entry, v)
			}
		}
	}

	// ---- Phase D: journal records (appended by caller, post-unlock). ----
	var recs []JournalRecord
	for _, u := range fresh {
		recs = append(recs, JournalRecord{Kind: JUpdate, Payload: EncodeRecord(t.find(u.ID))})
	}
	for _, c := range toCommit {
		freshToo := false
		for _, u := range fresh {
			if u.ID == c.id {
				freshToo = true // CSN already rode the JUpdate record
			}
		}
		if !freshToo {
			recs = append(recs, s.encodeCommit(t.oid, c.id, c.csn))
		}
	}
	if t.primary {
		for _, u := range committing {
			if _, planned := commitSet[u.ID]; planned {
				continue // arrived pre-committed; handled above
			}
			freshToo := false
			for _, f := range fresh {
				if f.ID == u.ID {
					freshToo = true
				}
			}
			if !freshToo {
				recs = append(recs, s.encodeCommit(t.oid, u.ID, u.CSN))
			}
		}
	}
	return recs, nil
}

// replaySuffix re-applies the whole tentative suffix after a rollback and
// accounts for the reorder.
func (s *Store) replaySuffix(entry *heap.Entry, t *tracked) {
	for _, u := range t.tentative {
		s.applyFn(entry, u)
	}
	s.stats.Rollbacks++
	s.met.rollbacks.Inc()
	n := uint64(len(t.tentative))
	s.stats.Replayed += n
	s.met.replayed.Add(n)
	if n > stormThreshold {
		if f := s.hub.Flight(); f != nil {
			at := s.eng.Runtime().Clock().Now()
			f.Record(telemetry.FlightEvent{
				AtNS: at.UnixNano(), Kind: "eventual.rollback-storm",
				OID:    uint64(t.oid),
				Detail: fmt.Sprintf("replayed=%d tentative updates after reorder", n),
			})
			f.Dump("eventual rollback storm", at)
		}
	}
}

// applyFn runs one update function against the live object. A function
// error is a *deterministic decline* — the update stays in the log and
// declines identically at every site — not an infrastructure failure.
func (s *Store) applyFn(entry *heap.Entry, u *Update) {
	fn, err := lookupUpdate(u.Fn)
	if err != nil {
		// Validated at ingest; losing the registration mid-run would
		// diverge, so treat as a decline and count it.
		s.stats.NoOps++
		return
	}
	entry.LockState()
	err = fn(entry.Obj, u.Args)
	entry.UnlockState()
	if err != nil {
		s.stats.NoOps++
	}
}

// CommittedState returns the object's committed-prefix state bytes and
// commit frontier — the stable, everywhere-identical part of its history.
func (s *Store) CommittedState(oid objmodel.OID) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.objs[oid]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %v", ErrNotTracked, oid)
	}
	out := make([]byte, len(t.committedState))
	copy(out, t.committedState)
	return out, t.frontier, nil
}

// TentativeCount returns how many updates for oid remain uncommitted.
func (s *Store) TentativeCount(oid objmodel.OID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.objs[oid]
	if !ok {
		return 0
	}
	return len(t.tentative)
}

// VersionVector returns the store's version vector, sorted by site.
func (s *Store) VersionVector() []VVPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vvLocked()
}

func (s *Store) vvLocked() []VVPair {
	out := make([]VVPair, 0, len(s.vv))
	for site, clock := range s.vv {
		out = append(out, VVPair{Site: uint64(site), Clock: clock})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Stats returns the store's lifetime counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// journalLocked appends records in order. Caller holds s.jmu but NOT
// s.mu (the journal may re-enter Store read methods).
func (s *Store) journalLocked(recs []JournalRecord) error {
	if s.journal == nil || len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if err := s.journal.AppendEventual(rec); err != nil {
			return fmt.Errorf("eventual: journal: %w", err)
		}
	}
	return nil
}

func (s *Store) encodeBase(t *tracked) JournalRecord {
	rec := &baseRec{
		OID:      uint64(t.oid),
		TypeName: t.typeName,
		Primary:  t.primary,
		State:    t.committedState,
		CSN:      t.frontier,
		Hist:     histPairs(t.hist),
	}
	return JournalRecord{Kind: JBase, Payload: s.encodePayload(rec)}
}

func (s *Store) encodeCommit(oid objmodel.OID, id UpdateID, csn uint64) JournalRecord {
	rec := &CommitRec{OID: uint64(oid), Clock: id.Clock, Site: uint64(id.Site), CSN: csn}
	return JournalRecord{Kind: JCommit, Payload: s.encodePayload(rec)}
}

func (s *Store) encodeMetaLocked() JournalRecord {
	return JournalRecord{Kind: JMeta, Payload: s.encodePayload(&metaRec{VV: s.vvLocked()})}
}

func (s *Store) encodePayload(rec any) []byte {
	enc := codec.NewEncoder(128)
	if err := enc.EncodeStruct(s.reg(), rec); err != nil {
		// Registered flat structs over the reflection codec cannot fail;
		// a failure here is a programming error.
		panic(fmt.Sprintf("eventual: encode journal payload: %v", err))
	}
	return enc.Bytes()
}

func (s *Store) reg() *codec.Registry { return s.eng.Runtime().Registry() }

func histPairs(h map[uint16]uint64) []VVPair {
	out := make([]VVPair, 0, len(h))
	for site, clock := range h {
		out = append(out, VVPair{Site: uint64(site), Clock: clock})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// RecordPeerFrontiers notes the commit frontiers peer acknowledged in a
// sync session, feeding fleet-wide truncation.
func (s *Store) RecordPeerFrontiers(peer string, frontiers []FrontierCSN) {
	if peer == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.peerFrontiers[peer]
	if !ok {
		m = make(map[uint64]uint64)
		s.peerFrontiers[peer] = m
	}
	for _, f := range frontiers {
		if f.CSN > m[f.OID] {
			m[f.OID] = f.CSN
		}
	}
}

// TruncateCommitted drops retained committed records at or below the
// fleet-wide commit frontier — the minimum frontier acknowledged across
// every peer this store has synced with (and its own). With no recorded
// peers nothing is dropped. Returns the number of records dropped.
//
// A peer that somehow regresses below the truncation floor (or a brand-new
// peer) is caught up with a full-state base sync instead of a log diff
// (see BuildBatch).
func (s *Store) TruncateCommitted() (int, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	if len(s.peerFrontiers) == 0 {
		s.mu.Unlock()
		return 0, nil
	}
	var recs []JournalRecord
	dropped := 0
	for oid, t := range s.objs {
		fleet := t.frontier
		for _, m := range s.peerFrontiers {
			if m[uint64(oid)] < fleet {
				fleet = m[uint64(oid)]
			}
		}
		if fleet <= t.floor {
			continue
		}
		keep := t.committed[:0]
		for _, u := range t.committed {
			if u.CSN <= fleet {
				dropped++
				continue
			}
			keep = append(keep, u)
		}
		t.committed = keep
		t.floor = fleet
		recs = append(recs, JournalRecord{Kind: JTruncate, Payload: s.encodePayload(&truncRec{OID: uint64(oid), BelowCSN: fleet})})
	}
	if dropped > 0 {
		s.stats.Truncated += uint64(dropped)
		s.met.truncated.Add(uint64(dropped))
		recs = append(recs, s.encodeMetaLocked())
	}
	s.mu.Unlock()
	if err := s.journalLocked(recs); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// SnapshotRecords serializes the store's full durable state for WAL
// compaction: the version vector, then per object its base (committed
// state at the frontier) and the retained log (committed with CSNs, then
// tentative). Safe to call from the compactor while mutations journal
// concurrently — replaying a stale log suffix over this snapshot is
// idempotent (updates dedupe by id, commits by CSN).
func (s *Store) SnapshotRecords() []JournalRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := []JournalRecord{s.encodeMetaLocked()}
	oids := make([]objmodel.OID, 0, len(s.objs))
	for oid := range s.objs {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		t := s.objs[oid]
		recs = append(recs, s.encodeBase(t))
		for _, u := range t.committed {
			recs = append(recs, JournalRecord{Kind: JUpdate, Payload: EncodeRecord(u)})
		}
		for _, u := range t.tentative {
			recs = append(recs, JournalRecord{Kind: JUpdate, Payload: EncodeRecord(u)})
		}
	}
	return recs
}

// Recover replays journal records (in append order) into a fresh store,
// recreating tracked heap entries that did not survive by other means.
// Must run before SetJournal — recovery is not re-journaled; the
// post-recovery compaction snapshot captures the rebuilt state instead.
func (s *Store) Recover(recs []JournalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		if err := s.recoverOne(rec); err != nil {
			return fmt.Errorf("eventual: recover record %d: %w", i, err)
		}
	}
	return nil
}

func (s *Store) recoverOne(rec JournalRecord) error {
	switch rec.Kind {
	case JBase:
		var b baseRec
		if err := codec.NewDecoder(rec.Payload).DecodeStruct(s.reg(), &b); err != nil {
			return err
		}
		return s.recoverBase(&b)
	case JUpdate:
		u, err := DecodeRecord(rec.Payload)
		if err != nil {
			return err
		}
		t, ok := s.objs[objmodel.OID(u.OID)]
		if !ok {
			return fmt.Errorf("%w: update %v for untracked %d", ErrNotTracked, u.ID, u.OID)
		}
		if u.CSN != 0 && u.CSN <= t.frontier {
			// Retained history below the base frontier: list-only restore,
			// its effect is already inside the recovered committed state.
			if !t.knows(u.ID) {
				t.committed = append(t.committed, u)
				sort.Slice(t.committed, func(i, j int) bool { return t.committed[i].CSN < t.committed[j].CSN })
				if u.ID.Clock > t.hist[u.ID.Site] {
					t.hist[u.ID.Site] = u.ID.Clock
				}
				s.bumpVVLocked(u.ID)
			}
			return nil
		}
		_, err = s.ingestLocked(t, []*Update{u}, nil)
		return err
	case JCommit:
		var c CommitRec
		if err := codec.NewDecoder(rec.Payload).DecodeStruct(s.reg(), &c); err != nil {
			return err
		}
		t, ok := s.objs[objmodel.OID(c.OID)]
		if !ok {
			return fmt.Errorf("%w: commit csn %d for untracked %d", ErrNotTracked, c.CSN, c.OID)
		}
		_, err := s.ingestLocked(t, nil, []CommitRec{c})
		return err
	case JTruncate:
		var tr truncRec
		if err := codec.NewDecoder(rec.Payload).DecodeStruct(s.reg(), &tr); err != nil {
			return err
		}
		t, ok := s.objs[objmodel.OID(tr.OID)]
		if !ok {
			return nil
		}
		keep := t.committed[:0]
		for _, u := range t.committed {
			if u.CSN <= tr.BelowCSN {
				continue
			}
			keep = append(keep, u)
		}
		t.committed = keep
		if tr.BelowCSN > t.floor {
			t.floor = tr.BelowCSN
		}
		return nil
	case JMeta:
		var m metaRec
		if err := codec.NewDecoder(rec.Payload).DecodeStruct(s.reg(), &m); err != nil {
			return err
		}
		for _, p := range m.VV {
			s.bumpVVLocked(UpdateID{Clock: p.Clock, Site: uint16(p.Site)})
		}
		return nil
	default:
		return fmt.Errorf("eventual: unknown journal record kind %d", rec.Kind)
	}
}

// recoverBase replays one base record: the heap entry and the tracked
// record are recreated if they did not survive by other means, then the
// object re-anchors through the routine live sync uses.
func (s *Store) recoverBase(b *baseRec) error {
	oid := objmodel.OID(b.OID)
	h := s.eng.Heap()
	if _, ok := h.Get(oid); !ok {
		info, known := objmodel.InfoByName(b.TypeName)
		if !known {
			return fmt.Errorf("eventual: recover base %d: unknown type %q", b.OID, b.TypeName)
		}
		if b.Primary {
			if err := h.AddMasterWithOID(info.New(), oid, b.TypeName, 1); err != nil {
				return fmt.Errorf("eventual: recover base %d: %w", b.OID, err)
			}
		} else {
			e, _ := h.AddReplica(info.New(), oid, b.TypeName, 1)
			e.Touch(s.eng.Runtime().Clock().Now())
		}
	}
	t, known := s.objs[oid]
	if !known {
		t = &tracked{oid: oid, typeName: b.TypeName, primary: b.Primary, hist: make(map[uint16]uint64)}
		s.objs[oid] = t
	}
	return s.applyBaseLocked(t, b)
}

func (s *Store) bumpVVLocked(id UpdateID) {
	if id.Clock > s.vv[id.Site] {
		s.vv[id.Site] = id.Clock
	}
	if id.Clock > s.clock {
		s.clock = id.Clock
	}
}
