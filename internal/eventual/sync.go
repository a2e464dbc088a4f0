package eventual

import (
	"fmt"
	"sort"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
)

// Anti-entropy: pairwise version-vector exchange. A session between sites
// A and B is two messages — A sends its Summary plus the Batch B is
// missing (computed from B's last known summary, or requested fresh), B
// applies it, replies with the Batch A is missing plus its post-apply
// commit frontiers. Updates flow as self-checking records (EncodeRecord),
// commit positions as CommitRec, and peers that have fallen below the
// sender's truncation floor get a full-state BaseSync instead of a log
// diff. Sessions are symmetric (peer-to-peer works as well as
// replica↔primary) and compose in any pairwise order: ids are Lamport
// stamps, so anything learned in one session sorts before anything minted
// after it.

// FrontierCSN reports one object's committed frontier in a summary.
type FrontierCSN struct {
	OID uint64
	CSN uint64
}

// Summary is one store's sync state: its version vector plus per-object
// commit frontiers.
type Summary struct {
	// Site is the sending site's name.
	Site string
	// VV is the store's version vector.
	VV []VVPair
	// Frontiers lists each tracked object's committed frontier.
	Frontiers []FrontierCSN
}

// BaseSync is a full-state catch-up for one object: sent when the
// receiver's frontier lies below the sender's truncation floor, so the
// missing committed updates no longer exist as log records.
type BaseSync struct {
	OID      uint64
	TypeName string
	// State is the committed state at CSN.
	State []byte
	// CSN is the commit frontier State reflects.
	CSN uint64
	// Hist is the object's committed-history vector at CSN: per site, the
	// highest update clock folded into State. Receivers use it to discard
	// local updates the base already incorporates.
	Hist []VVPair
}

// Batch carries everything one side of a session ships: update records,
// commit records, and base syncs for too-far-behind objects.
type Batch struct {
	// Updates are EncodeRecord-format update records (CSN embedded for
	// updates the sender already knows committed).
	Updates [][]byte
	// Commits assign CSNs to updates the receiver already holds.
	Commits []CommitRec
	// Bases are full-state catch-ups past the truncation floor.
	Bases []BaseSync
}

// Empty reports whether the batch ships nothing.
func (b *Batch) Empty() bool {
	return b == nil || (len(b.Updates) == 0 && len(b.Commits) == 0 && len(b.Bases) == 0)
}

// SyncRequest opens a session: the caller's summary plus the batch it
// believes the callee is missing.
type SyncRequest struct {
	From    string
	Summary Summary
	Batch   Batch
}

// SyncReply closes a session: the callee's batch for the caller plus the
// callee's post-apply frontiers (feeding the caller's truncation table).
type SyncReply struct {
	From      string
	Frontiers []FrontierCSN
	Batch     Batch
}

// SyncStats summarizes what one ApplyBatch absorbed.
type SyncStats struct {
	Updates int // fresh updates applied
	Commits int // commit records applied (excluding CSNs riding updates)
	Bases   int // base syncs applied
	Skipped int // records for objects this store does not track
}

func init() {
	codec.MustRegister("obiwan.eventual.FrontierCSN", FrontierCSN{})
	codec.MustRegister("obiwan.eventual.Summary", Summary{})
	codec.MustRegister("obiwan.eventual.BaseSync", BaseSync{})
	codec.MustRegister("obiwan.eventual.Batch", Batch{})
	codec.MustRegister("obiwan.eventual.SyncRequest", SyncRequest{})
	codec.MustRegister("obiwan.eventual.SyncReply", SyncReply{})
}

// Summary builds this store's current sync summary.
func (s *Store) Summary() *Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := &Summary{Site: s.name, VV: s.vvLocked()}
	oids := make([]objmodel.OID, 0, len(s.objs))
	for oid := range s.objs {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		sum.Frontiers = append(sum.Frontiers, FrontierCSN{OID: uint64(oid), CSN: s.objs[oid].frontier})
	}
	return sum
}

// BuildBatch computes the batch peer is missing, per its summary: every
// retained update whose id lies above peer's version vector, a commit
// record for every retained committed update above peer's frontier that
// peer already holds, and a BaseSync for each object whose frontier has
// fallen below this store's truncation floor.
func (s *Store) BuildBatch(peer *Summary) *Batch {
	peerVV := make(map[uint16]uint64, len(peer.VV))
	for _, p := range peer.VV {
		peerVV[uint16(p.Site)] = p.Clock
	}
	peerFront := make(map[uint64]uint64, len(peer.Frontiers))
	for _, f := range peer.Frontiers {
		peerFront[f.OID] = f.CSN
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &Batch{}
	oids := make([]objmodel.OID, 0, len(s.objs))
	for oid := range s.objs {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	shipped := uint64(0)
	for _, oid := range oids {
		t := s.objs[oid]
		pf := peerFront[uint64(oid)]
		if pf < t.floor {
			// The log records peer needs are truncated: full-state resync.
			b.Bases = append(b.Bases, BaseSync{
				OID:      uint64(oid),
				TypeName: t.typeName,
				State:    append([]byte(nil), t.committedState...),
				CSN:      t.frontier,
				Hist:     histPairs(t.hist),
			})
			pf = t.frontier
		}
		for _, u := range t.committed {
			if u.CSN <= pf {
				continue
			}
			if u.ID.Clock > peerVV[u.ID.Site] {
				b.Updates = append(b.Updates, EncodeRecord(u))
				shipped++
			} else {
				b.Commits = append(b.Commits, CommitRec{OID: u.OID, Clock: u.ID.Clock, Site: uint64(u.ID.Site), CSN: u.CSN})
			}
		}
		for _, u := range t.tentative {
			if u.ID.Clock > peerVV[u.ID.Site] {
				b.Updates = append(b.Updates, EncodeRecord(u))
				shipped++
			}
		}
	}
	s.met.shipped.Add(shipped)
	return b
}

// ApplyBatch folds a received batch into the store. All update records
// are decoded and validated *before* any state mutates — a torn or
// corrupt record rejects the whole batch (fail closed). Per-object
// application is atomic; a mid-batch error (commit gap, unknown update
// function) leaves earlier objects applied and later ones untouched, and
// is safe to retry after the peers re-exchange summaries.
func (s *Store) ApplyBatch(from string, b *Batch) (*SyncStats, error) {
	if b.Empty() {
		return &SyncStats{}, nil
	}
	// Decode everything first: no partial update ever applies.
	decoded := make([]*Update, 0, len(b.Updates))
	for i, raw := range b.Updates {
		u, err := DecodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("eventual: sync batch from %s record %d: %w", from, i, err)
		}
		if _, err := lookupUpdate(u.Fn); err != nil {
			return nil, fmt.Errorf("eventual: sync batch from %s record %d: %w", from, i, err)
		}
		decoded = append(decoded, u)
	}

	stats := &SyncStats{}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()

	var recs []JournalRecord
	// Bases first: they re-anchor objects whose log diff was impossible.
	for i := range b.Bases {
		bs := &b.Bases[i]
		t, ok := s.objs[objmodel.OID(bs.OID)]
		if !ok {
			stats.Skipped++
			continue
		}
		if bs.CSN <= t.frontier {
			continue // already at or past this base
		}
		br := &baseRec{OID: bs.OID, TypeName: bs.TypeName, Primary: t.primary, State: bs.State, CSN: bs.CSN, Hist: bs.Hist}
		if err := s.applyBaseLocked(t, br); err != nil {
			s.mu.Unlock()
			return stats, err
		}
		stats.Bases++
		recs = append(recs, JournalRecord{Kind: JBase, Payload: s.encodePayload(br)})
	}

	// Group updates and commits per object, then ingest object by object.
	updatesBy := make(map[uint64][]*Update)
	for _, u := range decoded {
		updatesBy[u.OID] = append(updatesBy[u.OID], u)
	}
	commitsBy := make(map[uint64][]CommitRec)
	for _, c := range b.Commits {
		commitsBy[c.OID] = append(commitsBy[c.OID], c)
	}
	oids := make([]uint64, 0, len(updatesBy)+len(commitsBy))
	for oid := range updatesBy {
		oids = append(oids, oid)
	}
	for oid := range commitsBy {
		if _, dup := updatesBy[oid]; !dup {
			oids = append(oids, oid)
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		t, ok := s.objs[objmodel.OID(oid)]
		if !ok {
			stats.Skipped += len(updatesBy[oid]) + len(commitsBy[oid])
			continue
		}
		before := t.frontier
		tentBefore := len(t.tentative)
		out, err := s.ingestLocked(t, updatesBy[oid], commitsBy[oid])
		if err != nil {
			s.mu.Unlock()
			if jerr := s.journalLocked(recs); jerr != nil {
				return stats, jerr
			}
			return stats, fmt.Errorf("eventual: sync batch from %s object %d: %w", from, oid, err)
		}
		recs = append(recs, out...)
		committedNow := int(t.frontier - before)
		stats.Commits += committedNow
		stats.Updates += len(t.tentative) - tentBefore + committedNow
	}
	s.mu.Unlock()
	s.met.sessions.Inc()
	if err := s.journalLocked(recs); err != nil {
		return stats, err
	}
	return stats, nil
}

// applyBaseLocked re-anchors one tracked object on a base, received from a
// peer (ApplyBatch) or replayed from the journal (recoverBase): committed
// state, frontier, and history vector replace the local committed prefix;
// folded-in records drop from the retained lists; the surviving suffix
// replays. The floor only ever rises. Caller holds s.mu.
func (s *Store) applyBaseLocked(t *tracked, b *baseRec) error {
	entry, ok := s.eng.Heap().Get(t.oid)
	if !ok {
		return fmt.Errorf("eventual: tracked object %v missing from heap", t.oid)
	}
	if err := s.eng.RestoreSnapshot(entry.Obj, b.State); err != nil {
		return fmt.Errorf("eventual: base sync %v: %w", t.oid, err)
	}
	t.committedState = append([]byte(nil), b.State...)
	t.frontier = b.CSN
	if b.CSN > t.floor {
		t.floor = b.CSN
	}
	for _, p := range b.Hist {
		if p.Clock > t.hist[uint16(p.Site)] {
			t.hist[uint16(p.Site)] = p.Clock
		}
	}
	keep := t.committed[:0]
	for _, u := range t.committed {
		if u.CSN != 0 && u.CSN <= b.CSN {
			continue
		}
		keep = append(keep, u)
	}
	t.committed = keep
	rest := t.tentative[:0]
	for _, u := range t.tentative {
		if u.ID.Clock <= t.hist[u.ID.Site] {
			continue // folded into the base (per-origin prefix property)
		}
		rest = append(rest, u)
	}
	t.tentative = rest
	for _, u := range t.committed {
		s.applyFn(entry, u)
	}
	if len(t.committed) > 0 {
		state, err := s.eng.CaptureSnapshot(entry.Obj)
		if err != nil {
			return err
		}
		t.committedState = state
		t.frontier = t.committed[len(t.committed)-1].CSN
	}
	s.replaySuffix(entry, t)
	return nil
}

// HandleSync is the callee half of an anti-entropy session: apply the
// caller's batch, then build the return batch against the caller's
// summary and report our post-apply frontiers.
func (s *Store) HandleSync(req *SyncRequest) (*SyncReply, error) {
	if _, err := s.ApplyBatch(req.From, &req.Batch); err != nil {
		return nil, err
	}
	s.RecordPeerFrontiers(req.From, req.Summary.Frontiers)
	reply := &SyncReply{From: s.name}
	reply.Batch = *s.BuildBatch(&req.Summary)
	reply.Frontiers = s.Summary().Frontiers
	return reply, nil
}
