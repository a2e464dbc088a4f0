package site

import (
	"errors"
	"fmt"
	"time"

	"obiwan/internal/eventual"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/txn"
)

// ErrNoEventual is returned by weakly-connected operations on sites built
// without WithEventual.
var ErrNoEventual = errors.New("site: eventual consistency not enabled (use WithEventual)")

// WithEventual enables weakly-connected replication: the site carries an
// update log (eventual.Store), exports the anti-entropy service at a
// well-known id, guards log-managed objects against raw state puts with
// a consistency.Tentative policy, and — on durable sites — journals every
// log mutation through the WAL so tentative updates survive crashes.
// Objects opt in per object with Site.Track (or Store.Track).
func WithEventual() Option { return func(o *options) { o.eventual = true } }

// antiEntropySink serves anti-entropy sessions over RMI.
type antiEntropySink struct {
	store *eventual.Store
}

// Summary returns this site's version vector and commit frontiers.
func (k *antiEntropySink) Summary() *eventual.Summary {
	return k.store.Summary()
}

// Exchange applies the caller's batch and returns the callee's.
func (k *antiEntropySink) Exchange(req *eventual.SyncRequest) (*eventual.SyncReply, error) {
	return k.store.HandleSync(req)
}

// Eventual returns the site's weakly-connected store, or nil when not
// enabled.
func (s *Site) Eventual() *eventual.Store { return s.eventual }

// Track enrolls obj in the site's update log (see eventual.Store.Track).
func (s *Site) Track(obj any) error {
	if s.eventual == nil {
		return ErrNoEventual
	}
	return s.eventual.Track(obj)
}

// Apply appends a local update — registered function fn with args against
// obj — to the update log: applied tentatively at once, committed by the
// object's primary, exchanged by anti-entropy. Works fully disconnected.
func (s *Site) Apply(obj any, fn string, args []byte) (eventual.UpdateID, error) {
	if s.eventual == nil {
		return eventual.UpdateID{}, ErrNoEventual
	}
	return s.eventual.Append(obj, fn, args)
}

// antiEntropyRef builds the reference to peer's anti-entropy service.
func antiEntropyRef(peer string) rmi.RemoteRef {
	return rmi.RemoteRef{Addr: transport.Addr(peer), ID: antiEntropyID}
}

// AntiEntropy runs one pairwise anti-entropy session with peer (a site
// name/address, which must also be built WithEventual): exchange version
// vectors, ship the updates and commit records each side is missing, and
// record the peer's commit frontiers for log truncation. The calls ride
// the runtime's retry/dedupe, so a session interrupted by the network can
// simply be run again. Returns what this side absorbed.
// The whole session runs under one root span ("eventual.sync"), with
// the Summary and Exchange calls traced beneath it, so sync rounds show
// up in cross-site trace trees alongside demand and put spans.
func (s *Site) AntiEntropy(peer string) (*eventual.SyncStats, error) {
	ev := s.eventual
	if ev == nil {
		return nil, ErrNoEventual
	}
	span := s.tel.StartRoot("eventual.sync", s.rt.Clock().Now())
	span.Annotate("peer", peer)
	stats, err := s.antiEntropySession(span.Context(), peer, ev)
	if err != nil {
		span.SetErr(err)
	} else if stats != nil {
		span.AnnotateUint("updates", uint64(stats.Updates))
		span.AnnotateUint("commits", uint64(stats.Commits))
		span.AnnotateUint("bases", uint64(stats.Bases))
		span.AnnotateUint("skipped", uint64(stats.Skipped))
	}
	span.End(s.rt.Clock().Now())
	return stats, err
}

// antiEntropySession is the session body, run under sc's trace context.
func (s *Site) antiEntropySession(sc telemetry.SpanContext, peer string, ev *eventual.Store) (*eventual.SyncStats, error) {
	ref := antiEntropyRef(peer)
	out, _, err := s.rt.CallWithin(sc, time.Time{}, ref, 0, "Summary")
	if err != nil {
		return nil, fmt.Errorf("site: anti-entropy with %s: %w", peer, err)
	}
	peerSum, ok := out[0].(*eventual.Summary)
	if !ok || peerSum == nil {
		return nil, fmt.Errorf("site: anti-entropy with %s: bad summary reply", peer)
	}
	req := &eventual.SyncRequest{
		From:    s.name,
		Summary: *ev.Summary(),
		Batch:   *ev.BuildBatch(peerSum),
	}
	out, _, err = s.rt.CallWithin(sc, time.Time{}, ref, 0, "Exchange", req)
	if err != nil {
		return nil, fmt.Errorf("site: anti-entropy with %s: %w", peer, err)
	}
	reply, ok := out[0].(*eventual.SyncReply)
	if !ok || reply == nil {
		return nil, fmt.Errorf("site: anti-entropy with %s: bad exchange reply", peer)
	}
	stats, err := ev.ApplyBatch(reply.From, &reply.Batch)
	if err != nil {
		return stats, err
	}
	ev.RecordPeerFrontiers(peer, reply.Frontiers)
	return stats, nil
}

// TruncateLog drops committed update records already acknowledged by
// every peer this site has synced with (see
// eventual.Store.TruncateCommitted).
func (s *Site) TruncateLog() (int, error) {
	if s.eventual == nil {
		return 0, ErrNoEventual
	}
	return s.eventual.TruncateCommitted()
}

// TxnManager returns the site's transaction manager, creating it on first
// use: on durable sites it is wired to the pending-commit journal, so
// parked disconnected commits survive a crash and are re-adopted here.
func (s *Site) TxnManager() *txn.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txnMgr != nil {
		return s.txnMgr
	}
	m := txn.NewManager(s.engine)
	if s.durable != nil {
		m.SetPendingJournal(s.durable)
		for _, p := range s.durable.parkedSnapshot() {
			m.AdoptPending(p.id, p.oids)
		}
	}
	s.txnMgr = m
	return m
}
