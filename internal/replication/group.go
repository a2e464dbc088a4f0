package replication

import (
	"errors"
	"fmt"
	"time"

	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// This file is the engine's master-group surface. A site that joins a
// consensus-replicated master group (site.WithMasterGroup) installs a
// MasterGate; the engine then stops mutating master state directly and
// instead routes every master mutation — registration, applied puts,
// version bumps — through the gate, which agrees it through the group's
// replicated log and replays it via the ApplyReplicated* entrypoints on
// every member. Reads (payload assembly, master-directed invokes) are
// admission-checked so only a leader holding a live lease serves them;
// followers answer with the typed NotLeaderError redirect.
//
// The client side is symmetric: payloads and descriptors minted by a
// grouped site carry the group's member addresses, and callFailover turns
// a dead or deposed leader into a transparent retry against the next
// member. Exactly-once across the retry is the replicated applied-put
// dedupe: every member's log replay carries the (base, crc → version)
// guard, so a put that committed under the old leader is answered from
// the guard by the new one instead of applying twice.

// MasterGate is what the site-layer group object implements. CheckServe
// and the Route* methods return *NotLeaderError when this member must
// redirect; Route* methods block until the mutation is agreed and applied
// locally.
type MasterGate interface {
	// CheckServe reports whether this member may serve master reads right
	// now (leader, live lease, log replayed up to its own term).
	CheckServe() error
	// Members lists the group's member site addresses (static, self
	// included) — what clients fail over across.
	Members() []transport.Addr
	// RoutePut agrees an inbound put through the log and returns the
	// apply result.
	RoutePut(sc telemetry.SpanContext, req *PutRequest) (*PutReply, error)
	// RouteRegister agrees the registration of obj as a group-mastered
	// object and returns its heap entry on this member.
	RouteRegister(obj any) (*heap.Entry, error)
	// RouteBump agrees a local master update (MarkUpdated) and returns
	// the new version.
	RouteBump(entry *heap.Entry) (uint64, error)
}

// SetMasterGate installs the master-group gate (nil detaches it).
func (e *Engine) SetMasterGate(g MasterGate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate = g
}

func (e *Engine) masterGate() MasterGate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gate
}

// gateServe admission-checks a master read on a gated site. Replica
// entries (onward replication) are never gated.
func (e *Engine) gateServe(entry *heap.Entry) error {
	g := e.masterGate()
	if g == nil || entry.Role != heap.Master {
		return nil
	}
	return g.CheckServe()
}

// recordGroup remembers that oid is mastered by a group reachable at any
// of members — the client-side fail-over route.
func (e *Engine) recordGroup(oid objmodel.OID, members []transport.Addr) {
	if oid == 0 || len(members) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.groups == nil {
		e.groups = make(map[objmodel.OID][]transport.Addr)
	}
	e.groups[oid] = append([]transport.Addr(nil), members...)
}

// groupFor returns the known member addresses mastering oid (nil when the
// object is single-mastered).
func (e *Engine) groupFor(oid objmodel.OID) []transport.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.groups[oid]
}

// failoverPause is how long a client waits after every group member
// refused or failed a round, before probing again — roughly an election
// timeout, so a group mid-election gets a chance to converge.
const failoverPause = 50 * time.Millisecond

// callFailover performs a replication call against a possibly-grouped
// provider. On a not-leader redirect it re-aims at the hinted member (or
// probes the membership when no hint is known); when rotate is set it
// also rotates through members on transient failures — safe for Get
// (idempotent) and Put/PutCluster (the replicated dedupe guard makes a
// second arrival return the recorded reply), NOT for Invoke. It returns
// the reply plus the member that answered, so callers can re-pin
// providers to the new leader. Time spent parked in failoverPause —
// waiting out an election — is attributed to the caller's span as
// elect.wait (a nil span drops the attribution, nothing else).
func (e *Engine) callFailover(span *telemetry.Span, oid objmodel.OID, prov rmi.RemoteRef, timeout time.Duration, rotate bool, method string, args ...any) ([]any, rmi.RemoteRef, error) {
	sc := span.Context()
	res, err := e.rt.CallWithin(sc, prov, timeout, method, args...)
	if err == nil {
		return res, prov, nil
	}
	members := e.groupFor(oid)
	if len(members) == 0 {
		return nil, prov, err
	}
	clock := e.rt.Clock()
	deadline := clock.Now().Add(timeout)
	cur := prov
	tried := map[transport.Addr]bool{cur.Addr: true}
	for {
		hint, redirect := NotLeaderHint(err)
		// A member that has not replayed the master's registration yet
		// has not exported it: the call did not run there, so go on.
		var re *rmi.RemoteError
		redirect = redirect || errors.As(err, &re) && re.Code == wire.FaultNoSuchObject
		transient := rotate && (transport.IsTransient(err) || errors.Is(err, rmi.ErrTimeout))
		if !redirect && !transient {
			return nil, cur, err
		}
		var next transport.Addr
		if redirect && hint != "" && hint != cur.Addr {
			next = hint
		} else {
			for _, m := range members {
				if !tried[m] {
					next = m
					break
				}
			}
			if next == "" {
				// Every member refused or failed this round: wait out an
				// election in progress, then probe the membership afresh.
				if !clock.Now().Add(failoverPause).Before(deadline) {
					return nil, cur, err
				}
				clock.Sleep(failoverPause)
				span.Phase(telemetry.PhaseElectWait, failoverPause)
				tried = map[transport.Addr]bool{}
				continue
			}
		}
		// What is left of the deadline, strictly positive: a zero timeout
		// would mean the runtime's default to CallWithin.
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			return nil, cur, err
		}
		if e.flight != nil {
			e.flight.Record(telemetry.FlightEvent{
				Kind: "repl.failover", OID: uint64(oid),
				TraceID: sc.TraceID, SpanID: sc.SpanID,
				Detail: fmt.Sprintf("%s %s->%s", method, cur.Addr, next),
				Err:    err.Error(),
			})
		}
		cur.Addr = next
		tried[next] = true
		res, err = e.rt.CallWithin(sc, cur, remaining, method, args...)
		if err == nil {
			return res, cur, nil
		}
	}
}

// PreparePut runs leader-side admission for an inbound grouped put (the
// admit step, see applyPut) BEFORE it is proposed to the log: a retry of
// an already-agreed put is answered from the guard (done=true — it needs
// no new log entry) and a policy rejection costs no slot. The gate calls
// this, then proposes the request, then fires NotifyMasterUpdated with
// the result.
func (e *Engine) PreparePut(req *PutRequest) (reply *PutReply, done bool, err error) {
	_, _, reply, err = e.admitPut(req)
	return reply, reply != nil, err
}

// NotifyMasterUpdated fires the consistency policy's MasterUpdated hook.
// On a grouped site the hook must fire exactly once per agreed update —
// at the leader, after commit — so the deterministic ApplyReplicated*
// replay never calls it; the gate does, through this.
func (e *Engine) NotifyMasterUpdated(oid objmodel.OID, newVersion uint64) {
	e.getPolicy().MasterUpdated(oid, newVersion)
}

// restoreAgreed installs the state snapshot an agreed register or bump
// carries, bumping the version with it when asked (the new version is
// returned); a command without a snapshot leaves the state as it is.
func (e *Engine) restoreAgreed(entry *heap.Entry, state []byte, frontier []FrontierRef, bump bool) (uint64, error) {
	if len(state) == 0 {
		if !bump {
			return 0, nil
		}
		return entry.BumpVersion(), nil
	}
	return e.restoreEntry(entry, state, frontierMap(frontier), DefaultSpec, bump, false)
}

// ApplyReplicatedRegister is the deterministic replay of an agreed master
// registration: install obj at the agreed identity and version, restore
// the agreed state snapshot, and export the proxy-in at the agreed RMI
// object id — the same id on every member, which is what lets a client's
// provider reference survive failover by swapping only the address.
func (e *Engine) ApplyReplicatedRegister(obj any, oid objmodel.OID, typeName string, version uint64, state []byte, frontier []FrontierRef, proxyID uint64) (*heap.Entry, error) {
	if err := e.heap.AddMasterWithOID(obj, oid, typeName, version); err != nil {
		return nil, err
	}
	entry, ok := e.heap.Get(oid)
	if !ok {
		return nil, fmt.Errorf("replication: registered %v vanished", oid)
	}
	if _, err := e.restoreAgreed(entry, state, frontier, false); err != nil {
		return nil, err
	}
	if proxyID != 0 {
		if err := e.RestoreProxyIn(oid, proxyID); err != nil {
			return nil, err
		}
	}
	return entry, nil
}

// ApplyReplicatedPut is the deterministic replay of an agreed put: the
// install step of applyPut behind its guard, WITHOUT the consistency-policy
// admission (the leader ran it before proposing — see PreparePut), the
// journal (the group log is the record) and the MasterUpdated hook (the
// gate fires it at the leader only). Every member's guard table stays
// identical because it is itself a pure function of the agreed log. req is
// the member's own copying decode of one log command, so the master adopts
// its state.
func (e *Engine) ApplyReplicatedPut(req *PutRequest) (*PutReply, error) {
	entry, crc, reply, err := e.recordedPut(req)
	if err != nil || reply != nil {
		return reply, err
	}
	if reply, err = e.installPut(entry, req, crc, true); err != nil {
		return nil, err
	}
	e.emit(Event{Kind: EventPutApplied, OID: entry.OID, Version: reply.NewVersion, Base: req.BaseVersion, Checksum: crc})
	return reply, nil
}

// ApplyReplicatedBump is the deterministic replay of an agreed local
// master update (MarkUpdated on a grouped site): restore the agreed state
// snapshot and bump the version. All members bump in log order, so
// versions never diverge.
func (e *Engine) ApplyReplicatedBump(oid objmodel.OID, state []byte, frontier []FrontierRef) (uint64, error) {
	entry, ok := e.heap.Get(oid)
	if !ok {
		return 0, fmt.Errorf("%w: %v", heap.ErrUnknownObject, oid)
	}
	return e.restoreAgreed(entry, state, frontier, true)
}
