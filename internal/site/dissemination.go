package site

import (
	"obiwan/internal/dissemination"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// UpdateSinkIface is the symbolic interface name of a site's update sink.
const UpdateSinkIface = "obiwan.UpdateSink"

// updateSinkID is the well-known object id of the update sink: always a
// site's second export (the invalidation sink is the first).
const updateSinkID rmi.ObjID = 2

// updateSink receives disseminated updates over RMI.
type updateSink struct {
	site *Site
}

// Push applies one update.
func (k *updateSink) Push(u *dissemination.Update) error { return k.site.applyPushed(u) }

// applyPushed applies one disseminated update to the local replica and,
// as a refresh would, clears the staleness mark the image answers: an
// invalidation naming a version the push has now delivered.
func (s *Site) applyPushed(u *dissemination.Update) error {
	if err := s.applier.Apply(u); err != nil {
		return err
	}
	if v, stale := s.stale.IsStale(objmodel.OID(u.OID)); stale && v <= u.Version {
		s.stale.Clear(objmodel.OID(u.OID))
	}
	return nil
}

// EnableDissemination turns this site into an update publisher: every
// MarkUpdated / applied Put on a master object is captured and pushed to
// the sites registered with Publisher.Subscribe. Delivery goes to each
// subscriber's update sink (exported by every site); subscribers apply
// updates to their replicas automatically.
//
// The publisher composes with the site's configured consistency policy:
// put acceptance is still decided by it. Call once; subsequent calls
// return the same publisher.
func (s *Site) EnableDissemination() *dissemination.Publisher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.publisher != nil {
		return s.publisher
	}
	pub := dissemination.NewPublisher(s.engine, s.deliverUpdate)
	if s.basePolicy != nil {
		pub.Base = s.basePolicy
	}
	s.installPolicyLocked(pub)
	s.publisher = pub
	return pub
}

// deliverUpdate pushes one update into a subscriber site's update sink.
func (s *Site) deliverUpdate(holder string, u *dissemination.Update) error {
	if holder == s.name {
		return s.applyPushed(u)
	}
	ref := rmi.RemoteRef{Addr: transport.Addr(holder), ID: updateSinkID, Iface: UpdateSinkIface}
	_, err := s.rt.Call(ref, "Push", u)
	return err
}

// installPolicyLocked layers a new policy over the engine while keeping
// any previously layered hooks (invalidation) in the chain. Caller holds
// s.mu.
func (s *Site) installPolicyLocked(p replication.Policy) {
	if s.inval != nil && p != s.inval {
		// Keep invalidation in the chain: it wraps the new policy.
		s.inval.Base = p
		s.engine.SetPolicy(policyPair{a: s.inval, b: p})
		return
	}
	s.engine.SetPolicy(p)
}

// policyPair fans notification hooks out to two policies while letting the
// first decide put acceptance through its own chain.
type policyPair struct {
	a, b replication.Policy
}

func (p policyPair) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	return p.a.ApplyPut(oid, cur, base)
}

func (p policyPair) ReplicaCreated(oid objmodel.OID, site string, v uint64) {
	p.a.ReplicaCreated(oid, site, v)
	p.b.ReplicaCreated(oid, site, v)
}

func (p policyPair) MasterUpdated(oid objmodel.OID, v uint64) {
	p.a.MasterUpdated(oid, v)
	p.b.MasterUpdated(oid, v)
}
