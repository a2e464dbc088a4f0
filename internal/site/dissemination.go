package site

import (
	"slices"

	"obiwan/internal/dissemination"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

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
// The engine is handed a new chain, the site's policy chain with the
// publisher appended: Tentative (WithEventual), the WithPolicy policy,
// Invalidation (WithInvalidation), then the publisher. Put acceptance is
// still decided by the members before it, and every member keeps hearing
// every hook. Call once; subsequent calls return the same publisher.
func (s *Site) EnableDissemination() *dissemination.Publisher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.publisher == nil {
		s.publisher = dissemination.NewPublisher(s.engine, s.deliverUpdate)
		s.engine.SetPolicy(append(slices.Clip(s.policies), s.publisher))
	}
	return s.publisher
}

// deliverUpdate pushes one update into a subscriber site's update sink.
func (s *Site) deliverUpdate(holder string, u *dissemination.Update) error {
	if holder == s.name {
		return s.applyPushed(u)
	}
	ref := rmi.RemoteRef{Addr: transport.Addr(holder), ID: updateSinkID}
	_, err := s.rt.Call(ref, "Push", u)
	return err
}

// policyChain is a site's consistency policy: its members in order. A put
// is rejected by the first member that rejects it, and every member hears
// every ReplicaCreated and MasterUpdated, in the same order. A chain is
// never modified once the engine holds it.
type policyChain []replication.Policy

func (c policyChain) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	for _, p := range c {
		if err := p.ApplyPut(oid, cur, base); err != nil {
			return err
		}
	}
	return nil
}

func (c policyChain) ReplicaCreated(oid objmodel.OID, site string, v uint64) {
	for _, p := range c {
		p.ReplicaCreated(oid, site, v)
	}
}

func (c policyChain) MasterUpdated(oid objmodel.OID, v uint64) {
	for _, p := range c {
		p.MasterUpdated(oid, v)
	}
}
