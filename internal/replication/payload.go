// Package replication implements OBIWAN's core contribution: incremental
// replication of object graphs with automatic object-fault detection and
// resolution, through proxy-in / proxy-out pairs.
//
// The protocol follows §2.2 of the paper:
//
//   - A master site exports a ProxyIn per object handed out. Its Get method
//     assembles a replica payload: the demanded object, optionally a batch
//     or cluster of the next objects of its reachability graph, and
//     frontier descriptors for every reference that leaves the shipped set.
//   - The receiving site materializes the payload: replicas are
//     instantiated (deduplicated by OID against the local heap), their
//     references bound — to local objects where possible, to fresh
//     ProxyOuts at the frontier.
//   - Invoking through an unresolved reference raises an object fault; the
//     ProxyOut demands its target (and the next batch/cluster), the Ref is
//     spliced to the fresh replica (updateMember), and the ProxyOut becomes
//     garbage. Further invocations are direct.
//   - Put ships a replica's state back to its master through the ProxyIn
//     (per object, or per cluster when the replica arrived in a cluster and
//     thus cannot be individually updated).
package replication

import (
	"obiwan/internal/codec"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

// Mode selects how much of the reachability graph one Get ships.
type Mode uint8

const (
	// Incremental ships the demanded object plus at most Batch-1 more
	// objects of its reachability graph; everything beyond the shipped set
	// is proxied.
	Incremental Mode = iota
	// Transitive ships the whole reachability graph in one step — the
	// paper's transitive-closure alternative for when "all objects are
	// really required for the application to work".
	Transitive
)

func (m Mode) String() string {
	if m == Transitive {
		return "transitive"
	}
	return "incremental"
}

// GetSpec parameterizes a replication demand. It corresponds to the mode
// argument of the paper's IProvideRemote::get(mode), extended with the
// batch/cluster sizing of §4.2–4.3.
type GetSpec struct {
	// Mode is incremental or transitive closure.
	Mode Mode
	// Batch is how many objects each demand ships (≥1; 0 means 1). With
	// Clustered=false each shipped object gets its own proxy pair and stays
	// individually updatable (figure 5).
	Batch int
	// Depth, when >0, bounds the shipped set by BFS depth instead of (or in
	// addition to) Batch — the paper's depth-defined dynamic clusters.
	Depth int
	// Clustered ships the batch as a single cluster with exactly one proxy
	// pair; members cannot be individually updated (figure 6).
	Clustered bool
}

// DefaultSpec is one-object-at-a-time incremental replication, the paper's
// most flexible (and least efficient) alternative.
var DefaultSpec = GetSpec{Mode: Incremental, Batch: 1}

// normalize fills in defaults.
func (s GetSpec) normalize() GetSpec {
	if s.Batch <= 0 {
		s.Batch = 1
	}
	if s.Mode == Transitive {
		s.Batch = 0 // unlimited
		s.Clustered = false
	}
	return s
}

// ObjectRecord is one replica in a payload.
type ObjectRecord struct {
	// OID is the object's identity; replicas share it with the master.
	OID uint64
	// TypeName is the registered wire name used to instantiate the replica.
	TypeName string
	// Version is the master version this state reflects.
	Version uint64
	// State is the codec-encoded exported fields (refs as OIDs), captured
	// under the entry's state lock together with Version. Frozen: a reply
	// frame sends it from where it lies.
	State codec.Frozen
	// Provider is the object's own proxy-in for later Put/refresh. Zero
	// when the payload is clustered: members share the ClusterProvider.
	Provider rmi.RemoteRef
}

// FrontierRef describes a reference that leaves the shipped set: the
// receiving site materializes a ProxyOut from it.
type FrontierRef struct {
	// OID is the identity of the not-shipped target.
	OID uint64
	// Provider is the proxy-in (at the master site, or wherever the target
	// lives) that a future demand should Get from.
	Provider rmi.RemoteRef
}

// Payload is the unit of replication shipped by ProxyIn.Get.
//
// A provider address that equals the replying site's own travels empty:
// the receiver knows it already, having sent the Get there, and fills it
// in (swapAddr) before it installs anything. Group and providers on
// other sites stay explicit, so a frame decodes on its own, replayed or not.
type Payload struct {
	// Objects are the shipped replicas, the demanded root first (BFS order).
	Objects []ObjectRecord
	// Frontier describes every reference leaving the shipped set.
	Frontier []FrontierRef
	// Clustered marks a single-proxy-pair group (§4.3).
	Clustered bool
	// ClusterProvider is the one proxy-in covering all Objects when
	// Clustered is set.
	ClusterProvider rmi.RemoteRef
	// Spec echoes the demand so frontier ProxyOuts inherit it: a walk keeps
	// replicating "the next N objects" on every fault.
	Spec GetSpec
	// Group, when non-empty, lists the member addresses of the master
	// group that assembled this payload. Every member exports the same
	// proxy-in object ids, so the receiver can fail any provider in this
	// payload over to another member by swapping the address alone.
	Group []transport.Addr
	owned int // in-place states assemble captured for this payload alone
}

// OwnedStates implements rmi.StatesOwner.
func (p *Payload) OwnedStates() int { return p.owned }

// Root is the demanded object's OID, the first shipped; 0 for a payload
// that ships nothing, which no assembly produces.
func (p *Payload) Root() uint64 {
	if len(p.Objects) == 0 {
		return 0
	}
	return p.Objects[0].OID
}

// swapAddr rewrites every provider address in p that reads from as to: the
// replier elides its own (from its address, to "") and the receiver puts
// back the address of the member that answered (from "", to it). A zero
// reference (a cluster member's Provider) is left as it is.
func (p *Payload) swapAddr(from, to transport.Addr) {
	swap := func(r *rmi.RemoteRef) {
		if r.Addr == from && r.ID != 0 {
			r.Addr = to
		}
	}
	for i := range p.Objects {
		swap(&p.Objects[i].Provider)
	}
	for i := range p.Frontier {
		swap(&p.Frontier[i].Provider)
	}
	swap(&p.ClusterProvider)
}

// PutRequest ships a replica's state back to its master (method put of the
// paper's IProvide interface).
type PutRequest struct {
	// OID identifies the object being updated.
	OID uint64
	// BaseVersion is the master version the replica last saw; consistency
	// policies use it to detect lost updates.
	BaseVersion uint64
	// State is the replica's current state, captured together with
	// BaseVersion. Frozen: the call frame sends it from where it lies.
	State codec.Frozen
	// Frontier resolves any references in State that the master site may
	// not know (e.g. objects mastered at the putting site).
	Frontier []FrontierRef
}

// PutReply acknowledges an applied update.
type PutReply struct {
	// NewVersion is the master's version after the update.
	NewVersion uint64
}

// ClusterPutRequest updates a whole cluster as a unit: clusters share one
// proxy pair, so members cannot be individually updated.
type ClusterPutRequest struct {
	// Members carries one update per cluster member.
	Members []PutRequest
}

func init() {
	codec.MustRegister("obiwan.repl.GetSpec", GetSpec{})
	codec.MustRegister("obiwan.repl.ObjectRecord", ObjectRecord{})
	codec.MustRegister("obiwan.repl.FrontierRef", FrontierRef{})
	codec.MustRegister("obiwan.repl.Payload", Payload{})
	codec.MustRegister("obiwan.repl.PutRequest", PutRequest{})
	codec.MustRegister("obiwan.repl.PutReply", PutReply{})
	codec.MustRegister("obiwan.repl.ClusterPutRequest", ClusterPutRequest{})
}
