// Package heap implements a site's object store: the set of OBIWAN objects
// (masters and replicas) living in one process, keyed by identity.
//
// The JVM gave the original prototype object identity, a garbage-collected
// heap, and reachability for free. This package provides the equivalent
// bookkeeping the Go implementation needs:
//
//   - OID allocation for masters created at this site (site id in the high
//     bits, so identities never collide across sites);
//   - entries recording each object's type, role (master/replica), version,
//     and — for replicas — the provider proxy-in back at the master site;
//   - reverse lookup from object pointer to entry, which is what lets
//     application code hand a bare object to Put/Refresh;
//   - bounded breadth-first traversal of the reachability graph through
//     resolved references, used by the replication engine to form batches
//     and clusters.
package heap

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
)

// ErrUnknownObject is returned when an object or OID has no entry here.
var ErrUnknownObject = errors.New("heap: unknown object")

// Role distinguishes masters from replicas.
type Role uint8

const (
	// Master objects were created at this site; their state is
	// authoritative.
	Master Role = iota
	// Replica objects were replicated from another site's master.
	Replica
)

func (r Role) String() string {
	if r == Master {
		return "master"
	}
	return "replica"
}

// Entry is the heap's metadata for one object.
type Entry struct {
	// OID is the object's global identity (shared by master and replicas).
	OID objmodel.OID
	// Obj is the live Go object (pointer to a registered struct).
	Obj any
	// TypeName is the registered wire name of the object's type.
	TypeName string
	// Role says whether this is the master or a replica.
	Role Role

	mu sync.Mutex
	// stateMu serializes engine access to the object's state: payload
	// capture (assemble, put requests, snapshots) versus restore (applied
	// puts, refreshes, disseminated updates). Application code reading its
	// own replicas is synchronized by the application, as in the paper;
	// this lock only keeps the platform's own accesses from racing.
	stateMu sync.Mutex
	// version: for masters, the current version (bumped on every applied
	// update); for replicas, the master version this replica reflects.
	version uint64
	// provider is, for replicas, the proxy-in exported at the master site
	// through which this object (or its cluster) is fetched and updated.
	provider rmi.RemoteRef
	// clusterMember marks replicas fetched as part of a cluster: they share
	// the cluster's proxy-in and cannot be individually updated (§4.3).
	clusterMember bool
	// clusterRoot identifies the cluster this replica arrived in (the OID
	// whose proxy-in serves the whole group); zero outside clusters.
	clusterRoot objmodel.OID
	// dirty marks replicas with local modifications not yet put back.
	dirty bool
	// fetchedAt records when a replica's state was last fetched, feeding
	// lease-based consistency policies.
	fetchedAt time.Time
}

// LockState acquires the entry's state lock (see stateMu).
func (e *Entry) LockState() { e.stateMu.Lock() }

// UnlockState releases the entry's state lock.
func (e *Entry) UnlockState() { e.stateMu.Unlock() }

// Version returns the entry's version.
func (e *Entry) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// SetVersion overwrites the version (replica refresh).
func (e *Entry) SetVersion(v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version = v
}

// BumpVersion increments a master's version and returns the new value.
func (e *Entry) BumpVersion() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version++
	return e.version
}

// Provider returns the replica's proxy-in reference (zero for masters).
func (e *Entry) Provider() rmi.RemoteRef {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.provider
}

// SetProvider installs the replica's proxy-in reference. This is the
// paper's setProvider step, run when a replica is materialized. For cluster
// members, clusterRoot names the cluster the replica belongs to.
func (e *Entry) SetProvider(ref rmi.RemoteRef, clusterRoot objmodel.OID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.provider = ref
	e.clusterMember = clusterRoot != 0
	e.clusterRoot = clusterRoot
}

// ClusterMember reports whether the replica arrived inside a cluster.
func (e *Entry) ClusterMember() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusterMember
}

// ClusterRoot returns the OID of the cluster this replica belongs to, or
// zero if it is not a cluster member.
func (e *Entry) ClusterRoot() objmodel.OID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusterRoot
}

// Dirty reports whether the replica has unsaved local modifications.
func (e *Entry) Dirty() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dirty
}

// SetDirty flags or clears local modifications.
func (e *Entry) SetDirty(d bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dirty = d
}

// FetchedAt returns when the replica state was last fetched.
func (e *Entry) FetchedAt() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fetchedAt
}

// Touch records a fresh fetch time.
func (e *Entry) Touch(t time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fetchedAt = t
}

func (e *Entry) String() string {
	return fmt.Sprintf("%s %s %s v%d", e.Role, e.TypeName, e.OID, e.Version())
}

// Heap is one site's object store. Safe for concurrent use.
type Heap struct {
	siteID uint16

	mu      sync.RWMutex
	byOID   map[objmodel.OID]*Entry
	byObj   map[any]*Entry
	nextSeq uint64
}

// New returns an empty heap for a site. siteID must be unique across the
// sites of one deployment; it namespaces the OIDs minted here.
func New(siteID uint16) *Heap {
	return &Heap{
		siteID: siteID,
		byOID:  make(map[objmodel.OID]*Entry),
		byObj:  make(map[any]*Entry),
	}
}

// SiteID returns the heap's site identifier.
func (h *Heap) SiteID() uint16 { return h.siteID }

// Len returns the number of objects stored.
func (h *Heap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.byOID)
}

// mintOID allocates a fresh identity for a master created at this site.
func (h *Heap) mintOID() objmodel.OID {
	h.nextSeq++
	return objmodel.OID(uint64(h.siteID)<<48 | h.nextSeq)
}

// MintOID allocates a fresh identity without installing an object. The
// master-group layer uses it: the group leader mints the id, the id is
// agreed through the replicated log, and every member then installs its
// copy at it with AddMasterWithOID.
func (h *Heap) MintOID() objmodel.OID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mintOID()
}

// AddMaster registers obj as a master object, minting its identity.
// Registering the same object twice returns the existing entry. The
// object's type must be registered with objmodel.
func (h *Heap) AddMaster(obj any) (*Entry, error) {
	info, ok := objmodel.InfoOf(obj)
	if !ok {
		return nil, fmt.Errorf("heap: type %T not registered with objmodel", obj)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.byObj[obj]; ok {
		return e, nil
	}
	e := &Entry{
		OID:      h.mintOID(),
		Obj:      obj,
		TypeName: info.Name,
		Role:     Master,
		version:  1,
	}
	h.byOID[e.OID] = e
	h.byObj[obj] = e
	return e, nil
}

// AddMasterWithOID registers obj as a master with a fixed identity and
// version — the checkpoint-restore path. The OID must carry this heap's
// site id, must not collide with an existing entry, and the allocator is
// advanced past it so future masters mint fresh identities.
func (h *Heap) AddMasterWithOID(obj any, oid objmodel.OID, typeName string, version uint64) error {
	if uint16(uint64(oid)>>48) != h.siteID {
		return fmt.Errorf("heap: OID %v does not belong to site %d", oid, h.siteID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.byOID[oid]; exists {
		return fmt.Errorf("heap: OID %v already present", oid)
	}
	if _, exists := h.byObj[obj]; exists {
		return fmt.Errorf("heap: object %T already registered", obj)
	}
	e := &Entry{
		OID:      oid,
		Obj:      obj,
		TypeName: typeName,
		Role:     Master,
		version:  version,
	}
	h.byOID[oid] = e
	h.byObj[obj] = e
	if seq := uint64(oid) & ((1 << 48) - 1); seq > h.nextSeq {
		h.nextSeq = seq
	}
	return nil
}

// AddReplica registers obj as a replica of the master identified by oid.
// If a replica for oid already exists the existing entry is returned with
// ok=false, so callers can update it in place instead (identity dedupe:
// re-replication binds to the existing replica). A fresh entry's fetch time
// is the caller's to stamp (Touch), from the site's clock.
func (h *Heap) AddReplica(obj any, oid objmodel.OID, typeName string, version uint64) (e *Entry, fresh bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if existing, ok := h.byOID[oid]; ok {
		return existing, false
	}
	e = &Entry{
		OID:      oid,
		Obj:      obj,
		TypeName: typeName,
		Role:     Replica,
		version:  version,
	}
	h.byOID[oid] = e
	h.byObj[obj] = e
	return e, true
}

// Get returns the entry for an identity.
func (h *Heap) Get(oid objmodel.OID) (*Entry, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	e, ok := h.byOID[oid]
	return e, ok
}

// EntryOf returns the entry for a live object pointer.
func (h *Heap) EntryOf(obj any) (*Entry, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	e, ok := h.byObj[obj]
	return e, ok
}

// Remove drops an object from the heap (e.g. an evicted replica).
func (h *Heap) Remove(oid objmodel.OID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.byOID[oid]; ok {
		delete(h.byOID, oid)
		delete(h.byObj, e.Obj)
	}
}

// Entries returns a snapshot of all entries (diagnostics and tests).
func (h *Heap) Entries() []*Entry {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Entry, 0, len(h.byOID))
	for _, e := range h.byOID {
		out = append(out, e)
	}
	return out
}

// TraverseLimit bounds a reachability traversal.
type TraverseLimit struct {
	// MaxObjects stops after this many objects (0 = unlimited). This is the
	// paper's batch size: "the application specifies the [amount] of the
	// partial reachability graph that it wants to replicate".
	MaxObjects int
	// MaxDepth stops at this BFS depth from the root (0 = unlimited);
	// depth-defined dynamic clusters.
	MaxDepth int
}

const traverseHint = 256 // the most a bound sizes Traverse's output for up front

// Traverse walks the reachability graph from root (which must be in the
// heap), following resolved references between objects that live in this
// heap, in breadth-first order. It returns the visited entries, root first.
// Unresolved references (proxied targets) are frontier edges and are not
// followed.
func (h *Heap) Traverse(root any, limit TraverseLimit) ([]*Entry, error) {
	rootEntry, ok := h.EntryOf(root)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrUnknownObject, root)
	}
	// out is the BFS queue too: out[next:] waits; each level ends at levelEnd.
	// A bound sizes both, up to traverseHint: a demand's Batch comes off the
	// wire, so a larger one grows them as they fill instead.
	size := 8
	if limit.MaxObjects > 0 {
		size = min(limit.MaxObjects, traverseHint)
	}
	out := append(make([]*Entry, 0, size), rootEntry)
	visited := make(map[objmodel.OID]bool, size)
	visited[rootEntry.OID] = true
	for next, depth, levelEnd := 0, 0, 1; next < len(out) && len(out) != limit.MaxObjects; next++ {
		if next == levelEnd {
			depth, levelEnd = depth+1, len(out)
		}
		if limit.MaxDepth > 0 && depth >= limit.MaxDepth {
			break
		}
		var buf [4]*objmodel.Ref
		e := out[next]
		e.LockState()
		refs := objmodel.AppendRefs(buf[:0], e.Obj)
		e.UnlockState()
		for _, ref := range refs {
			if !ref.IsResolved() {
				continue
			}
			target, err := ref.Resolve()
			if err != nil {
				continue
			}
			te, ok := h.EntryOf(target)
			if !ok || visited[te.OID] || len(out) == limit.MaxObjects {
				continue
			}
			visited[te.OID] = true
			out = append(out, te)
		}
	}
	return out, nil
}
