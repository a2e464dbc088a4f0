package replication

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/platgc"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// Policy is the consistency hook surface the engine calls into. The paper
// leaves replica consistency to the application, providing only the hooks:
// "the application programmer is not forced to deal with consistency; he
// may simply use a library of specific consistency protocols" (§2.1).
// Package consistency provides such a library.
type Policy interface {
	// ApplyPut decides whether an update based on baseVersion may be
	// applied to a master currently at curVersion. Returning an error
	// rejects the update and surfaces it at the putting site.
	ApplyPut(oid objmodel.OID, curVersion, baseVersion uint64) error
	// ReplicaCreated runs at the master when a site fetches a replica.
	ReplicaCreated(oid objmodel.OID, site string, version uint64)
	// MasterUpdated runs at the master after an update is applied.
	MasterUpdated(oid objmodel.OID, newVersion uint64)
}

// acceptAll is the paper's default: the programmer owns consistency.
type acceptAll struct{}

func (acceptAll) ApplyPut(objmodel.OID, uint64, uint64) error { return nil }
func (acceptAll) ReplicaCreated(objmodel.OID, string, uint64) {}
func (acceptAll) MasterUpdated(objmodel.OID, uint64)          {}

// Crossover advises ModeAuto references: given the peer site serving the
// object and the number of invocations so far through a reference, should
// the target be replicated now? The QoS package provides an implementation
// based on the figure-4 cost model.
type Crossover func(peer transport.Addr, oid objmodel.OID, calls uint64) bool

// Engine errors.
var (
	// ErrClusterMember is returned by Put for replicas that arrived inside
	// a cluster: "each object can not be individually updated" (§4.3).
	// Use PutCluster instead.
	ErrClusterMember = errors.New("replication: object is a cluster member; use PutCluster")
	// ErrNotReplica is returned by Put/Refresh on masters.
	ErrNotReplica = errors.New("replication: object is not a replica")
	// ErrNoProvider is returned when a replica has no proxy-in to talk to.
	ErrNoProvider = errors.New("replication: replica has no provider")
)

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy installs a consistency policy (default: accept everything).
func WithPolicy(p Policy) Option {
	return func(e *Engine) {
		if p != nil {
			e.policy = p
		}
	}
}

// WithCrossover installs the ModeAuto advisor.
func WithCrossover(c Crossover) Option {
	return func(e *Engine) { e.crossover = c }
}

// WithTelemetry attaches a telemetry hub: replication protocol steps
// (fault, assemble, materialize, put) become spans and the repl.* metrics
// are recorded from protocol events. Pass the same hub given to the RMI
// runtime so cross-site demand chains share one trace. Nil (the default)
// disables both at no cost.
func WithTelemetry(h *telemetry.Hub) Option {
	return func(e *Engine) { e.tel = h }
}

// BulkTimeout is the per-call deadline for replication data transfers
// (Get/Put/PutCluster). Bulk payloads — a transitive closure of a large
// graph on a thin link — legitimately take far longer than interactive
// RMI calls, so they do not use the runtime's default call timeout.
const BulkTimeout = 5 * time.Minute

// Engine is a site's replication runtime: master-side payload assembly and
// proxy-in exports, client-side materialization and proxy-out faults.
type Engine struct {
	rt        *rmi.Runtime
	heap      *heap.Heap
	reg       *codec.Registry
	policy    Policy
	crossover Crossover
	gc        platgc.Accountant
	tel       *telemetry.Hub
	prof      *telemetry.Profiler       // nil no-op when tel is nil
	flight    *telemetry.FlightRecorder // nil no-op when tel is nil
	invokeLog *objmodel.InvokeLog       // nil when profiling is off

	// Protocol instruments, resolved once; all nil no-ops when tel is nil.
	met struct {
		faults       *telemetry.Counter
		faultsHeap   *telemetry.Counter
		faultLatency *telemetry.Histogram
		assembled    *telemetry.Counter
		materialized *telemetry.Counter
		clustered    *telemetry.Counter
		batch        *telemetry.Counter
		payloadObjs  *telemetry.Histogram
		putsShipped  *telemetry.Counter
		putsApplied  *telemetry.Counter
		refreshes    *telemetry.Counter
	}

	mu          sync.Mutex
	observers   []obsEntry // fan-out observers, in registration order
	observerSeq int
	journal     Journal                           // durability hooks (nil: in-memory site)
	gate        MasterGate                        // master-group routing (nil: single-master site)
	appliedPuts map[objmodel.OID]appliedPut       // exactly-once guard per master
	proxyIns    map[objmodel.OID]rmi.RemoteRef    // exported proxy-in per object
	clusters    map[objmodel.OID][]objmodel.OID   // cluster root → member OIDs (client side)
	inCluster   map[objmodel.OID]objmodel.OID     // member → cluster root (client side)
	groups      map[objmodel.OID][]transport.Addr // OID → mastering group members (client side)
}

// NewEngine builds the replication engine for one site.
func NewEngine(rt *rmi.Runtime, h *heap.Heap, opts ...Option) *Engine {
	e := &Engine{
		rt:          rt,
		heap:        h,
		reg:         rt.Registry(),
		policy:      acceptAll{},
		appliedPuts: make(map[objmodel.OID]appliedPut),
		proxyIns:    make(map[objmodel.OID]rmi.RemoteRef),
		clusters:    make(map[objmodel.OID][]objmodel.OID),
		inCluster:   make(map[objmodel.OID]objmodel.OID),
	}
	for _, opt := range opts {
		opt(e)
	}
	if m := e.tel.Metrics(); m != nil {
		e.met.faults = m.Counter("repl.faults")
		e.met.faultsHeap = m.Counter("repl.faults.from_heap")
		e.met.faultLatency = m.Histogram("repl.fault.latency_ns")
		e.met.assembled = m.Counter("repl.payloads.assembled")
		e.met.materialized = m.Counter("repl.payloads.materialized")
		e.met.clustered = m.Counter("repl.payloads.clustered")
		e.met.batch = m.Counter("repl.payloads.batch")
		e.met.payloadObjs = m.Histogram("repl.payload.objects")
		e.met.putsShipped = m.Counter("repl.puts.shipped")
		e.met.putsApplied = m.Counter("repl.puts.applied")
		e.met.refreshes = m.Counter("repl.refreshes")
	}
	e.prof = e.tel.Profiler()
	e.flight = e.tel.Flight()
	if e.prof != nil {
		e.invokeLog = objmodel.NewInvokeLog(e.prof)
		e.prof.PullFrom(e.invokeLog)
	}
	return e
}

// failUnavailable classifies an RMI failure on op for oid: transient and
// timed-out errors wrap into ErrUnavailable, and — because exhausting the
// retry policy is exactly the moment an operator wants context — the
// flight recorder logs the failing call (with its causal span id) and
// dumps the ring automatically.
func (e *Engine) failUnavailable(op string, oid objmodel.OID, sc telemetry.SpanContext, err error, at time.Time) error {
	werr := wrapUnavailable(err)
	if e.flight != nil && errors.Is(werr, ErrUnavailable) {
		e.flight.Record(telemetry.FlightEvent{
			AtNS: at.UnixNano(), Kind: "repl.unavailable", OID: uint64(oid),
			TraceID: sc.TraceID, SpanID: sc.SpanID,
			Detail: op, Err: err.Error(),
		})
		e.flight.Dump("unavailable: "+op, at)
	}
	return werr
}

// telNow reads the runtime's clock for telemetry alone: it returns the
// zero time, and reads nothing, when telemetry is off.
func (e *Engine) telNow() time.Time {
	if e.tel == nil {
		return time.Time{}
	}
	return e.rt.Clock().Now()
}

// payloadBytes totals the serialized state carried by a payload.
func payloadBytes(p *Payload) int {
	n := 0
	for i := range p.Objects {
		n += len(p.Objects[i].State)
	}
	return n
}

// Heap returns the engine's object store.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Runtime returns the engine's RMI runtime.
func (e *Engine) Runtime() *rmi.Runtime { return e.rt }

// GC returns the platform-object ledger.
func (e *Engine) GC() *platgc.Accountant { return &e.gc }

// SetCrossover installs the ModeAuto advisor at run time.
func (e *Engine) SetCrossover(c Crossover) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crossover = c
}

// SetPolicy installs a consistency policy at run time (nil restores the
// accept-all default).
func (e *Engine) SetPolicy(p Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p == nil {
		p = acceptAll{}
	}
	e.policy = p
}

func (e *Engine) getCrossover() Crossover {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crossover
}

// RegisterMaster adds obj to this site's heap as a master object — the one
// place a master is registered. On a grouped site the registration is
// agreed through the group log first, so every member installs the object
// at the same identity; on a single-master site it is installed and
// journaled here.
func (e *Engine) RegisterMaster(obj any) (*heap.Entry, error) {
	if g := e.masterGate(); g != nil {
		return g.RouteRegister(obj)
	}
	entry, err := e.heap.AddMaster(obj)
	if err != nil {
		return nil, err
	}
	if err := e.journalMaster(entry); err != nil {
		return nil, err
	}
	return entry, nil
}

// NewRef returns a Ref bound to target, registering target as a master if
// it is not yet in the heap. This is how applications build object graphs:
//
//	a.Next = engine.NewRef(b)
func (e *Engine) NewRef(target any) (*objmodel.Ref, error) {
	entry, ok := e.heap.EntryOf(target)
	if !ok {
		var err error
		if entry, err = e.RegisterMaster(target); err != nil {
			return nil, err
		}
	}
	r := objmodel.NewLocalRef(target, entry.OID)
	if entry.Role == heap.Replica {
		if prov := entry.Provider(); !prov.IsZero() {
			r.SetRemote(&remoteInvoker{eng: e, provider: prov, oid: entry.OID})
		}
	}
	e.invokeLog.Observe(r)
	return r, nil
}

// ExportObject exports a proxy-in for obj (registering it as a master if
// needed) and returns the reference — what a site binds in the name server
// so other sites can reach the graph's root. The returned Descriptor also
// carries the OID and type, which the remote side needs to build its
// proxy-out.
func (e *Engine) ExportObject(obj any) (Descriptor, error) {
	entry, ok := e.heap.EntryOf(obj)
	var err error
	switch {
	case !ok:
		entry, err = e.RegisterMaster(obj)
	case entry.Role == heap.Master:
		// Journal on every export, not just fresh registration: exporting
		// is a publish point, and reference wiring done since Register
		// (NewRef mutates the parent without a version bump) must be
		// durable before the object becomes reachable.
		err = e.journalMaster(entry)
	}
	if err != nil {
		return Descriptor{}, err
	}
	ref, err := e.exportProxyIn(entry)
	if err != nil {
		return Descriptor{}, err
	}
	d := Descriptor{Provider: ref, OID: uint64(entry.OID), TypeName: entry.TypeName}
	if g := e.masterGate(); g != nil && entry.Role == heap.Master {
		d.Group = g.Members()
	}
	return d, nil
}

// Descriptor identifies a remotely reachable object: the proxy-in to demand
// it from plus its identity. This is what name servers store. Group, when
// non-empty, lists the member addresses of the master group serving the
// object — every member exports the proxy-in at the same object id, so a
// client fails over by swapping only Provider.Addr.
type Descriptor struct {
	Provider rmi.RemoteRef
	OID      uint64
	TypeName string
	Group    []transport.Addr
}

func init() {
	codec.MustRegister("obiwan.repl.Descriptor", Descriptor{})
}

// RefFromDescriptor builds an unresolved Ref from a descriptor obtained out
// of band (typically a name server). Invoking it raises an object fault;
// spec controls how much each fault replicates.
func (e *Engine) RefFromDescriptor(d Descriptor, spec GetSpec) *objmodel.Ref {
	e.recordGroup(objmodel.OID(d.OID), d.Group)
	pout := e.newProxyOut(objmodel.OID(d.OID), d.Provider, spec.normalize())
	r := objmodel.NewFaultingRef(objmodel.OID(d.OID), pout, pout)
	e.invokeLog.Observe(r)
	return r
}

// exportProxyIn exports (or reuses) the proxy-in serving entry's object.
func (e *Engine) exportProxyIn(entry *heap.Entry) (rmi.RemoteRef, error) {
	e.mu.Lock()
	if ref, ok := e.proxyIns[entry.OID]; ok {
		e.mu.Unlock()
		e.gc.ProxyInReused()
		return ref, nil
	}
	e.mu.Unlock()

	pin := &ProxyIn{eng: e, entry: entry}
	ref, err := e.rt.Export(pin)
	if err != nil {
		return rmi.RemoteRef{}, fmt.Errorf("replication: export proxy-in for %v: %w", entry.OID, err)
	}

	e.mu.Lock()
	if existing, ok := e.proxyIns[entry.OID]; ok {
		// Lost a race; keep the winner and withdraw ours.
		e.mu.Unlock()
		e.rt.Unexport(ref.ID)
		e.gc.ProxyInReused()
		return existing, nil
	}
	e.proxyIns[entry.OID] = ref
	e.gc.ProxyInExported()
	e.mu.Unlock()

	// Journal outside e.mu (see journal.go lock-ordering contract). A
	// racing duplicate record is harmless: replay is last-wins and both
	// name the same id.
	if err := e.journalProxyIn(entry.OID, ref.ID); err != nil {
		return rmi.RemoteRef{}, err
	}
	return ref, nil
}

// captureEntry serializes an entry's state, into the buffer lend answers
// (objmodel.CaptureStateIn), and reads the version it is at in one
// state-locked section. Every install writes the pair in one such section
// too (restoreEntry, installReplica), so a shipped record never carries one
// version's state stamped with another's number, which would let a later
// put based on it pass the base-version check and overwrite the newer
// state.
func (e *Engine) captureEntry(entry *heap.Entry, lend func(n int) []byte) (codec.Frozen, uint64, error) {
	entry.LockState()
	defer entry.UnlockState()
	state, err := objmodel.CaptureStateIn(e.reg, entry.Obj, lend)
	return state, entry.Version(), err
}

// restoreEntry restores an entry's state and rebinds its references under
// its state lock; with bump it also bumps the version in that section (see
// captureEntry) and returns the new one. With adopt the object keeps the
// state's bytes (objmodel.AdoptState).
func (e *Engine) restoreEntry(entry *heap.Entry, state []byte, frontier map[objmodel.OID]FrontierRef, spec GetSpec, bump, adopt bool) (uint64, error) {
	restore := objmodel.RestoreState
	if adopt {
		restore = objmodel.AdoptState
	}
	entry.LockState()
	defer entry.UnlockState()
	if err := restore(e.reg, entry.Obj, state); err != nil {
		return 0, err
	}
	if err := e.bindRefs(entry.Obj, frontier, spec); err != nil {
		return 0, err
	}
	if !bump {
		return 0, nil
	}
	return entry.BumpVersion(), nil
}

// assemble builds the payload for a demand on root with spec. It runs at
// the master (or any site holding the object — replicas can serve onward
// replication the same way). sc parents the "assemble" span: the serve
// span of the inbound Get when the demand was traced, invalid otherwise;
// the span starts at at, the serve span's reading (zero: read here).
func (e *Engine) assemble(sc telemetry.SpanContext, at time.Time, root *heap.Entry, spec GetSpec, requester string) (payload *Payload, err error) {
	if at.IsZero() {
		at = e.telNow()
	}
	span := e.tel.StartSpan(sc, "assemble", at)
	span.AnnotateOID("oid", uint64(root.OID))
	var end time.Time // the reading the assembled event is stamped with
	defer func() {
		if payload != nil {
			span.AnnotateUint("objects", uint64(len(payload.Objects)))
		}
		span.SetErr(err)
		if end.IsZero() {
			end = e.telNow()
		}
		span.Phase(telemetry.PhaseAssemble, end.Sub(at))
		span.End(end)
	}()
	spec = spec.normalize()
	limit := heap.TraverseLimit{MaxDepth: spec.Depth}
	if spec.Mode == Incremental {
		limit.MaxObjects = spec.Batch
	}
	entries, err := e.heap.Traverse(root.Obj, limit)
	if err != nil {
		return nil, err
	}
	// seen starts as the shipped set and collects the frontier targets
	// already described: a reference to either gets no descriptor.
	seen := make(map[objmodel.OID]bool, len(entries))
	for _, en := range entries {
		seen[en.OID] = true
	}

	p := &Payload{
		Objects:   make([]ObjectRecord, 0, len(entries)),
		Clustered: spec.Clustered,
		Spec:      spec,
	}
	if g := e.masterGate(); g != nil && root.Role == heap.Master {
		p.Group = g.Members()
	}
	if spec.Clustered {
		ref, err := e.exportProxyIn(root)
		if err != nil {
			return nil, err
		}
		p.ClusterProvider = ref
	}

	for _, en := range entries {
		// into a buffer the runtime may lend (rmi.StatesOwner)
		state, version, err := e.captureEntry(en, e.rt.LendState)
		if err != nil {
			return nil, err
		}
		if codec.StaysInPlace(len(state)) {
			p.owned++
		}
		rec := ObjectRecord{
			OID:      uint64(en.OID),
			TypeName: en.TypeName,
			Version:  version,
			State:    state,
		}
		if !spec.Clustered {
			// Figure-5 regime: every shipped object gets its own proxy
			// pair so it stays individually updatable.
			prov, err := e.exportProxyIn(en)
			if err != nil {
				return nil, err
			}
			rec.Provider = prov
		}
		p.Objects = append(p.Objects, rec)
		if p.Frontier, err = walkFrontier(en, en.Obj, seen, p.Frontier, e.frontierFor); err != nil {
			return nil, err
		}
		e.getPolicy().ReplicaCreated(en.OID, requester, rec.Version)
	}
	p.swapAddr(e.rt.Addr(), "")
	end = e.telNow()
	e.emit(Event{
		Kind: EventPayloadAssembled, OID: root.OID, Objects: len(p.Objects),
		Bytes: payloadBytes(p), Frontier: len(p.Frontier), Clustered: p.Clustered,
		Requester: requester,
	}, end)
	return p, nil
}

// walkFrontier is the one ref-to-frontier loop: list obj's references
// (under lock's state lock when obj is heap-managed; nil otherwise), skip
// unbound targets and those in seen, and append what describe says of each
// other to out. The descriptors are built after the lock is released. A
// describer answers the zero FrontierRef for a reference that needs none.
func walkFrontier(lock *heap.Entry, obj any, seen map[objmodel.OID]bool, out []FrontierRef, describe func(*objmodel.Ref) (FrontierRef, error)) ([]FrontierRef, error) {
	var buf [4]*objmodel.Ref
	if lock != nil {
		lock.LockState()
	}
	refs := objmodel.AppendRefs(buf[:0], obj)
	if lock != nil {
		lock.UnlockState()
	}
	for _, ref := range refs {
		toid := ref.OID()
		if toid == 0 || seen[toid] {
			continue
		}
		seen[toid] = true
		fr, err := describe(ref)
		if err != nil {
			return nil, err
		}
		if fr.OID != 0 {
			out = append(out, fr)
		}
	}
	return out, nil
}

// frontierOf walks the references of one object on their own.
func (e *Engine) frontierOf(obj any, describe func(*objmodel.Ref) (FrontierRef, error)) ([]FrontierRef, error) {
	entry, _ := e.heap.EntryOf(obj)
	return walkFrontier(entry, obj, make(map[objmodel.OID]bool), nil, describe)
}

// targetEntry returns the heap entry of a resolved reference's target.
func (e *Engine) targetEntry(ref *objmodel.Ref) (*heap.Entry, error) {
	target, err := ref.Resolve()
	if err != nil {
		return nil, err
	}
	te, ok := e.heap.EntryOf(target)
	if !ok {
		return nil, fmt.Errorf("replication: ref target %v not in heap", ref.OID())
	}
	return te, nil
}

// frontierFor describes one outgoing reference for a peer site, exporting
// a proxy-in when the target is a master here.
func (e *Engine) frontierFor(ref *objmodel.Ref) (FrontierRef, error) {
	toid := ref.OID()
	if !ref.IsResolved() {
		// The reference is itself proxied here: forward the upstream
		// provider (third-site chains).
		if pout, ok := ref.Faulter().(*ProxyOut); ok {
			return FrontierRef{OID: uint64(toid), Provider: pout.provider}, nil
		}
		return FrontierRef{}, fmt.Errorf("replication: unresolved ref %v has no proxy-out", toid)
	}
	te, err := e.targetEntry(ref)
	if err != nil {
		return FrontierRef{}, err
	}
	// A local master, or a replica with a provider of its own, can be
	// demanded from there directly.
	prov := te.Provider()
	if te.Role == heap.Master {
		if prov, err = e.exportProxyIn(te); err != nil {
			return FrontierRef{}, err
		}
	}
	if prov.IsZero() {
		return FrontierRef{}, fmt.Errorf("replication: no route to %v", toid)
	}
	return FrontierRef{OID: uint64(toid), Provider: prov}, nil
}

// materialize installs a payload into the local heap: replicas are created
// or refreshed, references bound, frontier proxy-outs created. It returns
// the root object. sc parents the "materialize" span — on the demand path
// it is the fault span, so the trace reads fault → rmi:get → serve:get →
// assemble on the provider, then materialize back here. now is the
// reading the reply arrived at: the span starts at it, and every replica
// installed is fetched at it. end is the reading the span ended at (zero
// with telemetry off), which the caller may go on with.
func (e *Engine) materialize(sc telemetry.SpanContext, now time.Time, p *Payload) (root any, end time.Time, err error) {
	span := e.tel.StartSpan(sc, "materialize", now)
	span.AnnotateOID("oid", p.Root())
	span.AnnotateUint("objects", uint64(len(p.Objects)))
	defer func() {
		span.SetErr(err)
		if end.IsZero() {
			end = e.telNow()
		}
		span.End(end)
	}()
	frontier := frontierMap(p.Frontier)

	touched := make([]*heap.Entry, 0, len(p.Objects))
	var memberOIDs []objmodel.OID
	// p is a reply frame's alone (wire.Decode borrows), so a fresh replica
	// may keep its state where it arrived when nothing else in the frame
	// outlives it differently: cluster members are evicted only together,
	// and a one-object frame is mostly its state. A batch of several
	// objects copies, since EvictColdest drops its members one at a time.
	adopt := p.Clustered || len(p.Objects) == 1

	// Pass 1: instantiate or refresh every shipped object, so that pass 2
	// can bind intra-payload references to live instances.
	for i := range p.Objects {
		rec := &p.Objects[i]
		oid := objmodel.OID(rec.OID)
		if p.Clustered {
			memberOIDs = append(memberOIDs, oid)
		}
		held, _ := e.heap.Get(oid)
		if held != nil && held.Role == heap.Master {
			continue // state bounced back to this site's own master: keep ours
		}
		entry, err := e.installReplica(held, rec, now, adopt)
		if err != nil {
			return nil, end, err
		}
		if held == nil {
			if p.Clustered {
				entry.SetProvider(p.ClusterProvider, objmodel.OID(p.Root()))
			} else {
				entry.SetProvider(rec.Provider, 0)
			}
		}
		touched = append(touched, entry)
	}

	if p.Clustered && len(memberOIDs) > 0 {
		rootOID := objmodel.OID(p.Root())
		e.mu.Lock()
		e.clusters[rootOID] = memberOIDs
		for _, m := range memberOIDs {
			e.inCluster[m] = rootOID
		}
		e.mu.Unlock()
	}

	// Pass 2: bind references, each object under its state lock (a replica
	// may concurrently serve captures for onward replication).
	for _, entry := range touched {
		if err := e.bindEntry(entry, frontier, p.Spec); err != nil {
			return nil, end, err
		}
	}

	// Remember group routes: every shipped object is mastered by the
	// sending group, and so is every frontier target the group itself
	// serves (its provider address is a member).
	if len(p.Group) > 0 {
		member := make(map[transport.Addr]bool, len(p.Group))
		for _, m := range p.Group {
			member[m] = true
		}
		for _, rec := range p.Objects {
			e.recordGroup(objmodel.OID(rec.OID), p.Group)
		}
		for _, fr := range p.Frontier {
			if member[fr.Provider.Addr] {
				e.recordGroup(objmodel.OID(fr.OID), p.Group)
			}
		}
	}

	rootEntry, ok := e.heap.Get(objmodel.OID(p.Root()))
	if !ok {
		return nil, end, fmt.Errorf("replication: payload root %d missing after materialization", p.Root())
	}
	end = e.telNow()
	e.emit(Event{
		Kind: EventPayloadMaterialized, OID: rootEntry.OID, Objects: len(p.Objects),
		Bytes: payloadBytes(p), Frontier: len(p.Frontier), Clustered: p.Clustered,
	}, end)
	return rootEntry.Obj, end, nil
}

// installReplica is the one install of an image arriving at this site for
// a replica, whether a demanded or refreshed payload record or a pushed
// update: restore the state, stamp the replica clean at the image's
// version with a renewed lease, and retract the journaled dirty edit the
// image overwrote, if any. held is the replica's entry; nil means the
// object is not held yet, and it is instantiated from the image (the
// caller owes the new entry its provider); with adopt it takes the image's
// bytes as its own (objmodel.AdoptState), which the caller allows only when
// the rest of the frame shares the new replica's fate. A held replica is
// always restored by copy. References are bound afterwards (bindEntry),
// once every object they may lead to is in place.
func (e *Engine) installReplica(held *heap.Entry, rec *ObjectRecord, now time.Time, adopt bool) (*heap.Entry, error) {
	if held == nil {
		info, ok := objmodel.InfoByName(rec.TypeName)
		if !ok {
			return nil, fmt.Errorf("replication: unknown type %q in payload", rec.TypeName)
		}
		obj := info.New()
		restore := objmodel.RestoreState
		if adopt {
			restore = objmodel.AdoptState
		}
		// Unpublished until AddReplica: no state lock to take.
		if err := restore(e.reg, obj, rec.State); err != nil {
			return nil, err
		}
		var fresh bool
		if held, fresh = e.heap.AddReplica(obj, objmodel.OID(rec.OID), rec.TypeName, rec.Version); fresh {
			held.Touch(now)
			return held, nil
		}
		// Raced with another materialization: install over the winner.
	}
	held.LockState()
	err := objmodel.RestoreState(e.reg, held.Obj, rec.State)
	if err == nil {
		held.SetVersion(rec.Version) // with the state it goes with (captureEntry)
	}
	held.UnlockState()
	if err != nil {
		return nil, err
	}
	held.Touch(now)
	held.SetDirty(false)
	return held, e.journalCleanReplica(held.OID, rec.Version)
}

// InstallPushed installs an image the master pushed (update
// dissemination) over the replica at entry, binding its references
// through frontier: what a refresh does with a fetched payload record.
func (e *Engine) InstallPushed(entry *heap.Entry, rec *ObjectRecord, frontier []FrontierRef) error {
	if _, err := e.installReplica(entry, rec, e.rt.Clock().Now(), false); err != nil {
		return err
	}
	return e.bindEntry(entry, frontierMap(frontier), DefaultSpec)
}

// bindEntry binds entry's unresolved references under its state lock.
func (e *Engine) bindEntry(entry *heap.Entry, frontier map[objmodel.OID]FrontierRef, spec GetSpec) error {
	entry.LockState()
	defer entry.UnlockState()
	return e.bindRefs(entry.Obj, frontier, spec)
}

// frontierMap indexes frontier descriptors by target OID, the form bindRefs
// consumes (nil for none: the map is only read).
func frontierMap(frontier []FrontierRef) map[objmodel.OID]FrontierRef {
	if len(frontier) == 0 {
		return nil
	}
	m := make(map[objmodel.OID]FrontierRef, len(frontier))
	for _, fr := range frontier {
		m[objmodel.OID(fr.OID)] = fr
	}
	return m
}

// bindRefs binds every unresolved reference of obj: to a local object when
// the target is here, otherwise to a frontier proxy-out.
func (e *Engine) bindRefs(obj any, frontier map[objmodel.OID]FrontierRef, spec GetSpec) error {
	var buf [4]*objmodel.Ref
	for _, ref := range objmodel.AppendRefs(buf[:0], obj) {
		e.invokeLog.Observe(ref)
		if ref.IsResolved() {
			continue
		}
		toid := ref.OID()
		if toid == 0 {
			return objmodel.ErrUnboundRef
		}
		if te, ok := e.heap.Get(toid); ok {
			ref.BindLocal(te.Obj, toid)
			if prov := te.Provider(); !prov.IsZero() {
				ref.SetRemote(&remoteInvoker{eng: e, provider: prov, oid: toid})
			}
			continue
		}
		fr, ok := frontier[toid]
		if !ok {
			return fmt.Errorf("replication: reference to %v has no frontier descriptor", toid)
		}
		pout := e.newProxyOut(toid, fr.Provider, spec)
		ref.BindFault(toid, pout, pout)
	}
	return nil
}

// The client side moves data with the paper's two operations, each
// written once: fetch is get (a fault, a programmatic Replicate and a
// Refresh are its three callers) and ship is put (for one object or for
// the cluster it arrived in). Every entry point takes the causal parent
// first; the zero SpanContext roots a new trace when telemetry is on.

// Replicate demands ref's target explicitly with spec, overriding the
// ref's inherited replication parameters — the paper's programmatic
// get(mode). It is a no-op on already-resolved refs. The demand's fault
// span, and everything the demand causes on other sites, is recorded
// beneath sc.
func (e *Engine) Replicate(sc telemetry.SpanContext, ref *objmodel.Ref, spec GetSpec) (any, error) {
	if ref.IsResolved() {
		return ref.Resolve()
	}
	pout, ok := ref.Faulter().(*ProxyOut)
	if !ok {
		return nil, objmodel.ErrUnboundRef
	}
	local, remote, err := pout.demand(sc, spec.normalize())
	if err != nil {
		return nil, err
	}
	ref.BindLocal(local, ref.OID())
	if remote != nil {
		ref.SetRemote(remote)
	}
	return local, nil
}

// Refresh re-fetches a replica's state from its master (the get-refresh
// path of §2.2 step 3). Cluster members refresh their whole cluster.
func (e *Engine) Refresh(sc telemetry.SpanContext, obj any) error {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role != heap.Replica {
		return ErrNotReplica
	}
	prov := entry.Provider()
	if prov.IsZero() {
		return ErrNoProvider
	}
	spec := GetSpec{Mode: Incremental, Batch: 1}
	if root := entry.ClusterRoot(); root != 0 {
		spec = GetSpec{Mode: Incremental, Batch: len(e.clusterMembers(root)), Clustered: true}
	}
	_, _, err := e.fetch(sc, EventReplicaRefreshed, entry.OID, prov, spec)
	return err
}

// fetchNames is how each kind of fetch reads in traces ("fault" is the
// span of a demand, implicit or programmatic) and in errors.
var fetchNames = [...]struct{ span, op string }{
	EventFaultResolved:    {"fault", "demand"},
	EventReplicaRefreshed: {"refresh", "refresh"},
}

// fetch is the one client-side get: demand spec's worth of the graph at
// oid from prov (failing over across a master group), type-check the
// reply, materialize it, re-pin the replica to the member that answered,
// and report the step as kind. A fault (EventFaultResolved) is first tried
// against the heap, where the target may have arrived in someone else's
// batch; a refresh (EventReplicaRefreshed) always goes to the provider.
// It returns the root object and the provider to reach its master through.
func (e *Engine) fetch(sc telemetry.SpanContext, kind EventKind, oid objmodel.OID, prov rmi.RemoteRef, spec GetSpec) (root any, via rmi.RemoteRef, err error) {
	// Elapsed rides the runtime's clock, not the wall clock: under a virtual
	// clock the measured cost must be a pure function of the simulation
	// (profiler snapshots travel on federation scrape replies, so a wall
	// duration would perturb frame sizes and break replay determinism).
	// One reading starts the span, Elapsed and the call, the reply's
	// stamps the materialization, and materialize's end ends the fetch (a
	// reading of its own with telemetry off).
	clk := e.rt.Clock()
	start := clk.Now()
	now := start // the latest reading: where the span ends
	names := fetchNames[kind]
	span := e.tel.StartSpan(sc, names.span, start)
	span.AnnotateOID("oid", uint64(oid))
	defer func() {
		span.SetErr(err)
		span.End(now)
	}()
	if kind == EventFaultResolved && oid != 0 {
		// Identity dedupe binds to the replica already here, and reaches its
		// master through the entry's own provider when it has one.
		if entry, ok := e.heap.Get(oid); ok {
			e.gc.FaultServedFromHeap()
			span.Annotate("from_heap", "true")
			now = clk.Now()
			e.emit(Event{Kind: kind, OID: oid, FromHeap: true, Elapsed: now.Sub(start)}, now)
			if held := entry.Provider(); !held.IsZero() {
				prov = held
			}
			return entry.Obj, prov, nil
		}
	}
	res, winner, now, err := e.callFailover(span, start, oid, prov, BulkTimeout, true, "get", &spec)
	if err != nil {
		return nil, prov, fmt.Errorf("replication: %s %v from %v: %w", names.op, oid, prov, e.failUnavailable(names.op, oid, span.Context(), err, now))
	}
	payload, ok := res[0].(*Payload)
	if !ok {
		return nil, prov, fmt.Errorf("replication: %s %v: unexpected reply %T", names.op, oid, res[0])
	}
	// The member that answered wrote its own address as empty (assemble).
	payload.swapAddr("", winner.Addr)
	root, now, err = e.materialize(span.Context(), now, payload)
	if now.IsZero() { // telemetry is off: materialize read nothing
		now = clk.Now()
	}
	if err != nil {
		return nil, prov, err
	}
	if winner != prov {
		// A fresh replica is pinned by the payload, which the answering
		// member assembled; one that was here before still points at prov.
		if entry, ok := e.heap.Get(oid); ok && entry.Role == heap.Replica {
			e.repin(entry, winner)
		}
	}
	e.emit(Event{
		Kind: kind, OID: oid, Objects: len(payload.Objects),
		Bytes: payloadBytes(payload), Clustered: payload.Clustered, Elapsed: now.Sub(start),
	}, now)
	return root, winner, nil
}

// repin points a replica at the group member that answered for it, so the
// next call goes there first; a cluster member takes its cluster along.
func (e *Engine) repin(entry *heap.Entry, winner rmi.RemoteRef) {
	root := entry.ClusterRoot()
	if root == 0 {
		entry.SetProvider(winner, 0)
		return
	}
	for _, m := range e.clusterMembers(root) {
		if me, ok := e.heap.Get(m); ok {
			me.SetProvider(winner, root)
		}
	}
}

// clusterMembers returns the recorded members of the cluster rooted at root.
func (e *Engine) clusterMembers(root objmodel.OID) []objmodel.OID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]objmodel.OID(nil), e.clusters[root]...)
}

// Put ships a replica's state back to its master — the paper's put. The
// replica must have arrived outside a cluster (ErrClusterMember otherwise).
func (e *Engine) Put(sc telemetry.SpanContext, obj any) error { return e.ship(sc, obj, false) }

// PutCluster ships the unit obj arrived in back to the master: the whole
// cluster containing it, or obj alone when it is not a cluster member.
func (e *Engine) PutCluster(sc telemetry.SpanContext, obj any) error { return e.ship(sc, obj, true) }

// ship is the one client-side put: validate, capture a request per
// object, call put or putCluster (failing over across a master group),
// re-pin to the member that answered, and acknowledge every object
// shipped. The update is recorded as a "put" or "put.cluster" span beneath
// sc, and the master's apply joins the same trace. This is the one place
// that picks between the two wire calls; unit says whether the caller
// accepts a cluster going as a whole.
func (e *Engine) ship(sc telemetry.SpanContext, obj any, unit bool) (err error) {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role != heap.Replica {
		return ErrNotReplica
	}
	subject, name, key, method := entry.OID, "put", "oid", "put"
	members := []*heap.Entry{entry}
	cluster := entry.ClusterMember()
	if cluster {
		if !unit {
			return ErrClusterMember
		}
		subject, name, key, method = entry.ClusterRoot(), "put.cluster", "root", "putCluster"
		members = members[:0]
		for _, m := range e.clusterMembers(subject) {
			me, ok := e.heap.Get(m)
			if !ok {
				return fmt.Errorf("replication: cluster member %v evicted", m)
			}
			members = append(members, me)
		}
		if len(members) == 0 {
			return fmt.Errorf("replication: cluster %v has no recorded members", subject)
		}
	}
	prov := entry.Provider()
	if prov.IsZero() {
		return ErrNoProvider
	}
	span := e.tel.StartSpan(sc, name, e.telNow())
	span.AnnotateOID(key, uint64(subject))
	var end time.Time // the latest reading, where the span ends
	defer func() {
		span.SetErr(err)
		if end.IsZero() {
			end = e.telNow()
		}
		span.End(end)
	}()
	reqs := make([]PutRequest, len(members))
	for i, me := range members {
		if reqs[i], err = e.buildPutRequest(me); err != nil {
			return err
		}
	}
	var arg any = &reqs[0]
	if cluster {
		arg = &ClusterPutRequest{Members: reqs}
	}
	res, winner, end, err := e.callFailover(span, e.rt.Clock().Now(), subject, prov, BulkTimeout, true, method, arg)
	// No call sends arg again, so its states go back for the next put to
	// capture into; not sooner, as callFailover sends it to every member
	// it tries (rmi.Runtime.GiveBackCallState).
	for i := range reqs {
		e.rt.GiveBackCallState(reqs[i].State)
	}
	if err != nil {
		return fmt.Errorf("replication: %s %v: %w", name, subject, e.failUnavailable(name, subject, span.Context(), err, end))
	}
	if winner != prov {
		e.repin(entry, winner)
	}
	for i, me := range members {
		v, ok := ackedVersion(res[0], i, len(members))
		if !ok {
			return fmt.Errorf("replication: %s %v: unexpected reply %#v", name, subject, res[0])
		}
		if end, err = e.putAcked(me, v, end); err != nil {
			return err
		}
	}
	return nil
}

// ackedVersion reads the new version of the i-th of n shipped objects out
// of a put reply (one *PutReply) or a putCluster reply (one uint64 per
// member, in request order).
func ackedVersion(reply any, i, n int) (uint64, bool) {
	switch r := reply.(type) {
	case *PutReply:
		return r.NewVersion, n == 1
	case []any:
		if len(r) != n {
			return 0, false
		}
		v, ok := r[i].(uint64)
		return v, ok
	}
	return 0, false
}

// putAcked is the replica-side tail of every shipped put, single or
// cluster member: the master acknowledged entry's state at version v, so
// the replica is clean at v, its dirty record is retracted, and the
// shipment is reported. at is the latest reading; the shipment is stamped
// with it unless the journal was written since, and the reading it was
// stamped with is returned.
func (e *Engine) putAcked(entry *heap.Entry, v uint64, at time.Time) (time.Time, error) {
	entry.SetVersion(v)
	entry.SetDirty(false)
	if j := e.getJournal(); j != nil {
		if err := j.ReplicaCleaned(entry.OID, v); err != nil {
			return time.Time{}, err // the write waited: the caller reads afresh
		}
		at = e.telNow()
	}
	e.emit(Event{Kind: EventPutShipped, OID: entry.OID, Version: v}, at)
	return at, nil
}

// buildPutRequest captures a replica's state, into a buffer the runtime
// lends for its calls (ship gives it back), plus the frontier entries the
// master needs to rebind references it may not know.
func (e *Engine) buildPutRequest(entry *heap.Entry) (PutRequest, error) {
	state, version, err := e.captureEntry(entry, e.rt.LendCallState)
	if err != nil {
		return PutRequest{}, err
	}
	frontier, err := walkFrontier(entry, entry.Obj, make(map[objmodel.OID]bool), nil, e.frontierFor)
	return PutRequest{
		OID:         uint64(entry.OID),
		BaseVersion: version,
		State:       state,
		Frontier:    frontier,
	}, err
}

// A master-side put is the sequence admit → (agree) → install → record →
// notify, each step written once below. applyPut is the single-master
// composition, where agree is the identity; a grouped site runs admit at
// the leader (PreparePut), agrees the request through its log, and every
// member's replay runs install (ApplyReplicatedPut).

// recordedPut resolves req's master and consults its exactly-once guard.
// The rmi dedupe table dies with the process, and a failed-over client
// reaches a member that never saw the first arrival, so a retried put can
// arrive as a "new" call: the recorded (base, checksum) pair identifies it
// and reply carries the version the first apply produced. A nil reply
// means the put is new; crc is req.State's checksum either way.
func (e *Engine) recordedPut(req *PutRequest) (entry *heap.Entry, crc uint64, reply *PutReply, err error) {
	entry, ok := e.heap.Get(objmodel.OID(req.OID))
	if !ok {
		return nil, 0, nil, fmt.Errorf("%w: %d", heap.ErrUnknownObject, req.OID)
	}
	crc = stateCRC(req.State)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ap, ok := e.appliedPuts[entry.OID]; ok && ap.base == req.BaseVersion && ap.crc == crc {
		reply = &PutReply{NewVersion: ap.version}
	}
	return entry, crc, reply, nil
}

// admitPut is the admit step: a retry is answered from the guard (non-nil
// reply, nothing to install); a new put must pass the consistency policy.
func (e *Engine) admitPut(req *PutRequest) (entry *heap.Entry, crc uint64, reply *PutReply, err error) {
	entry, crc, reply, err = e.recordedPut(req)
	if err != nil || reply != nil {
		return entry, crc, reply, err
	}
	err = e.getPolicy().ApplyPut(entry.OID, entry.Version(), req.BaseVersion)
	return entry, crc, nil, err
}

// installPut is the install step: restore the shipped state, bump the
// version, and record the guard triple a retry will be answered from.
// Deterministic in (entry state, req), which is what lets group members
// replay it independently and stay identical. With adopt the master keeps
// req.State's bytes: the caller owns the buffer behind req, and crc was
// taken before the install, so a later edit of the master cannot move
// the guard.
func (e *Engine) installPut(entry *heap.Entry, req *PutRequest, crc uint64, adopt bool) (*PutReply, error) {
	v, err := e.restoreEntry(entry, req.State, frontierMap(req.Frontier), DefaultSpec, true, adopt)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.appliedPuts[entry.OID] = appliedPut{base: req.BaseVersion, crc: crc, version: v}
	e.mu.Unlock()
	return &PutReply{NewVersion: v}, nil
}

// applyPut applies an inbound update at a single master (called by
// ProxyIn). sc parents the "put.apply" span — the serve span of the
// inbound Put — and at is that span's reading (zero: read here). adopt is
// installPut's.
func (e *Engine) applyPut(sc telemetry.SpanContext, at time.Time, req *PutRequest, adopt bool) (reply *PutReply, err error) {
	if at.IsZero() {
		at = e.telNow()
	}
	span := e.tel.StartSpan(sc, "put.apply", at)
	span.AnnotateOID("oid", req.OID)
	var end time.Time // the reading the applied event is stamped with
	defer func() {
		span.SetErr(err)
		if end.IsZero() {
			end = e.telNow()
		}
		span.Phase(telemetry.PhaseApply, end.Sub(at))
		span.End(end)
	}()
	entry, crc, reply, err := e.admitPut(req)
	if err != nil {
		return nil, err
	}
	if reply == nil {
		if reply, err = e.installPut(entry, req, crc, adopt); err != nil {
			return nil, err
		}
		// The journal write is the durability cost of the put: encode +
		// WAL append + group-commit fsync. Billed as the fsync phase so
		// attribution separates "the disk is slow" from apply proper; an
		// engine without a journal writes nothing and times nothing.
		timed := span != nil && e.getJournal() != nil
		var jStart time.Time
		if timed {
			jStart = e.rt.Clock().Now()
		}
		if err := e.journalMaster(entry); err != nil {
			return nil, err
		}
		if timed {
			span.Phase(telemetry.PhaseFsync, e.rt.Clock().Now().Sub(jStart))
		}
		e.getPolicy().MasterUpdated(entry.OID, reply.NewVersion)
		end = e.telNow()
		e.emit(Event{Kind: EventPutApplied, OID: entry.OID, Version: reply.NewVersion, Base: req.BaseVersion, Checksum: crc}, end)
	}
	return reply, nil
}

// MarkUpdated records a state change. On masters it bumps the version and
// fires the MasterUpdated hook (driving invalidation-based consistency); on
// replicas it sets the dirty flag for the transaction layer.
func (e *Engine) MarkUpdated(obj any) error {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role == heap.Master {
		var v uint64
		var err error
		if g := e.masterGate(); g != nil {
			// Agree the update through the group log so every member's
			// copy (state and version) moves together; replay installs it
			// (ApplyReplicatedBump) and the hook fires here, at the
			// proposing member, once.
			v, err = g.RouteBump(entry)
		} else {
			v = entry.BumpVersion()
			err = e.journalMaster(entry)
		}
		if err != nil {
			return err
		}
		e.getPolicy().MasterUpdated(entry.OID, v)
		return nil
	}
	entry.SetDirty(true)
	return e.journalDirtyReplica(entry)
}

// getPolicy returns the current consistency policy.
func (e *Engine) getPolicy() Policy {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.policy
}

// ForgetCluster drops the client-side membership bookkeeping of the
// cluster rooted at root (after its replicas were evicted). Idempotent.
func (e *Engine) ForgetCluster(root objmodel.OID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.clusters[root] {
		delete(e.inCluster, m)
	}
	delete(e.clusters, root)
}

// CaptureSnapshot serializes obj's current state (for transaction
// pre-images and checkpoints), holding the heap entry's state lock if obj
// is heap-managed.
func (e *Engine) CaptureSnapshot(obj any) ([]byte, error) {
	if entry, ok := e.heap.EntryOf(obj); ok {
		state, _, err := e.captureEntry(entry, nil)
		return state, err
	}
	return objmodel.CaptureState(e.reg, obj)
}

// RestoreSnapshot restores obj from a snapshot taken with CaptureSnapshot
// and rebinds its references against the local heap only: a local
// snapshot (a transaction rollback, say) refers to nothing that is not
// already here.
func (e *Engine) RestoreSnapshot(obj any, state []byte) error {
	return e.RestoreWithFrontier(obj, state, nil)
}

// BuildFrontier returns the frontier descriptors for every reference obj
// currently holds — what a peer site needs to rebind those references
// after restoring obj's state (used by update dissemination).
func (e *Engine) BuildFrontier(obj any) ([]FrontierRef, error) {
	return e.frontierOf(obj, e.frontierFor)
}

// RestoreWithFrontier restores obj from state and rebinds its references:
// locally where the targets exist, through fresh proxy-outs built from the
// frontier otherwise.
func (e *Engine) RestoreWithFrontier(obj any, state []byte, frontier []FrontierRef) error {
	fmap := frontierMap(frontier)
	if entry, ok := e.heap.EntryOf(obj); ok {
		_, err := e.restoreEntry(entry, state, fmap, DefaultSpec, false, false)
		return err
	}
	if err := objmodel.RestoreState(e.reg, obj, state); err != nil {
		return err
	}
	return e.bindRefs(obj, fmap, DefaultSpec)
}
