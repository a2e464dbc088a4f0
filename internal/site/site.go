// Package site composes the OBIWAN runtime services — RMI, heap,
// replication engine, QoS monitor, name-server client, and consistency
// plumbing — into the process-level abstraction the paper calls a site.
//
// "OBIWAN gives to the application programmer the view of a network of
// machines in which one or more processes run; objects exist inside
// processes" (§2). A Site is one such process: it registers master
// objects, exports graph roots, looks up remote roots by name, and carries
// the mobility machinery (disconnected operation, dirty-replica sync,
// invalidation sinks, leases).
package site

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"obiwan/internal/admin"
	"obiwan/internal/consensus"
	"obiwan/internal/consistency"
	"obiwan/internal/dissemination"
	"obiwan/internal/eventual"
	"obiwan/internal/fleet"
	"obiwan/internal/heap"
	"obiwan/internal/nameserver"
	"obiwan/internal/objmodel"
	"obiwan/internal/qos"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/txn"
	"obiwan/internal/wal"
)

// Well-known object ids, at which New exports each service so that peers
// address it without discovery. The admin package owns the admin id, so
// fleet collectors reach peers without importing this one. ExportWithID
// advances the id allocator as Export would: later proxy-ins follow.
const (
	sinkID        rmi.ObjID = 1
	updateSinkID  rmi.ObjID = 2
	adminID                 = admin.WellKnownID
	consensusID   rmi.ObjID = 4
	antiEntropyID rmi.ObjID = 5
)

// ErrNoNameServer is returned by name operations on sites built without
// a name server.
var ErrNoNameServer = errors.New("site: no name server configured")

// Option configures a Site.
type Option func(*options)

type options struct {
	siteID      uint16
	nsAddr      transport.Addr
	policy      replication.Policy
	invalidate  bool
	lease       *consistency.Lease
	defaultSpec replication.GetSpec
	callTimeout time.Duration
	retry       *rmi.RetryPolicy
	walDir      string
	tel         *telemetry.Hub
	noTel       bool
	noSampler   bool
	group       *GroupConfig
	eventual    bool
	fleetPeers  []transport.Addr
	fleetOpts   []fleet.Option
}

// WithSiteID fixes the site's identity prefix for minted OIDs. Defaults to
// a hash of the site name.
func WithSiteID(id uint16) Option { return func(o *options) { o.siteID = id } }

// WithNameServer points the site at a standalone name server.
func WithNameServer(addr transport.Addr) Option { return func(o *options) { o.nsAddr = addr } }

// WithPolicy installs a master-side consistency policy.
func WithPolicy(p replication.Policy) Option { return func(o *options) { o.policy = p } }

// WithInvalidation enables invalidation-based consistency: this site (as a
// master) notifies replica holders on every update, and (as a client)
// records in the stale ledger what its sink receives (every site exports
// one). The site composes its policies into one chain, in this order:
// Tentative (WithEventual), the WithPolicy policy, Invalidation, then the
// publisher once EnableDissemination runs. A put is rejected by the first
// member that rejects it, and every member hears every ReplicaCreated and
// MasterUpdated, so a WithPolicy policy's hooks fire under every option.
func WithInvalidation() Option { return func(o *options) { o.invalidate = true } }

// WithLease installs a client-side lease: replicas older than ttl are
// reported by LeaseExpired and refreshed by RefreshExpired.
func WithLease(ttl time.Duration) Option {
	return func(o *options) { o.lease = consistency.NewLease(ttl) }
}

// WithDefaultSpec sets the replication spec used by Lookup when none is
// given explicitly.
func WithDefaultSpec(spec replication.GetSpec) Option {
	return func(o *options) { o.defaultSpec = spec }
}

// WithCallTimeout sets the RMI per-call timeout.
func WithCallTimeout(d time.Duration) Option { return func(o *options) { o.callTimeout = d } }

// WithRetry sets the RMI retry policy for this site's outbound calls
// (default rmi.DefaultRetryPolicy; use rmi.RetryPolicy{MaxAttempts: 1} to fail fast).
func WithRetry(p rmi.RetryPolicy) Option { return func(o *options) { o.retry = &p } }

// WithDurability makes the site crash-durable: master mutations, dirty
// replica edits, proxy-in exports, and name bindings are journaled to a
// write-ahead log in dir before being acknowledged. Creating a site over
// a non-empty dir recovers the previous incarnation: masters and their
// versions, offline edits (dirty replicas, ready for SyncDirty), proxy-in
// exports at the ids remote replicas already hold, and name-server
// registrations. Each rebirth runs under a fresh persisted incarnation
// number, so peers never confuse it with its previous life.
func WithDurability(dir string) Option { return func(o *options) { o.walDir = dir } }

// WithTelemetry installs a custom telemetry hub. By default a site creates
// its own enabled hub named after itself. Either way the hub reads no
// clock: everything it records is stamped with the runtime's clock, the
// network's (netsim.ClockProvider), so a site on a virtual network traces
// on virtual time.
func WithTelemetry(h *telemetry.Hub) Option { return func(o *options) { o.tel = h } }

// WithoutTelemetry disables tracing and metrics for this site. Every
// instrument call collapses to a nil-check no-op, and the admin Scrape
// endpoint reports an empty chunk.
func WithoutTelemetry() Option { return func(o *options) { o.noTel = true } }

// WithoutRuntimeSampler keeps the site from starting the wall-clock go.*
// gauge sampler. Deterministic harnesses need this when telemetry is on:
// the sampled process state (heap bytes, goroutine count) differs between
// runs, and once those gauges ride a federation scrape reply they change
// frame sizes and hence simulated transfer times.
func WithoutRuntimeSampler() Option { return func(o *options) { o.noSampler = true } }

// Site is one OBIWAN process.
type Site struct {
	name    string
	rt      *rmi.Runtime
	heap    *heap.Heap
	engine  *replication.Engine
	monitor *qos.Monitor
	ns      *nameserver.Client
	stale   *consistency.StaleSet
	lease   *consistency.Lease
	spec    replication.GetSpec
	applier *dissemination.Applier
	tel     *telemetry.Hub // nil when built WithoutTelemetry

	// stopSampler halts the runtime-stats sampling goroutine; no-op func
	// when telemetry is off.
	stopSampler func()

	// met holds the site-level instruments, pre-resolved once at
	// construction; all are nil-safe no-ops when telemetry is off.
	met struct {
		syncedDirty    *telemetry.Counter
		refreshedStale *telemetry.Counter
		compactions    *telemetry.Counter
		walFsync       *telemetry.Histogram
		walFsyncWait   *telemetry.Histogram
		staleReplicas  *telemetry.Gauge
	}

	durable  *durability      // nil for in-memory sites
	fleet    *fleet.Collector // nil unless built WithFleet
	group    *Group           // nil for single-master sites
	eventual *eventual.Store  // nil unless built WithEventual
	txnMgr   *txn.Manager     // lazily built by TxnManager

	policies policyChain // the engine's chain until EnableDissemination

	mu        sync.Mutex
	publisher *dissemination.Publisher

	closeOnce sync.Once
	closeErr  error
}

// New starts a site named name on network. The name doubles as the
// listen address on simulated networks; on TCP pass "host:port" via the
// name and a human name via the options if desired.
func New(name string, network transport.Network, opts ...Option) (_ *Site, err error) {
	o := &options{
		defaultSpec: replication.DefaultSpec,
		callTimeout: 10 * time.Second,
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.siteID == 0 {
		if o.group != nil {
			// Group members share one OID prefix: any member may mint
			// identities (whoever leads), and every member must accept
			// them as its own in AddMasterWithOID replay.
			o.siteID = hashSiteID("group:" + o.group.groupName())
		} else {
			o.siteID = hashSiteID(name)
		}
	}
	hub := o.tel
	if hub == nil && !o.noTel {
		hub = telemetry.NewHub(name)
	}
	if o.noTel {
		hub = nil
	}

	// If New fails, whatever it has built by then is released here, in
	// Close's order: the consensus node, the runtime, the WAL.
	var (
		store     *wal.Store
		recovered *wal.Recovered
		rt        *rmi.Runtime
		s         *Site
	)
	defer func() {
		if err == nil {
			return
		}
		if s != nil && s.group != nil {
			_ = s.group.close()
		}
		if rt != nil {
			_ = rt.Close()
		}
		if store != nil {
			store.Close()
		}
	}()

	// Durable sites open their WAL before anything else: the persisted
	// incarnation number must flow into the RMI client identity, and the
	// directory is pinned to the site id so a WAL can never replay into a
	// heap that would mint foreign OIDs. Grouped sites skip the site
	// journal entirely — the consensus log (opened under the same dir by
	// newGroup) subsumes master durability, and replaying both would
	// double-apply.
	if o.walDir != "" && o.group == nil {
		store, recovered, err = wal.Open(o.walDir)
		if err != nil {
			return nil, fmt.Errorf("site %q: open wal: %w", name, err)
		}
		if err = store.BindSiteID(o.siteID); err != nil {
			return nil, fmt.Errorf("site %q: %w", name, err)
		}
	}

	monitor := qos.NewMonitor()
	rtOpts := []rmi.Option{
		rmi.WithObserver(monitor.Observe),
		rmi.WithCallTimeout(o.callTimeout),
		rmi.WithTelemetry(hub),
	}
	if o.retry != nil {
		rtOpts = append(rtOpts, rmi.WithRetryPolicy(*o.retry))
	}
	if store != nil {
		rtOpts = append(rtOpts, rmi.WithIncarnation(store.Incarnation()))
	}
	rt, err = rmi.NewRuntime(network, transport.Addr(name), rtOpts...)
	if err != nil {
		return nil, fmt.Errorf("site %q: %w", name, err)
	}

	s = &Site{
		name:    name,
		rt:      rt,
		heap:    heap.New(o.siteID),
		monitor: monitor,
		stale:   consistency.NewStaleSet(),
		lease:   o.lease,
		spec:    o.defaultSpec,
		tel:     hub,
	}
	if s.lease != nil && s.lease.Clock == nil {
		// Leases age on the runtime's clock, not the wall clock, so expiry
		// is deterministic under netsim's VirtualClock.
		s.lease.Clock = rt.Clock().Now
	}
	if m := hub.Metrics(); m != nil {
		s.met.syncedDirty = m.Counter("site.sync.dirty")
		s.met.refreshedStale = m.Counter("site.refresh.stale")
		s.met.compactions = m.Counter("wal.compactions")
		s.met.walFsync = m.Histogram("wal.fsync_ns")
		s.met.walFsyncWait = m.Histogram("wal.fsync.wait_ns")
		s.met.staleReplicas = m.Gauge("site.stale.replicas")
		// The gauge tracks the stale ledger through its observer hook, so
		// every mutation path (invalidation sink, self-notify, refresh)
		// updates it; with telemetry off the hook stays nil and the
		// invalidation path pays nothing.
		gauge := s.met.staleReplicas
		s.stale.SetObserver(func(n int) { gauge.Set(int64(n)) })
	}
	if store != nil && hub.Enabled() {
		// Bridge WAL group-commit timings into the registry without the
		// wal package importing telemetry: fsync proper and the time a
		// writer spent queued behind another writer's sync land in
		// separate histograms, so attribution can tell "the disk is
		// slow" from "the commit queue is deep". ObserveDuration is
		// lock-free, so running it under the store's sync mutex is fine.
		fsyncH, waitH := s.met.walFsync, s.met.walFsyncWait
		store.SetSyncObserver(func(wait, fsync time.Duration) {
			if wait > 0 {
				waitH.ObserveDuration(wait)
			}
			if fsync > 0 {
				fsyncH.ObserveDuration(fsync)
			}
		})
	}

	// The policy chain, in WithInvalidation's order. With no member the
	// engine keeps its accept-all default.
	if o.eventual {
		// Log-managed objects must change only through update functions:
		// a raw state put would fork from the committed prefix. Tentative
		// leads the chain, so it rejects such a put before any other
		// member decides. The closure late-binds the store, which needs
		// the engine and so is built a few lines down.
		s.policies = append(s.policies, consistency.NewTentative(func(oid objmodel.OID) bool {
			ev := s.eventual
			return ev != nil && ev.Managed(oid)
		}))
	}
	if o.policy != nil {
		s.policies = append(s.policies, o.policy)
	}
	if o.invalidate {
		s.policies = append(s.policies, consistency.NewInvalidation(s.notifyHolder))
	}
	engineOpts := []replication.Option{
		replication.WithCrossover(s.crossover),
		replication.WithTelemetry(hub),
	}
	if len(s.policies) > 0 {
		engineOpts = append(engineOpts, replication.WithPolicy(s.policies))
	}
	s.engine = replication.NewEngine(rt, s.heap, engineOpts...)
	s.applier = dissemination.NewApplier(s.engine)

	var fleetSrc admin.FleetSource // stays a nil interface without a collector
	if len(o.fleetPeers) > 0 {
		fleetOpts := append([]fleet.Option{fleet.WithFlight(hub.Flight())}, o.fleetOpts...)
		s.fleet = fleet.New(rt, o.fleetPeers, fleetOpts...)
		fleetSrc = s.fleet
	}
	if o.eventual {
		s.eventual = eventual.NewStore(name, s.engine, hub)
	}

	if o.nsAddr != "" {
		s.ns = nameserver.NewClient(rt, nameserver.WellKnownRef(o.nsAddr))
	}

	if o.group != nil {
		s.group, err = newGroup(s, o)
		if err != nil {
			return nil, err
		}
		s.engine.SetMasterGate(s.group)
	}

	// The well-known services; only a grouped site serves consensusID and
	// only a WithEventual site antiEntropyID.
	_, err = rt.ExportWithID(sinkID, &invalidationSink{stale: s.stale})
	if err == nil {
		_, err = rt.ExportWithID(updateSinkID, &updateSink{site: s})
	}
	if err == nil {
		_, err = rt.ExportWithID(adminID, admin.NewService(name, rt, s.heap, s.engine, hub, fleetSrc))
	}
	if err == nil && s.group != nil {
		_, err = rt.ExportWithID(consensusID, consensus.NewService(s.group.node))
	}
	if err == nil && s.eventual != nil {
		_, err = rt.ExportWithID(antiEntropyID, &antiEntropySink{store: s.eventual})
	}
	if err != nil {
		return nil, fmt.Errorf("site %q: export well-known service: %w", name, err)
	}

	if store != nil {
		d := newDurability(s, store)
		s.durable = d
		// Recovery runs before the journal is installed (it must not
		// re-journal what it replays); the immediate compaction then
		// snapshots the rebuilt state and empties the log.
		if err = d.recover(recovered.Records()); err != nil {
			return nil, fmt.Errorf("site %q: recover: %w", name, err)
		}
		s.engine.SetJournal(d)
		if s.eventual != nil {
			s.eventual.SetJournal(d)
		}
		if err = d.compactNow(); err != nil {
			return nil, fmt.Errorf("site %q: compact after recovery: %w", name, err)
		}
		d.startCompactor()
		// A second (or later) incarnation means the previous life ended —
		// cleanly or not. Preserve the moment in the flight recorder so a
		// post-mortem can correlate recovery with what followed.
		if f := hub.Flight(); f != nil && store.Incarnation() > 1 {
			at := rt.Clock().Now()
			f.Record(telemetry.FlightEvent{
				AtNS: at.UnixNano(), Kind: "site.recovery",
				Detail: fmt.Sprintf("incarnation=%d records=%d", store.Incarnation(), len(recovered.Records())),
			})
			f.Dump("crash recovery", at)
		}
	}
	if !o.noSampler {
		s.stopSampler = hub.StartRuntimeSampler(10 * time.Second)
	}
	return s, nil
}

// AdminRef builds the reference to the admin service of the site at addr.
func AdminRef(addr transport.Addr) rmi.RemoteRef { return admin.Ref(addr) }

// Admin returns a client for a peer site's admin service, calling from
// this site: Report for heap and traffic state, Scrape (or Drain) for
// every telemetry view, Flight for the last post-mortem dump.
func (s *Site) Admin(addr transport.Addr) *admin.Client {
	return admin.NewClient(s.rt, AdminRef(addr))
}

// hashSiteID derives a stable non-zero 16-bit id from the site name (FNV-1a).
func hashSiteID(name string) uint16 {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	id := uint16(h ^ (h >> 16))
	if id == 0 {
		id = 1
	}
	return id
}

// crossover implements the ModeAuto decision using per-peer advisors fed
// by the site's replication profiler: measured demand latency replaces
// the assumed fetch factor once the site has observed real demands.
func (s *Site) crossover(peer transport.Addr, oid objmodel.OID, calls uint64) bool {
	return qos.NewProfiledAdvisor(s.monitor, peer, s.tel.Profiler()).Crossover(oid, calls)
}

// notifyHolder delivers an invalidation to a holder site's sink.
func (s *Site) notifyHolder(holder string, oid objmodel.OID, version uint64) error {
	if holder == s.name {
		s.stale.MarkStale(oid, version)
		return nil
	}
	ref := rmi.RemoteRef{Addr: transport.Addr(holder), ID: sinkID}
	_, err := s.rt.Call(ref, "Invalidate", uint64(oid), version)
	return err
}

// invalidationSink receives invalidations over RMI.
type invalidationSink struct {
	stale *consistency.StaleSet
}

// Invalidate records that oid has a newer master version.
func (k *invalidationSink) Invalidate(oid uint64, version uint64) {
	k.stale.MarkStale(objmodel.OID(oid), version)
}

// Name returns the site's name.
func (s *Site) Name() string { return s.name }

// Addr returns the site's RMI address.
func (s *Site) Addr() transport.Addr { return s.rt.Addr() }

// Engine exposes the replication engine for advanced use.
func (s *Site) Engine() *replication.Engine { return s.engine }

// Heap exposes the site's object store.
func (s *Site) Heap() *heap.Heap { return s.heap }

// Runtime exposes the RMI runtime.
func (s *Site) Runtime() *rmi.Runtime { return s.rt }

// Monitor exposes the QoS monitor.
func (s *Site) Monitor() *qos.Monitor { return s.monitor }

// Telemetry exposes the site's hub — nil when built WithoutTelemetry.
// Safe to call methods on either way: a nil hub no-ops.
func (s *Site) Telemetry() *telemetry.Hub { return s.tel }

// StaleSet exposes the invalidation ledger.
func (s *Site) StaleSet() *consistency.StaleSet { return s.stale }

// Group returns the site's master-group handle, or nil for single-master
// sites.
func (s *Site) Group() *Group { return s.group }

// Incarnation returns the persisted incarnation number of a durable site
// (1 for its first life), or 0 for in-memory sites.
func (s *Site) Incarnation() uint64 {
	if s.durable == nil {
		return 0
	}
	return s.durable.store.Incarnation()
}

// Close shuts the site down: it stops the background compactor, takes a
// final compaction snapshot, closes the RMI runtime, and flushes and
// closes the WAL. Idempotent — repeated calls return the first result.
func (s *Site) Close() error {
	s.closeOnce.Do(func() {
		if s.stopSampler != nil {
			s.stopSampler()
		}
		if s.durable != nil {
			s.durable.stop()
			// Best-effort: the log alone already holds everything the
			// snapshot would, so a failed final compaction loses nothing.
			_ = s.durable.compactNow()
		}
		if s.group != nil {
			// The node goes first: it stops proposing and closes the
			// consensus store before the RMI runtime its RPCs ride on.
			if err := s.group.close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if err := s.rt.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
		if s.durable != nil {
			if err := s.durable.store.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Kill hard-stops the site, simulating a crash: the RMI runtime closes
// (in-flight calls fail) and the WAL is abandoned without the flush,
// final compaction, or clean shutdown Close performs. The WAL directory
// is left exactly as a power failure would — recovery must cope.
func (s *Site) Kill() {
	s.closeOnce.Do(func() {
		if s.stopSampler != nil {
			s.stopSampler()
		}
		if s.durable != nil {
			s.durable.stop()
		}
		if s.group != nil {
			s.group.abandon()
		}
		s.closeErr = s.rt.Close()
		if s.durable != nil {
			s.durable.store.Abandon()
		}
	})
}

// Register adds obj as a master object at this site.
func (s *Site) Register(obj any) error {
	_, err := s.engine.RegisterMaster(obj)
	return err
}

// NewRef returns a resolved reference to a local object (registering it as
// a master if new) for wiring object graphs.
func (s *Site) NewRef(target any) (*objmodel.Ref, error) {
	return s.engine.NewRef(target)
}

// Export publishes obj's proxy-in and returns its descriptor.
func (s *Site) Export(obj any) (replication.Descriptor, error) {
	return s.engine.ExportObject(obj)
}

// Bind exports obj and registers its descriptor in the name server under
// name (replacing any previous binding).
func (s *Site) Bind(name string, obj any) error {
	if s.ns == nil {
		return ErrNoNameServer
	}
	d, err := s.Export(obj)
	if err != nil {
		return err
	}
	if s.group != nil {
		// Grouped sites agree the binding through the log first, so any
		// future leader can republish it if this member is lost.
		return s.group.Bind(name, d)
	}
	if err := s.ns.Rebind(name, d); err != nil {
		return err
	}
	if s.durable != nil {
		return s.durable.journalBind(name, d)
	}
	return nil
}

// Lookup resolves name at the name server and returns an unresolved
// reference that replicates with the site's default spec on first use.
func (s *Site) Lookup(name string) (*objmodel.Ref, error) {
	return s.LookupSpec(name, s.spec)
}

// LookupSpec is Lookup with an explicit replication spec.
func (s *Site) LookupSpec(name string, spec replication.GetSpec) (*objmodel.Ref, error) {
	if s.ns == nil {
		return nil, ErrNoNameServer
	}
	d, err := s.ns.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s.engine.RefFromDescriptor(d, spec), nil
}

// Replicate demands ref's target with an explicit spec (the run-time mode
// decision of §2.1).
func (s *Site) Replicate(ref *objmodel.Ref, spec replication.GetSpec) (any, error) {
	return s.engine.Replicate(telemetry.SpanContext{}, ref, spec)
}

// Put ships a replica's state back to its master.
func (s *Site) Put(obj any) error { return s.engine.Put(telemetry.SpanContext{}, obj) }

// PutCluster ships the whole cluster containing obj back to its master.
func (s *Site) PutCluster(obj any) error { return s.engine.PutCluster(telemetry.SpanContext{}, obj) }

// Refresh re-fetches a replica's state from its master and clears its
// staleness mark.
func (s *Site) Refresh(obj any) error {
	if err := s.engine.Refresh(telemetry.SpanContext{}, obj); err != nil {
		return err
	}
	if e, ok := s.heap.EntryOf(obj); ok {
		s.stale.Clear(e.OID)
	}
	return nil
}

// MarkUpdated records a local state change: version bump + invalidations
// on masters, dirty flag on replicas.
func (s *Site) MarkUpdated(obj any) error { return s.engine.MarkUpdated(obj) }

// DirtyReplicas returns the replicas with unsaved local modifications.
func (s *Site) DirtyReplicas() []any {
	var out []any
	for _, e := range s.heap.Entries() {
		if e.Role == heap.Replica && e.Dirty() {
			out = append(out, e.Obj)
		}
	}
	return out
}

// SyncDirty puts every dirty replica back to its master — the
// reconnection step of the paper's mobile scenario — each as the unit it
// arrived in, a cluster once however many members are dirty. It returns
// the number of units synced and the first error encountered (sync
// continues past errors so one conflicted object does not strand the rest).
func (s *Site) SyncDirty() (int, error) {
	var firstErr error
	synced := 0
	tried := make(map[objmodel.OID]bool) // cluster roots
	entries := s.heap.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].OID < entries[j].OID })
	for _, e := range entries {
		if e.Role != heap.Replica || !e.Dirty() {
			continue
		}
		if root := e.ClusterRoot(); root != 0 {
			if tried[root] {
				continue
			}
			tried[root] = true
		}
		if err := s.engine.PutCluster(telemetry.SpanContext{}, e.Obj); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("sync %v: %w", e.OID, err)
			}
			continue
		}
		synced++
		s.met.syncedDirty.Inc()
	}
	return synced, firstErr
}

// refreshAll refreshes every entry, past errors, counting in done.
func (s *Site) refreshAll(entries []*heap.Entry, done *telemetry.Counter) (int, error) {
	var firstErr error
	refreshed := 0
	for _, e := range entries {
		if err := s.Refresh(e.Obj); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("refresh %v: %w", e.OID, err)
			}
			continue
		}
		refreshed++
		done.Inc()
	}
	return refreshed, firstErr
}

// RefreshStale refreshes every replica marked stale by invalidations.
// It returns the number refreshed and the first error encountered.
func (s *Site) RefreshStale() (int, error) {
	var stale []*heap.Entry
	for _, oid := range s.stale.Stale() {
		if e, ok := s.heap.Get(oid); ok {
			stale = append(stale, e)
		} else {
			s.stale.Clear(oid) // evicted: nothing to refresh
		}
	}
	return s.refreshAll(stale, s.met.refreshedStale)
}

// leaseExpired returns the replicas whose lease has run out.
func (s *Site) leaseExpired() []*heap.Entry {
	if s.lease == nil {
		return nil
	}
	var out []*heap.Entry
	for _, e := range s.heap.Entries() {
		if e.Role == heap.Replica && s.lease.Expired(e.FetchedAt()) {
			out = append(out, e)
		}
	}
	return out
}

// LeaseExpired returns the replicas whose lease has run out. Without a
// configured lease it returns nil.
func (s *Site) LeaseExpired() []any {
	var out []any
	for _, e := range s.leaseExpired() {
		out = append(out, e.Obj)
	}
	return out
}

// RefreshExpired refreshes every lease-expired replica. It returns the
// number refreshed and the first error encountered.
func (s *Site) RefreshExpired() (int, error) {
	return s.refreshAll(s.leaseExpired(), nil)
}
