// Package obiwan is the public API of the OBIWAN middleware platform — a
// from-scratch Go implementation of "Incremental Replication for Mobility
// Support in OBIWAN" (Veiga & Ferreira, ICDCS 2002).
//
// OBIWAN lets a distributed application decide, at run time, how each
// object is invoked: remotely over RMI, or locally on a replica that is
// brought over on demand. Object graphs replicate incrementally: fetching
// an object ships proxy stand-ins for everything it references, and
// invoking through such a reference raises an object fault that demands
// the next object — or the next batch, or the next cluster — after which
// the reference is spliced to the fresh replica and later calls are
// direct.
//
// # Model
//
// An OBIWAN object is a pointer to a struct registered with RegisterType.
// Objects reference each other only through *Ref fields; everything else
// in the struct is the object's replicable state:
//
//	type Doc struct {
//		Title string
//		Next  *obiwan.Ref
//	}
//	func (d *Doc) Read() string { return d.Title }
//
//	func init() { obiwan.MustRegisterType("app.Doc", (*Doc)(nil)) }
//
// A Site is one process. The master site builds the graph and binds its
// root in a name server; a client site looks the root up and works with
// it — over RMI, on replicas, or mixed:
//
//	server, _ := obiwan.NewSite("server", network, obiwan.WithNameServer("ns"))
//	head := &Doc{Title: "hello"}
//	_ = server.Bind("docs/head", head)
//
//	mobile, _ := obiwan.NewSite("mobile", network, obiwan.WithNameServer("ns"))
//	ref, _ := mobile.Lookup("docs/head")
//	out, _ := ref.Invoke("Read")          // faults the object in, invokes locally
//	doc, _ := obiwan.Deref[*Doc](ref)     // typed access, no indirection
//
// Replication granularity is a per-demand decision (GetSpec): one object
// at a time, a batch of k (each individually updatable), a cluster of k
// (one proxy pair, updated as a unit), or the whole transitive closure.
//
// Mobility is first-class: replicas keep working while disconnected,
// modifications are tracked, and Site.SyncDirty / the txn package push
// them back after reconnection.
package obiwan

import (
	"fmt"
	"reflect"

	"obiwan/internal/admin"
	"obiwan/internal/consistency"
	"obiwan/internal/dissemination"
	"obiwan/internal/eventual"
	"obiwan/internal/fleet"
	"obiwan/internal/heap"
	"obiwan/internal/invoke"
	"obiwan/internal/nameserver"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/platgc"
	"obiwan/internal/qos"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/txn"
)

// Core types.
type (
	// Site is one OBIWAN process: heap, RMI runtime, replication engine.
	Site = site.Site
	// SiteOption configures NewSite.
	SiteOption = site.Option
	// Ref is the reference slot objects hold in place of direct pointers
	// to other OBIWAN objects.
	Ref = objmodel.Ref
	// OID is a global object identity.
	OID = objmodel.OID
	// InvocationMode selects RMI vs replica vs automatic per reference.
	InvocationMode = objmodel.InvocationMode
	// GetSpec parameterizes a replication demand (mode, batch, depth,
	// clustering).
	GetSpec = replication.GetSpec
	// ReplicationMode is incremental or transitive closure.
	ReplicationMode = replication.Mode
	// Descriptor names a remotely reachable object (what name servers
	// store).
	Descriptor = replication.Descriptor
	// Addr is a transport endpoint address.
	Addr = transport.Addr
	// Network is the message transport between sites.
	Network = transport.Network
	// LinkProfile describes a simulated link's quality of service.
	LinkProfile = netsim.Profile
	// RemoteRef is a low-level RMI object reference.
	RemoteRef = rmi.RemoteRef
	// RemoteError is an error raised by the remote side of a call.
	RemoteError = rmi.RemoteError
	// HeapEntry is per-object heap metadata (role, version, provider).
	HeapEntry = heap.Entry
	// GCStats is the platform-object (proxy) lifecycle ledger snapshot.
	GCStats = platgc.Stats
	// TxnManager coordinates optimistic transactions at a site.
	TxnManager = txn.Manager
	// Txn is one optimistic, disconnection-tolerant transaction.
	Txn = txn.Txn
	// Publisher disseminates master updates to subscribed sites.
	Publisher = dissemination.Publisher
	// Applier applies disseminated updates to local replicas.
	Applier = dissemination.Applier
	// Update is one disseminated state change.
	Update = dissemination.Update
	// QoSMonitor estimates per-peer link quality from RMI round trips.
	QoSMonitor = qos.Monitor
	// NameServer is the registry server type (embed or run standalone).
	NameServer = nameserver.Server
	// Prefetcher resolves object faults in the background, hiding
	// incremental replication's latency (the paper's footnote 3).
	Prefetcher = replication.Prefetcher
)

// Invocation modes (per Ref, switchable at run time).
const (
	// ModeLocal replicates on first use and invokes locally (default).
	ModeLocal = objmodel.ModeLocal
	// ModeRemote always invokes the master over RMI.
	ModeRemote = objmodel.ModeRemote
	// ModeAuto lets the QoS crossover model decide.
	ModeAuto = objmodel.ModeAuto
)

// Replication modes.
const (
	// Incremental ships the demanded object plus at most Batch-1 more.
	Incremental = replication.Incremental
	// Transitive ships the whole reachability graph in one demand.
	Transitive = replication.Transitive
)

// DefaultSpec replicates one object per fault — the paper's most flexible
// alternative.
var DefaultSpec = replication.DefaultSpec

// Simulated link profiles (see netsim for the model).
var (
	// Loopback models colocated processes.
	Loopback = netsim.Loopback
	// LAN10 is the paper's 10 Mb/s Ethernet testbed (null RMI ≈ 2.8 ms).
	LAN10 = netsim.LAN10
	// WAN models a wide-area Internet path of the era.
	WAN = netsim.WAN
	// Wireless models a GPRS-era mobile link: thin, slow, lossy.
	Wireless = netsim.Wireless
)

// NewSite starts an OBIWAN site named name on network.
var NewSite = site.New

// Site options.
var (
	// WithSiteID fixes the OID prefix minted by the site.
	WithSiteID = site.WithSiteID
	// WithNameServer points the site at a name server address.
	WithNameServer = site.WithNameServer
	// WithPolicy installs a master-side consistency policy.
	WithPolicy = site.WithPolicy
	// WithInvalidation enables invalidation-based consistency.
	WithInvalidation = site.WithInvalidation
	// WithLease enables client-side replica leases.
	WithLease = site.WithLease
	// WithDefaultSpec sets the spec Lookup uses.
	WithDefaultSpec = site.WithDefaultSpec
	// WithFetchFactor tunes the ModeAuto crossover.
	WithFetchFactor = site.WithFetchFactor
	// WithCallTimeout sets the RMI call timeout.
	WithCallTimeout = site.WithCallTimeout
	// WithRetry sets the RMI retry policy for the site's outbound calls.
	WithRetry = site.WithRetry
	// WithDurability makes the site crash-durable: masters, dirty
	// replicas, exports, and name bindings journal to a write-ahead log
	// in dir, and NewSite over the same dir recovers them under a fresh
	// incarnation.
	WithDurability = site.WithDurability
	// WithTelemetry injects a custom telemetry hub (e.g. with an
	// injected clock for deterministic traces). Sites default to an
	// enabled hub named after themselves.
	WithTelemetry = site.WithTelemetry
	// WithoutTelemetry disables causal tracing and metrics for the site.
	WithoutTelemetry = site.WithoutTelemetry
)

// Telemetry: causal traces across the demand protocol plus per-site
// metrics, exported live over the admin service (DESIGN.md §7).
type (
	// TelemetryHub bundles one site's tracer and metrics registry.
	TelemetryHub = telemetry.Hub
	// SpanContext is the causal identity carried in RMI call frames.
	SpanContext = telemetry.SpanContext
	// MetricsSnapshot is a site's exported metrics state.
	MetricsSnapshot = telemetry.MetricsSnapshot
	// ObjectProfile is one object's replication profile: faults, demand
	// depth and bytes, LMI/RMI split, serve and put accounting.
	ObjectProfile = telemetry.ObjectProfile
	// ProfileSnapshot is a site's top-K hot-object profile export.
	ProfileSnapshot = telemetry.ProfileSnapshot
	// FlightEvent is one entry in a site's flight recorder.
	FlightEvent = telemetry.FlightEvent
	// FlightDump is a stored flight-recorder ring — the last protocol,
	// retry, and WAL events before a failure or recovery.
	FlightDump = telemetry.FlightDump
	// ScrapeChunk is one telemetry pull from a site — metrics, top-K
	// object profiles, and the spans finished since the caller's cursor
	// (Site.Admin(peer).Scrape). Every view is cut from it.
	ScrapeChunk = admin.ScrapeChunk
)

var (
	// NewTelemetryHub builds a hub (install with WithTelemetry).
	NewTelemetryHub = telemetry.NewHub
	// BuildTraceTrees links span dumps from several sites into rooted
	// causal trees.
	BuildTraceTrees = telemetry.BuildTrees
	// FormatTraceTree renders one tree as an indented listing.
	FormatTraceTree = telemetry.FormatTree
)

// Critical-path attribution (DESIGN.md §13): spans carry typed phase
// segments, the slowest causal chain of each trace is extracted with
// per-phase time attribution, and tail exemplars tie a histogram's worst
// samples to the traces that explain them.
type (
	// PhaseSegment attributes part of a span's self-time to one typed
	// pipeline phase (queue, net, serve, assemble, apply, fsync, ...).
	PhaseSegment = telemetry.PhaseSegment
	// PathStep is one span on a critical path, with its self-time.
	PathStep = telemetry.PathStep
	// CriticalPath is the slowest causal chain through one trace, with
	// aggregate per-phase attribution.
	CriticalPath = telemetry.CriticalPath
	// SlowTrace ties a tail exemplar to the spans that explain it.
	SlowTrace = telemetry.SlowTrace
	// AttributionProfile aggregates critical paths into per-phase time
	// distributions — the fleet's "where does p99 go" answer.
	AttributionProfile = telemetry.AttributionProfile
)

var (
	// ExtractCriticalPath walks one trace tree and returns its slowest
	// causal chain with per-phase attribution.
	ExtractCriticalPath = telemetry.ExtractCriticalPath
	// NewAttributionBuilder accumulates critical paths into a profile.
	NewAttributionBuilder = telemetry.NewAttributionBuilder
)

// RetryPolicy bounds how outbound RMI calls are retried: attempt count,
// exponential backoff (with jitter and ceiling), and optional per-try
// timeout, all under the overall call timeout.
type RetryPolicy = rmi.RetryPolicy

// Retry policy constructors (install with WithRetry).
var (
	// DefaultRetryPolicy is the policy sites run with unless overridden.
	DefaultRetryPolicy = rmi.DefaultRetryPolicy
	// NoRetry fails calls fast on the first transient error.
	NoRetry = rmi.NoRetry
)

// ErrUnavailable marks a demand/put/refresh that exhausted its retries
// against an unreachable provider — the signal to keep working on local
// replicas and SyncDirty after reconnection.
var ErrUnavailable = replication.ErrUnavailable

// Master groups: consensus-replicated master state across a small static
// set of sites, surviving permanent loss of any minority with transparent
// leader failover (DESIGN.md §10).
type (
	// GroupConfig configures a site's master-group membership (install
	// with WithMasterGroup; identical on every member).
	GroupConfig = site.GroupConfig
	// MasterGroup is a grouped site's handle on its group: leadership
	// queries, WaitLeader, and the consensus node.
	MasterGroup = site.Group
	// NotLeaderError is the typed redirect a group follower answers
	// demands and puts with; Hint names the member to retry against.
	// The replication layer follows it automatically — applications see
	// it only when every member is unreachable.
	NotLeaderError = replication.NotLeaderError
)

// WithMasterGroup makes the site a member of a consensus-replicated
// master group.
var WithMasterGroup = site.WithMasterGroup

// ErrNotLeader matches (errors.Is) any NotLeaderError.
var ErrNotLeader = replication.ErrNotLeader

// NotLeaderHint extracts the redirect hint from an error, local or
// carried across RMI.
var NotLeaderHint = replication.NotLeaderHint

// Consistency policies (install with WithPolicy).
type (
	// LastWriterWins accepts every update (the paper's default).
	LastWriterWins = consistency.LastWriterWins
	// FirstWriterWins rejects updates based on stale versions.
	FirstWriterWins = consistency.FirstWriterWins
)

// ErrConflict is returned when a consistency policy rejects an update.
var ErrConflict = consistency.ErrConflict

// ErrTxnConflict is returned by Txn.Commit / TxnManager.FlushPending when a
// transaction was rolled back; it wraps the rejecting policy's error.
var ErrTxnConflict = txn.ErrConflict

// Weakly-connected replication (DESIGN.md §11): sites built WithEventual
// carry an ordered log of deterministic update functions. Updates apply
// tentatively the moment they are appended — fully disconnected — and
// become stable when the object's primary assigns them a commit position;
// pairwise anti-entropy sessions (Site.AntiEntropy) exchange version
// vectors and ship missing updates until every site holds the identical
// committed prefix.
type (
	// UpdateLog is a site's weakly-connected update store (Site.Eventual):
	// the ordered log, the committed/tentative division, the version
	// vector, and the truncation frontier table.
	UpdateLog = eventual.Store
	// UpdateID stamps one update <logical clock, authoring site>.
	UpdateID = eventual.UpdateID
	// UpdateFunc is a deterministic, registered update function: it
	// mutates obj from args and may decline by returning an error (a
	// decline is deterministic too, and commits as a no-op).
	UpdateFunc = eventual.UpdateFunc
	// SyncStats summarizes what one anti-entropy session absorbed.
	SyncStats = eventual.SyncStats
	// UpdateLogStats counts an update log's lifetime activity: tentative
	// applies, commits, rollback/replay events, declines, truncations.
	UpdateLogStats = eventual.StoreStats
)

var (
	// WithEventual enables weakly-connected replication for the site;
	// objects opt in per object with Site.Track.
	WithEventual = site.WithEventual
	// RegisterUpdate registers an update function under a stable name
	// (before any replication; an init function is idiomatic). Every
	// site must register the same functions under the same names.
	RegisterUpdate = eventual.RegisterUpdate
	// MustRegisterUpdate is RegisterUpdate, panicking on error.
	MustRegisterUpdate = eventual.MustRegisterUpdate
)

var (
	// ErrNoEventual marks weakly-connected operations on sites built
	// without WithEventual.
	ErrNoEventual = site.ErrNoEventual
	// ErrTentative marks a raw state put rejected because the object is
	// managed by the update log (mutate it with Site.Apply instead).
	ErrTentative = consistency.ErrTentative
	// ErrCommitGap marks a commit record that would leave a hole in an
	// object's commit sequence; the whole batch is rejected.
	ErrCommitGap = eventual.ErrCommitGap
	// ErrBadUpdateRecord marks a torn or corrupted update-log record —
	// in a WAL after a crash or in a sync batch off the wire. Decoding
	// fails closed; no partial update is ever applied.
	ErrBadUpdateRecord = eventual.ErrBadRecord
	// ErrTooFarBehind marks a dissemination Pull from below the
	// publisher's retained log; the subscriber resynchronizes with a
	// full state fetch instead of an incremental batch.
	ErrTooFarBehind = dissemination.ErrTooFarBehind
)

// Fleet observatory (DESIGN.md §12): a site built WithFleet scrapes the
// admin service of every listed peer over RMI, folds the snapshots into
// one order-independent aggregate (merged metrics, cross-site top-K hot
// objects), and evaluates a declarative SLO watchdog over the federated
// stream. Inspect with `obiwan-admin fleet top` / `fleet alerts`.
type (
	// FleetCollector is the observatory site's handle (Site.Fleet):
	// ScrapeOnce, the background Start/Stop loop, and the alert backlog.
	FleetCollector = fleet.Collector
	// FleetRule is one declarative SLO condition over the federated
	// stream (p99 tail, counter lag, rate-of-change, gauge threshold).
	FleetRule = fleet.Rule
	// FleetSnapshot is the aggregated fleet view: per-site observations
	// plus the merged metrics and cross-site hot-object ranking.
	FleetSnapshot = telemetry.FleetSnapshot
	// FleetAlert is one watchdog firing: rule, offending site, value.
	FleetAlert = telemetry.Alert
)

// Watchdog rule kinds (FleetRule.Kind).
const (
	// RuleP99 fires when a histogram's p99 exceeds Threshold.
	RuleP99 = fleet.RuleP99
	// RuleLag fires when counter Metric exceeds counter Minus by more
	// than Threshold.
	RuleLag = fleet.RuleLag
	// RuleRate fires when counter Metric grew by more than Threshold
	// since the previous scrape.
	RuleRate = fleet.RuleRate
	// RuleGauge fires when a gauge exceeds Threshold.
	RuleGauge = fleet.RuleGauge
)

var (
	// WithFleet makes the site a fleet observatory over the given peers.
	WithFleet = site.WithFleet
	// FleetDefaultRules is the stock watchdog rule set: RMI p99 latency,
	// commit-frontier lag, election churn, replica staleness.
	FleetDefaultRules = fleet.DefaultRules
	// FleetWithRules overrides the watchdog rule set.
	FleetWithRules = fleet.WithRules
	// FleetWithTopK sets the aggregated hot-object ranking depth.
	FleetWithTopK = fleet.WithTopK
)

// Networks.
var (
	// NewMemNetwork builds the in-process simulated network with the given
	// default link profile.
	NewMemNetwork = transport.NewMemNetwork
	// NewTCPNetwork builds the real TCP transport.
	NewTCPNetwork = transport.NewTCPNetwork
)

// MemNetwork is the simulated in-process network (profile switches,
// disconnection, partitions).
type MemNetwork = transport.MemNetwork

// RegisterType registers an application object type under a stable wire
// name. Call it once per type, before any replication (an init function is
// the conventional place).
func RegisterType(name string, sample any) error {
	return objmodel.RegisterType(name, sample)
}

// MustRegisterType is RegisterType but panics on error.
func MustRegisterType(name string, sample any) {
	objmodel.MustRegisterType(name, sample)
}

// Deref resolves ref — replicating its target on first use — and asserts
// it to T: typed, indirection-free access to the replica.
func Deref[T any](ref *Ref) (T, error) {
	return objmodel.Deref[T](ref)
}

// ServeNameServer exports a fresh name server on rt (use a dedicated
// runtime so it lands at the well-known id) and returns it.
func ServeNameServer(rt *rmi.Runtime) (*NameServer, RemoteRef, error) {
	return nameserver.Serve(rt)
}

// NewRuntime builds a bare RMI runtime — needed only to host a standalone
// name server in-process; sites build their own.
var NewRuntime = rmi.NewRuntime

// NewTxnManager builds a transaction manager over a site.
func NewTxnManager(s *Site) *TxnManager {
	return txn.NewManager(s.Engine())
}

// NewPublisher builds an update publisher over a master site, delivering
// through deliver (see dissemination.Deliver).
func NewPublisher(s *Site, deliver dissemination.Deliver) *Publisher {
	return dissemination.NewPublisher(s.Engine(), deliver)
}

// NewApplier builds a dissemination applier over a subscriber site.
func NewApplier(s *Site) *Applier {
	return dissemination.NewApplier(s.Engine())
}

// Convert adapts v — which may be a native Go value (local invocation) or
// a canonical wire value (remote invocation: int64/uint64/float64/string/
// []byte/[]any/map[string]any/*Struct) — to type T. It is the conversion
// primitive obicomp-generated proxies use on invocation results.
func Convert[T any](v any) (T, error) {
	var zero T
	rv, err := invoke.ConvertArg(v, reflect.TypeOf(&zero).Elem())
	if err != nil {
		return zero, err
	}
	out, ok := rv.Interface().(T)
	if !ok {
		return zero, fmt.Errorf("obiwan: cannot convert %T to %T", v, zero)
	}
	return out, nil
}
