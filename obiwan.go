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

	"obiwan/internal/consistency"
	"obiwan/internal/eventual"
	"obiwan/internal/invoke"
	"obiwan/internal/nameserver"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
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
	// GetSpec parameterizes a replication demand (mode, batch, depth,
	// clustering).
	GetSpec = replication.GetSpec
	// Descriptor names a remotely reachable object (what name servers
	// store).
	Descriptor = replication.Descriptor
	// Addr is a transport endpoint address.
	Addr = transport.Addr
	// Network is the message transport between sites.
	Network = transport.Network
	// LinkProfile describes a simulated link's quality of service.
	LinkProfile = netsim.Profile
	// RemoteError is an error raised by the remote side of a call.
	RemoteError = rmi.RemoteError
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
	// WithNameServer points the site at a name server address.
	WithNameServer = site.WithNameServer
	// WithPolicy installs a master-side consistency policy. A site chains
	// its policies in one order: the tentative guard (WithEventual), this
	// policy, invalidation (WithInvalidation), then the publisher once
	// EnableDissemination runs. The first member to reject a put rejects
	// it, and every member hears every hook, so this policy's hooks fire
	// under every option.
	WithPolicy = site.WithPolicy
	// WithInvalidation enables invalidation-based consistency: the
	// invalidation member of the chain WithPolicy describes.
	WithInvalidation = site.WithInvalidation
	// WithDefaultSpec sets the spec Lookup uses.
	WithDefaultSpec = site.WithDefaultSpec
	// WithRetry sets the RMI retry policy for the site's outbound calls.
	WithRetry = site.WithRetry
	// WithDurability makes the site crash-durable: masters, dirty
	// replicas, exports, and name bindings journal to a write-ahead log
	// in dir, and NewSite over the same dir recovers them under a fresh
	// incarnation.
	WithDurability = site.WithDurability
	// WithoutTelemetry disables causal tracing and metrics for the site.
	WithoutTelemetry = site.WithoutTelemetry
)

// Telemetry: causal traces across the demand protocol plus per-site
// metrics, exported live over the admin service (DESIGN.md §7). A trace
// is read back with Site.Admin(peer).Scrape and linked with these.
var (
	// BuildTraceTrees links span dumps from several sites into rooted
	// causal trees.
	BuildTraceTrees = telemetry.BuildTrees
	// FormatTraceTree renders one tree as an indented listing.
	FormatTraceTree = telemetry.FormatTree
)

// RetryPolicy bounds how outbound RMI calls are retried: attempt count,
// exponential backoff (with jitter and ceiling), and optional per-try
// timeout, all under the overall call timeout. Install with WithRetry.
type RetryPolicy = rmi.RetryPolicy

// ErrUnavailable marks a demand/put/refresh that exhausted its retries
// against an unreachable provider — the signal to keep working on local
// replicas and SyncDirty after reconnection.
var ErrUnavailable = replication.ErrUnavailable

// Master groups: consensus-replicated master state across a small static
// set of sites, surviving permanent loss of any minority with transparent
// leader failover (DESIGN.md §10).

// GroupConfig configures a site's master-group membership (install with
// WithMasterGroup; identical on every member).
type GroupConfig = site.GroupConfig

// WithMasterGroup makes the site a member of a consensus-replicated
// master group.
var WithMasterGroup = site.WithMasterGroup

// ErrNotLeader matches (errors.Is) the typed redirect a group follower
// answers demands and puts with. The replication layer follows it
// automatically — applications see it only when every member is
// unreachable.
var ErrNotLeader = replication.ErrNotLeader

// FirstWriterWins is the consistency policy (install with WithPolicy)
// that rejects updates based on stale versions; the default accepts
// every update.
type FirstWriterWins = consistency.FirstWriterWins

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
var (
	// WithEventual enables weakly-connected replication for the site;
	// objects opt in per object with Site.Track.
	WithEventual = site.WithEventual
	// MustRegisterUpdate registers an update function under a stable name
	// (before any replication; an init function is idiomatic), panicking
	// on error. Every site must register the same functions under the
	// same names.
	MustRegisterUpdate = eventual.MustRegisterUpdate
	// ErrTentative marks a raw state put rejected because the object is
	// managed by the update log (mutate it with Site.Apply instead).
	ErrTentative = consistency.ErrTentative
)

// WithFleet makes the site a fleet observatory over the given peers
// (DESIGN.md §12): it scrapes the admin service of every listed peer over
// RMI, folds the snapshots into one order-independent aggregate, and
// evaluates a declarative SLO watchdog over the federated stream. Inspect
// with `obiwan-admin fleet top` / `fleet alerts`.
var WithFleet = site.WithFleet

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
// the conventional place). Pass a typed sample such as (*T)(nil): the
// methods of the common shapes are then called without reflection, while a
// sample whose static type is any registers on the reflective path.
func RegisterType[S any](name string, sample S) error {
	return objmodel.RegisterType(name, sample)
}

// MustRegisterType is RegisterType but panics on error.
func MustRegisterType[S any](name string, sample S) {
	objmodel.MustRegisterType(name, sample)
}

// Deref resolves ref — replicating its target on first use — and asserts
// it to T: typed, indirection-free access to the replica.
func Deref[T any](ref *Ref) (T, error) {
	return objmodel.Deref[T](ref)
}

// ServeNameServer exports a fresh name server on rt (use a dedicated
// runtime so it lands at the well-known id) and returns it.
func ServeNameServer(rt *rmi.Runtime) (*nameserver.Server, rmi.RemoteRef, error) {
	return nameserver.Serve(rt)
}

// NewRuntime builds a bare RMI runtime — needed only to host a standalone
// name server in-process; sites build their own.
var NewRuntime = rmi.NewRuntime

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
