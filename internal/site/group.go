package site

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/consensus"
	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// This file implements consensus-replicated master groups: a small static
// set of sites (typically 3–5) that agree every master-side mutation —
// registrations, applied puts, version bumps, name bindings — through a
// replicated log (internal/consensus), so the group survives the permanent
// loss of any minority of members with no lost updates.
//
// The division of labor:
//
//   - internal/consensus elects a leader, replicates the log, and tracks a
//     serve lease. It knows nothing about replication.
//   - replication.Engine exposes deterministic ApplyReplicated* replay
//     entrypoints and routes master mutations through the MasterGate.
//   - This file is the gate: it encodes engine mutations as log commands,
//     submits them to the local consensus node, and replays committed
//     commands back into the engine — identically on every member.
//
// Determinism is the load-bearing property: every member's master heap,
// exactly-once dedupe table, and proxy-in export table are pure functions
// of the agreed log. That is what lets a client fail over by swapping only
// the provider address (proxy-in ids are allocated deterministically from
// apply order) and what makes a retried put hit the dedupe guard on the
// new leader instead of applying twice.
//
// Known limitations, by design: membership is static for the life of the
// group; only the leaseholder serves reads and invokes (followers redirect
// with a typed not-leader hint); consistency-policy hooks run at the
// leader only.

// groupProxyBase anchors the deterministic proxy-in id space of grouped
// masters. Ids count DOWN from just below this base in apply order, so
// they can never collide with the runtime's sequential Export allocator
// counting up from 1.
const groupProxyBase uint64 = 1 << 40

// GroupConfig configures a site's membership in a master group. Every
// member of one group must be created with an identical configuration
// (same Name, same Members, same timing, same Seed) — the log replay that
// keeps members identical starts with the configuration being identical.
type GroupConfig struct {
	// Name identifies the group; it seeds the shared OID site-id prefix
	// all members mint under. Defaults to the sorted member list.
	Name string
	// Members lists every member site address, this site included.
	Members []transport.Addr
	// ElectionTimeout, Heartbeat, Lease tune the consensus layer (see
	// consensus.Config); zero values take the consensus defaults.
	ElectionTimeout time.Duration
	Heartbeat       time.Duration
	Lease           time.Duration
	// Seed makes election timing deterministic per member (mixed with the
	// member id) — required for reproducible virtual-clock scenarios.
	Seed int64
}

// WithMasterGroup makes the site a member of a consensus-replicated master
// group. Master state is then agreed through the group's replicated log:
// demands and puts are served by the current leader, followers redirect
// with replication.NotLeaderError, and the group survives permanent loss
// of a minority of members. Combine with WithDurability to persist the
// consensus log (the site journal is replaced by the log on grouped
// sites).
func WithMasterGroup(cfg GroupConfig) Option {
	return func(o *options) { o.group = &cfg }
}

// groupName returns the configured name or the canonical member-list name.
func (cfg *GroupConfig) groupName() string {
	if cfg.Name != "" {
		return cfg.Name
	}
	members := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		members[i] = string(m)
	}
	sort.Strings(members)
	return strings.Join(members, ",")
}

// Group command kinds (field Kind of groupCmd).
const (
	cmdRegister uint64 = 1 // install a new master at an agreed OID
	cmdPut      uint64 = 2 // apply an inbound replica put
	cmdBump     uint64 = 3 // apply a local master update (MarkUpdated)
	cmdBind     uint64 = 4 // record a name binding for re-publication
)

// groupCmd is one replicated log command. One flat struct for all kinds
// keeps the wire format trivial; unused fields stay zero.
type groupCmd struct {
	Kind     uint64
	OID      uint64
	TypeName string
	Version  uint64
	State    []byte
	Frontier []replication.FrontierRef
	Put      *replication.PutRequest
	Name     string
	Desc     *replication.Descriptor
}

func init() {
	codec.MustRegister("obiwan.site.groupCmd", groupCmd{})
}

// Group is a site's handle on its master group: the consensus node plus
// the glue that encodes engine mutations as log commands and replays
// committed commands into the engine. It implements
// replication.MasterGate.
type Group struct {
	site          *Site
	node          *consensus.Node
	name          string
	members       []transport.Addr
	callTimeout   time.Duration // per consensus RPC
	submitTimeout time.Duration // per proposed command
	heartbeat     time.Duration

	closeOnce sync.Once
	closedC   chan struct{}

	mu        sync.Mutex
	pending   map[objmodel.OID]any              // proposer's instance per in-flight register
	registers uint64                            // applied register count → proxy-in ids
	bindings  map[string]replication.Descriptor // agreed name bindings
}

var _ replication.MasterGate = (*Group)(nil)

// newGroup builds the site's group membership: consensus store (durable
// under the site's WAL dir, in-memory otherwise) and node. New exports the
// node's service at consensusID.
func newGroup(s *Site, o *options) (*Group, error) {
	cfg := o.group
	self := s.rt.Addr()
	found := false
	members := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		if m == self {
			found = true
		}
		members = append(members, string(m))
	}
	if !found {
		return nil, fmt.Errorf("site %q: master group %v does not include this site", s.name, cfg.Members)
	}

	et := cfg.ElectionTimeout
	if et <= 0 {
		et = 200 * time.Millisecond
	}
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = et / 10
	}

	var store *consensus.Store
	if o.walDir != "" {
		var err error
		store, err = consensus.OpenStore(filepath.Join(o.walDir, "consensus"))
		if err != nil {
			return nil, fmt.Errorf("site %q: open consensus store: %w", s.name, err)
		}
	} else {
		store = consensus.NewMemStore()
	}

	g := &Group{
		site:          s,
		name:          cfg.groupName(),
		members:       append([]transport.Addr(nil), cfg.Members...),
		callTimeout:   et / 2,
		submitTimeout: 5 * et,
		heartbeat:     hb,
		closedC:       make(chan struct{}),
		pending:       make(map[objmodel.OID]any),
		bindings:      make(map[string]replication.Descriptor),
	}
	node, err := consensus.New(consensus.Config{
		ID:              string(self),
		Members:         members,
		Clock:           s.rt.Clock(),
		Store:           store,
		Call:            g.call,
		Apply:           g.apply,
		OnEvent:         g.onEvent,
		Seed:            cfg.Seed,
		Metrics:         s.tel.Metrics(),
		ElectionTimeout: cfg.ElectionTimeout,
		Heartbeat:       cfg.Heartbeat,
		Lease:           cfg.Lease,
	})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("site %q: %w", s.name, err)
	}
	g.node = node
	return g, nil
}

// call routes one consensus RPC to a peer's consensus service.
func (g *Group) call(peer, method string, args ...any) ([]any, error) {
	ref := rmi.RemoteRef{Addr: transport.Addr(peer), ID: consensusID}
	res, _, err := g.site.rt.CallWithin(telemetry.SpanContext{}, time.Time{}, ref, g.callTimeout, method, args...)
	return res, err
}

// redirect maps consensus-layer refusals to the replication-layer typed
// redirect clients fail over on.
func (g *Group) redirect(err error) error {
	var nl *consensus.NotLeaderError
	if errors.As(err, &nl) {
		return &replication.NotLeaderError{Hint: transport.Addr(nl.Hint)}
	}
	if errors.Is(err, consensus.ErrLostLeadership) {
		return &replication.NotLeaderError{Hint: transport.Addr(g.node.Leader())}
	}
	return err
}

// CheckServe implements replication.MasterGate: only the leaseholder with
// a replayed log serves master reads.
func (g *Group) CheckServe() error {
	if err := g.node.Gate(); err != nil {
		return g.redirect(err)
	}
	return nil
}

// Members implements replication.MasterGate.
func (g *Group) Members() []transport.Addr {
	return append([]transport.Addr(nil), g.members...)
}

// encode serializes one command for the log.
func (g *Group) encode(cmd *groupCmd) ([]byte, error) {
	enc := codec.NewEncoder(256)
	if err := enc.EncodeStruct(g.site.rt.Registry(), cmd); err != nil {
		return nil, fmt.Errorf("site: encode group command: %w", err)
	}
	return enc.Bytes(), nil
}

// decode deserializes one committed command.
func (g *Group) decode(data []byte) (*groupCmd, error) {
	var cmd groupCmd
	if err := codec.NewDecoder(data).DecodeStruct(g.site.rt.Registry(), &cmd); err != nil {
		return nil, fmt.Errorf("site: decode group command: %w", err)
	}
	return &cmd, nil
}

// submit proposes one command and waits for its local apply result. A
// committed command whose apply failed comes back as that error — the
// failure is itself agreed (every member fails it identically).
func (g *Group) submit(cmd *groupCmd) (any, error) {
	data, err := g.encode(cmd)
	if err != nil {
		return nil, err
	}
	res, err := g.node.Submit(data, g.submitTimeout)
	if err != nil {
		return nil, g.redirect(err)
	}
	if applyErr, ok := res.(error); ok {
		return nil, applyErr
	}
	return res, nil
}

// RoutePut implements replication.MasterGate: leader-side admission
// (exactly-once dedupe fast path + consistency policy), then agree the
// put through the log. The MasterUpdated hook fires here — at the leader,
// once per agreed update — never in replay. When the put was traced, the
// Submit-to-apply wait runs under a "group.submit" child span whose time
// is attributed as submit.wait, so critical paths show consensus
// round-trips as their own phase.
func (g *Group) RoutePut(sc telemetry.SpanContext, req *replication.PutRequest) (*replication.PutReply, error) {
	if err := g.CheckServe(); err != nil {
		return nil, err
	}
	reply, done, err := g.site.engine.PreparePut(req)
	if err != nil {
		return nil, err
	}
	if done {
		return reply, nil
	}
	var span *telemetry.Span
	var start time.Time
	if g.site.tel.Enabled() && sc.Valid() {
		start = g.site.rt.Clock().Now()
		span = g.site.tel.StartSpan(sc, "group.submit", start)
		span.AnnotateOID("oid", req.OID)
	}
	res, err := g.submit(&groupCmd{Kind: cmdPut, OID: req.OID, Put: req})
	if span != nil {
		end := g.site.rt.Clock().Now()
		span.Phase(telemetry.PhaseSubmitWait, end.Sub(start))
		span.SetErr(err)
		span.End(end)
	}
	if err != nil {
		return nil, err
	}
	rep, ok := res.(*replication.PutReply)
	if !ok {
		return nil, fmt.Errorf("site: group put %d: unexpected apply result %T", req.OID, res)
	}
	g.site.engine.NotifyMasterUpdated(objmodel.OID(req.OID), rep.NewVersion)
	return rep, nil
}

// RouteRegister implements replication.MasterGate: the leader mints the
// identity, snapshots the object's initial state, and agrees the
// registration. The proposer's own instance is installed on apply (via
// the pending table); other members instantiate from the registered type.
func (g *Group) RouteRegister(obj any) (*heap.Entry, error) {
	if err := g.CheckServe(); err != nil {
		return nil, err
	}
	if entry, ok := g.site.heap.EntryOf(obj); ok {
		return entry, nil
	}
	info, ok := objmodel.InfoOf(obj)
	if !ok {
		return nil, fmt.Errorf("site: group register: type %T not registered with objmodel", obj)
	}
	state, frontier, err := g.site.engine.CaptureImage(obj)
	if err != nil {
		return nil, err
	}
	oid := g.site.heap.MintOID()
	g.mu.Lock()
	g.pending[oid] = obj
	g.mu.Unlock()
	res, err := g.submit(&groupCmd{
		Kind: cmdRegister, OID: uint64(oid), TypeName: info.Name,
		Version: 1, State: state, Frontier: frontier,
	})
	if err != nil {
		g.mu.Lock()
		delete(g.pending, oid)
		g.mu.Unlock()
		return nil, err
	}
	entry, ok := res.(*heap.Entry)
	if !ok {
		return nil, fmt.Errorf("site: group register %v: unexpected apply result %T", oid, res)
	}
	return entry, nil
}

// RouteBump implements replication.MasterGate: snapshot the leader's
// object state and agree the version bump, so every member applies the
// identical new state in log order.
func (g *Group) RouteBump(entry *heap.Entry) (uint64, error) {
	if err := g.CheckServe(); err != nil {
		return 0, err
	}
	state, frontier, err := g.site.engine.CaptureImage(entry.Obj)
	if err != nil {
		return 0, err
	}
	res, err := g.submit(&groupCmd{Kind: cmdBump, OID: uint64(entry.OID), State: state, Frontier: frontier})
	if err != nil {
		return 0, err
	}
	v, ok := res.(uint64)
	if !ok {
		return 0, fmt.Errorf("site: group bump %v: unexpected apply result %T", entry.OID, res)
	}
	return v, nil
}

// Bind agrees a name binding through the log (so a future leader can
// republish it) and then registers it at the name server. Leader-only,
// like every other master mutation.
func (g *Group) Bind(name string, d replication.Descriptor) error {
	if err := g.CheckServe(); err != nil {
		return err
	}
	if _, err := g.submit(&groupCmd{Kind: cmdBind, Name: name, Desc: &d}); err != nil {
		return err
	}
	if g.site.ns != nil {
		return g.site.ns.Rebind(name, d)
	}
	return nil
}

// apply replays one committed command into the engine — the deterministic
// heart of the group. It runs in log order, exactly once per process
// lifetime, on every member. Errors are returned as the apply result (the
// proposer's Submit surfaces them); they are deterministic too, since
// they are functions of the same log prefix.
func (g *Group) apply(ent consensus.Entry) any {
	cmd, err := g.decode(ent.Data)
	if err != nil {
		return err
	}
	switch cmd.Kind {
	case cmdRegister:
		oid := objmodel.OID(cmd.OID)
		g.mu.Lock()
		obj, proposed := g.pending[oid]
		delete(g.pending, oid)
		seq := g.registers
		g.registers++
		g.mu.Unlock()
		if !proposed {
			info, ok := objmodel.InfoByName(cmd.TypeName)
			if !ok {
				return fmt.Errorf("site: group register %v: unknown type %q", oid, cmd.TypeName)
			}
			obj = info.New()
		}
		// Proxy-in ids are a pure function of apply order, so every
		// member exports this master at the same id — the property that
		// lets clients fail over by swapping only the address.
		proxyID := groupProxyBase - 1 - seq
		entry, err := g.site.engine.ApplyReplicatedRegister(obj, oid, cmd.TypeName, cmd.Version, cmd.State, cmd.Frontier, proxyID)
		if err != nil {
			return err
		}
		return entry
	case cmdPut:
		if cmd.Put == nil {
			return fmt.Errorf("site: group put command without request")
		}
		reply, err := g.site.engine.ApplyReplicatedPut(cmd.Put)
		if err != nil {
			return err
		}
		return reply
	case cmdBump:
		v, err := g.site.engine.ApplyReplicatedBump(objmodel.OID(cmd.OID), cmd.State, cmd.Frontier)
		if err != nil {
			return err
		}
		return v
	case cmdBind:
		if cmd.Desc == nil {
			return fmt.Errorf("site: group bind command without descriptor")
		}
		g.mu.Lock()
		g.bindings[cmd.Name] = *cmd.Desc
		g.mu.Unlock()
		return nil
	}
	return fmt.Errorf("site: unknown group command kind %d", cmd.Kind)
}

// onEvent observes consensus transitions: every election and stepdown is
// preserved in the flight recorder (so `obiwan-admin flight` can explain
// a failover after the fact), and a won election schedules re-publication
// of the group's name bindings under the new leader's address. Called
// with consensus locks held — record and schedule only.
func (g *Group) onEvent(ev consensus.Event) {
	if f := g.site.tel.Flight(); f != nil {
		f.Record(telemetry.FlightEvent{
			AtNS: g.site.rt.Clock().Now().UnixNano(), Kind: ev.Kind,
			Detail: fmt.Sprintf("group=%s term=%d leader=%q %s", g.name, ev.Term, ev.Leader, ev.Detail),
		})
	}
	if ev.Kind == "consensus.elected" && ev.Leader == string(g.site.rt.Addr()) && g.site.ns != nil {
		g.site.rt.Clock().Go(g.republishBindings)
	}
}

// republishBindings re-registers every agreed name binding at the name
// server once this member's election settles (log replayed, lease live),
// so lookups resolve even when the original binder is permanently gone.
// Best-effort: an unreachable name server leaves stale bindings, which
// clients already tolerate through descriptor-level failover (the
// descriptor's Group lists every member).
func (g *Group) republishBindings() {
	clock := g.site.rt.Clock()
	for {
		select {
		case <-g.closedC:
			return
		default:
		}
		if !g.node.IsLeader() {
			return
		}
		if g.node.Gate() == nil {
			break
		}
		clock.Sleep(g.heartbeat)
	}
	g.mu.Lock()
	names := sortedKeys(g.bindings)
	descs := make([]replication.Descriptor, len(names))
	for i, name := range names {
		descs[i] = g.bindings[name]
	}
	g.mu.Unlock()
	self := g.site.rt.Addr()
	for i, name := range names {
		// Publish under this member's own address: the proxy-in id is the
		// same on every member, so only the address needs rewriting.
		d := descs[i]
		d.Provider.Addr = self
		_ = g.site.ns.Rebind(name, d)
	}
}

// close shuts the consensus node (and its store) down cleanly.
func (g *Group) close() error {
	var err error
	g.closeOnce.Do(func() {
		close(g.closedC)
		err = g.node.Close()
	})
	return err
}

// abandon crash-stops the node, leaving the consensus log exactly as a
// power failure would.
func (g *Group) abandon() {
	g.closeOnce.Do(func() {
		close(g.closedC)
		g.node.Abandon()
	})
}
