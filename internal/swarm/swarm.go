// Package swarm is the thousand-site scenario harness: it spins up one
// hub site and hundreds to thousands of leaf sites over a seeded
// in-process topology, drives them with scheduled workloads on a
// discrete-event virtual clock (netsim.VirtualClock), and checks
// fleet-wide invariants while aggregating telemetry into per-scenario
// capacity reports.
//
// The harness exists to answer the question the paper's evaluation could
// not: what does incremental replication do at fleet scale, under churn,
// flash crowds, roaming links, and rolling partitions? Because the clock
// is virtual and the simulation serial, sixty simulated seconds across a
// thousand sites execute in a few wall-clock seconds and replay
// bit-identically from a seed.
//
// Invariants every scenario asserts (see finalChecks):
//
//   - exactly-once puts and no acknowledged write missing, decided by
//     internal/check from the run's typed history: the put records of the
//     op log, and every hub member's installs;
//   - convergence after reconnect: once all faults heal, a final put from
//     every surviving leaf lands, and the master's data equals the last
//     acked write;
//   - bounded staleness: a refresh after healing brings every leaf's
//     replica of the shared document to the master's version;
//   - typed failures only: while disturbed, operations either succeed or
//     fail with replication.ErrUnavailable — anything else is a bug.
package swarm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"obiwan/internal/chaos"
	"obiwan/internal/check"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
	"obiwan/internal/transport"
)

// Doc is the object type swarm scenarios replicate: per-leaf documents
// (one writer each, mastered at the hub) plus one shared chain every
// leaf reads.
type Doc struct {
	Label string
	Data  []byte
	Kids  []*objmodel.Ref
}

// Name returns the document's label.
func (d *Doc) Name() string { return d.Label }

func init() {
	objmodel.MustRegisterType("swarm.Doc", (*Doc)(nil))
}

// Options parameterizes a scenario. The zero value is not usable: start
// from Defaults and change what the scenario needs.
type Options struct {
	Seed  int64
	Sites int // leaf count (the hub is extra)

	// Duration is the simulated length of the op phase.
	Duration time.Duration
	// MeanOpGap is the average virtual time between one leaf's operations
	// (actual gaps are uniform in [MeanOpGap/2, 3·MeanOpGap/2)).
	MeanOpGap time.Duration

	// KillEvery is the mean gap between churn kills (churn scenario).
	KillEvery time.Duration
	// DisturbEvery is the mean gap between roam/partition waves.
	DisturbEvery time.Duration
	// DisturbWindow is how long a roam outage or partition wave lasts.
	DisturbWindow time.Duration

	// HubGroup, when >= 2, replaces the single hub with a consensus-
	// replicated master group of that many members (hub0, hub1, ...).
	// Every master lives on every member; the leader serves, followers
	// redirect, and the fleet survives the permanent loss of a minority.
	// 0 or 1 keeps the classic single hub.
	HubGroup int

	// Observe turns the scenario into a fleet observatory run: every leaf
	// carries a virtual-clocked telemetry hub, every hub site runs
	// invalidation-based consistency plus a fleet.Collector over the
	// initial roster, and the first hub's collector — not the scenario's
	// assertions — measures staleness and convergence at two probe points
	// (after the op phase, and after every survivor refreshed). The probes
	// land in Report.Fleet. Everything stays deterministic per seed:
	// scrapes run serially in the scenario body on the virtual clock.
	Observe bool
}

// Defaults returns a small, fast baseline configuration for seed.
func Defaults(seed int64) Options {
	return Options{
		Seed:          seed,
		Sites:         100,
		Duration:      10 * time.Second,
		MeanOpGap:     2 * time.Second,
		KillEvery:     2 * time.Second,
		DisturbEvery:  time.Second,
		DisturbWindow: 500 * time.Millisecond,
	}
}

// The fixed shape of every scenario. Every hub↔leaf link starts on
// netsim.LAN10.
const (
	sharedDepth = 4                    // length of the shared chain all leaves read
	profileTopK = 8                    // hot objects the capacity report keeps
	leaderPoll  = 5 * time.Millisecond // how often a hub group is polled for its leader
)

// retryPolicy is the leaf/hub policy: deterministic (no jitter), with a
// per-try timeout so a dropped reply is recovered by re-sending rather
// than by waiting out the whole call budget. Virtual timeouts are free.
func retryPolicy() rmi.RetryPolicy {
	return rmi.RetryPolicy{
		MaxAttempts:   8,
		BaseBackoff:   10 * time.Millisecond,
		MaxBackoff:    200 * time.Millisecond,
		Multiplier:    2,
		Jitter:        0,
		PerTryTimeout: 500 * time.Millisecond,
	}
}

// OpRecord is one entry of the fleet-wide operation log — the scenario's
// deterministic event stream. T is virtual time since scenario start. A
// put or final record also names the document's OID and the Version its
// master acknowledged (0 when the put failed); String leaves both out.
type OpRecord struct {
	T       time.Duration
	Site    string
	Op      string // demand, put, refresh, kill, spawn, roam, partition, heal, final
	Detail  string
	Err     string // "" on success; the typed class otherwise
	OID     objmodel.OID
	Version uint64
}

func (r OpRecord) String() string {
	s := fmt.Sprintf("%v %s %s", r.T, r.Site, r.Op)
	if r.Detail != "" {
		s += " " + r.Detail
	}
	if r.Err != "" {
		s += " err=" + r.Err
	}
	return s
}

// leaf is one live leaf site (one incarnation).
type leaf struct {
	id     int
	gen    int
	name   string
	s      *site.Site
	rng    *rand.Rand
	mine   *Doc // replica of the leaf's own document, nil until demanded
	shared *Doc // replica of the shared chain head, nil until demanded
	killed bool
}

func (l *leaf) addr() transport.Addr { return transport.Addr(l.name) }

// Swarm is one scenario deployment: hub, leaves, and the bookkeeping the
// invariants are checked against, in a virtual world.
type Swarm struct {
	Opts  Options
	Clock *netsim.VirtualClock
	Net   *transport.MemNetwork
	Hub   *site.Site   // single hub, or the first group member
	hubs  []*site.Site // every hub member (len 1 without a group)
	world *chaos.World // owns the sites, the watchdog and the teardown

	history    check.History // every hub member's installs
	sharedDesc replication.Descriptor

	mu       sync.Mutex
	docs     []replication.Descriptor // each leaf's document, by leaf id
	leaves   []*leaf                  // current incarnation per id
	log      []OpRecord
	failover time.Duration // virtual time to re-elect after a hub kill
	obs      *FleetObservation
	fatal    error

	wallStart time.Time
}

// groupMode reports whether the hub is a replicated master group.
func (sw *Swarm) groupMode() bool { return len(sw.hubs) > 1 }

func mix(seed int64, id, gen int) int64 {
	return seed*1_000_003 + int64(id)*31 + int64(gen)
}

func leafName(id, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("s%04d", id)
	}
	return fmt.Sprintf("s%04d.g%d", id, gen)
}

// Build constructs the deployment in a fresh virtual world: the hub (or
// hub group), one master document per leaf plus the shared chain, and all
// leaf sites. It runs untracked, under the world's construction hold; the
// simulation starts when the scenario body runs under run().
func Build(o Options) (*Swarm, error) {
	w := chaos.NewVirtualWorld(o.Seed, netsim.LAN10)
	sw := &Swarm{
		Opts:      o,
		Clock:     w.VirtualClock(),
		Net:       w.Net,
		world:     w,
		wallStart: time.Now(),
	}
	members := []transport.Addr{"hub"}
	if o.HubGroup >= 2 {
		members = make([]transport.Addr, o.HubGroup)
		for i := range members {
			members[i] = transport.Addr(fmt.Sprintf("hub%d", i))
		}
	}
	for i, m := range members {
		opts := []site.Option{site.WithRetry(retryPolicy())}
		if o.Observe && i == 0 {
			// The first hub is the observatory: invalidations give the
			// staleness gauge a real signal, and the collector scrapes the
			// initial roster (every hub member plus every gen-0 leaf; churn
			// replacements surface as scrape errors on the dead address).
			roster := append([]transport.Addr(nil), members...)
			for id := 0; id < o.Sites; id++ {
				roster = append(roster, transport.Addr(leafName(id, 0)))
			}
			opts = append(opts, site.WithInvalidation(), site.WithFleet(roster))
		}
		if len(members) > 1 {
			opts = append(opts, site.WithMasterGroup(site.GroupConfig{
				Name:            "hub",
				Members:         members,
				ElectionTimeout: 100 * time.Millisecond,
				Seed:            o.Seed,
			}))
		}
		hub, err := w.NewSite(string(m), opts...)
		if err != nil {
			sw.Close()
			return nil, err
		}
		sw.history.Watch(hub.Name(), hub.Engine())
		sw.hubs = append(sw.hubs, hub)
	}
	sw.Hub = sw.hubs[0]

	// Leaf sites. Master registration happens in bootstrap(), inside the
	// tracked simulation — a hub group cannot register anything before its
	// first election, and elections need the clock running.
	sw.docs = make([]replication.Descriptor, o.Sites)
	sw.leaves = make([]*leaf, o.Sites)
	for id := 0; id < o.Sites; id++ {
		if _, err := sw.newLeaf(id, 0); err != nil {
			sw.Close()
			return nil, err
		}
	}
	return sw, nil
}

// liveHubs returns the hub members the op log records no kill of.
func (sw *Swarm) liveHubs() []*site.Site {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	dead := make(map[string]bool)
	for _, r := range sw.log {
		dead[r.Site] = dead[r.Site] || r.Op == "kill"
	}
	var out []*site.Site
	for _, h := range sw.hubs {
		if !dead[h.Name()] {
			out = append(out, h)
		}
	}
	return out
}

// awaitHubLeader returns the hub site currently allowed to serve masters:
// the single hub, or the live group member holding a serve lease. It
// parks on the clock, so call it only inside the tracked simulation.
func (sw *Swarm) awaitHubLeader() (*site.Site, error) {
	if !sw.groupMode() {
		return sw.Hub, nil
	}
	return sw.world.AwaitLeader(sw.liveHubs(), leaderPoll)
}

// Close tears the deployment down (see chaos.World.Close).
func (sw *Swarm) Close() { sw.world.Close() }

// killHub permanently crash-stops one hub member (no rebirth — this is
// how a scenario proves the group survives losing a site for good).
func (sw *Swarm) killHub(h *site.Site) {
	sw.record(OpRecord{Site: h.Name(), Op: "kill", Detail: "hub"}, nil)
	h.Kill()
}

// bootstrap registers the shared chain and every per-leaf document at the
// hub (group mode: at the elected leader, with the wiring replicated to
// every member). Runs as tracked simulated work before the leaf loops.
func (sw *Swarm) bootstrap() error {
	leader, err := sw.awaitHubLeader()
	if err != nil {
		return err
	}
	chain := make([]*Doc, sharedDepth)
	for i := range chain {
		chain[i] = &Doc{Label: fmt.Sprintf("shared-%d", i), Data: []byte{byte(i)}}
		if err := leader.Register(chain[i]); err != nil {
			return err
		}
	}
	for i := 0; i < len(chain)-1; i++ {
		ref, err := leader.NewRef(chain[i+1])
		if err != nil {
			return err
		}
		chain[i].Kids = append(chain[i].Kids, ref)
	}
	if sw.groupMode() {
		// The Kids wiring exists only in the registering member's instance;
		// agree the wired state through the log so every member serves the
		// same chain after failover.
		for i := 0; i < len(chain)-1; i++ {
			if err := leader.MarkUpdated(chain[i]); err != nil {
				return err
			}
		}
	}
	if sw.sharedDesc, err = leader.Export(chain[0]); err != nil {
		return err
	}

	for id := range sw.docs {
		doc := &Doc{Label: fmt.Sprintf("doc-%04d", id), Data: []byte("v0")}
		if err := leader.Register(doc); err != nil {
			return err
		}
		if sw.docs[id], err = leader.Export(doc); err != nil {
			return err
		}
	}
	return nil
}

// newLeaf creates the site for (id, gen) and installs it as the current
// incarnation. Callers during the run must hold no swarm lock.
func (sw *Swarm) newLeaf(id, gen int) (*leaf, error) {
	name := leafName(id, gen)
	opts := []site.Option{site.WithRetry(retryPolicy())}
	// Only observatory runs give leaves a telemetry hub, so the collector
	// has per-site metrics to federate.
	newSite := sw.world.NewBareSite
	if sw.Opts.Observe {
		newSite = sw.world.NewSite
	}
	s, err := newSite(name, opts...)
	if err != nil {
		return nil, fmt.Errorf("swarm: leaf %s: %w", name, err)
	}
	l := &leaf{
		id:   id,
		gen:  gen,
		name: name,
		s:    s,
		rng:  rand.New(rand.NewSource(mix(sw.Opts.Seed, id, gen))),
	}
	sw.mu.Lock()
	sw.leaves[id] = l
	sw.mu.Unlock()
	return l, nil
}

// record stamps rec with the virtual time and err's class and appends it
// to the fleet op log.
func (sw *Swarm) record(rec OpRecord, err error) {
	rec.T = sw.Clock.Now().Sub(netsim.VirtualBase)
	rec.Err = errClass(err)
	sw.mu.Lock()
	sw.log = append(sw.log, rec)
	sw.mu.Unlock()
}

// errClass collapses an operation error to its typed class. Anything not
// listed here is an invariant violation the scenario fails on.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, replication.ErrUnavailable):
		return "unavailable"
	case isNotLeader(err):
		return "notleader"
	case errors.Is(err, rmi.ErrRuntimeClosed):
		return "closed"
	default:
		return "fatal:" + err.Error()
	}
}

// isNotLeader recognizes the typed redirect a master-group follower
// answers with, local or flattened across the RMI boundary.
func isNotLeader(err error) bool {
	if errors.Is(err, replication.ErrNotLeader) {
		return true
	}
	_, ok := replication.NotLeaderHint(err)
	return ok
}

func (sw *Swarm) fail(err error) {
	sw.mu.Lock()
	if sw.fatal == nil {
		sw.fatal = err
	}
	sw.mu.Unlock()
}

func (sw *Swarm) isKilled(l *leaf) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return l.killed
}

// handleOpErr records l's operation rec and classifies its error: nil and
// unavailability keep the leaf going, a kill ends its loop quietly,
// anything else is fatal for the scenario. It reports whether the leaf
// loop should stop.
func (sw *Swarm) handleOpErr(l *leaf, rec OpRecord, err error) bool {
	if sw.isKilled(l) {
		return true // whatever the error, this incarnation is dead
	}
	rec.Site = l.name
	sw.record(rec, err)
	if err == nil || errors.Is(err, replication.ErrUnavailable) || isNotLeader(err) {
		return false
	}
	sw.fail(fmt.Errorf("swarm: %s %s: %w", l.name, rec.Op, err))
	return true
}

// demandSpec replicates one object per fault.
var demandSpec = replication.GetSpec{Mode: replication.Incremental, Batch: 1}

// demand replicates the leaf's own document and the shared head.
func (sw *Swarm) demand(l *leaf) (err error) {
	if l.mine == nil {
		l.mine, err = objmodel.Deref[*Doc](l.s.Engine().RefFromDescriptor(sw.docs[l.id], demandSpec))
	}
	if l.shared == nil && err == nil {
		l.shared, err = objmodel.Deref[*Doc](l.s.Engine().RefFromDescriptor(sw.sharedDesc, demandSpec))
	}
	return err
}

// putOwn writes payload to the leaf's document and syncs it, returning
// the put's op record with the version the master acknowledged.
func (sw *Swarm) putOwn(l *leaf, op, payload string) (OpRecord, error) {
	rec := OpRecord{Site: l.name, Op: op, Detail: payload, OID: objmodel.OID(sw.docs[l.id].OID)}
	l.mine.Data = []byte(payload)
	err := l.s.MarkUpdated(l.mine)
	if err == nil {
		err = l.s.Put(l.mine)
	}
	if en, ok := l.s.Heap().EntryOf(l.mine); ok && err == nil {
		rec.Version = en.Version()
	}
	return rec, err
}

// leafLoop is one leaf incarnation's scheduled workload: demand first,
// then a seeded mix of puts and refreshes until the op phase ends, the
// leaf is killed, or the scenario fails.
func (sw *Swarm) leafLoop(l *leaf, until time.Time) {
	seq := 0
	for {
		if sw.isKilled(l) || !sw.Clock.Now().Before(until) {
			return
		}
		gap := sw.Opts.MeanOpGap/2 + time.Duration(l.rng.Int63n(int64(sw.Opts.MeanOpGap)))
		sw.Clock.Sleep(gap)
		if sw.isKilled(l) || !sw.Clock.Now().Before(until) {
			return
		}
		if l.mine == nil || l.shared == nil {
			if sw.handleOpErr(l, OpRecord{Op: "demand"}, sw.demand(l)) {
				return
			}
			continue
		}
		switch l.rng.Intn(3) {
		case 0, 1:
			seq++
			rec, err := sw.putOwn(l, "put", fmt.Sprintf("%s#%d", l.name, seq))
			if sw.handleOpErr(l, rec, err) {
				return
			}
		default:
			if sw.handleOpErr(l, OpRecord{Op: "refresh", Detail: "shared"}, l.s.Refresh(l.shared)) {
				return
			}
		}
	}
}

// killLeaf hard-stops the current incarnation of id (crash semantics:
// nothing is flushed, in-flight calls fail).
func (sw *Swarm) killLeaf(id int) {
	sw.mu.Lock()
	l := sw.leaves[id]
	if l == nil || l.killed {
		sw.mu.Unlock()
		return
	}
	l.killed = true
	sw.mu.Unlock()
	sw.record(OpRecord{Site: l.name, Op: "kill"}, nil)
	l.s.Kill()
}

// spawnLeaf starts the next incarnation of id and its op loop.
func (sw *Swarm) spawnLeaf(id int, wg *netsim.WaitGroup, until time.Time) error {
	sw.mu.Lock()
	gen := sw.leaves[id].gen + 1
	sw.mu.Unlock()
	l, err := sw.newLeaf(id, gen)
	if err != nil {
		return err
	}
	sw.record(OpRecord{Site: l.name, Op: "spawn"}, nil)
	wg.Add(1)
	sw.Clock.Go(func() {
		defer wg.Done()
		sw.leafLoop(l, until)
	})
	return nil
}

// finalChecks runs after every disturbance has healed: a final put per
// surviving leaf, the staleness bound on the shared document, the
// history's audit, and convergence.
func (sw *Swarm) finalChecks() error {
	// All reads and bumps go through whichever hub member currently
	// serves — after a hub kill that is the elected successor.
	leader, err := sw.awaitHubLeader()
	if err != nil {
		return err
	}
	// Bump the shared document so convergence is observable: every leaf
	// must refresh up to this exact version.
	headEntry, ok := leader.Heap().Get(objmodel.OID(sw.sharedDesc.OID))
	if !ok {
		return errors.New("swarm: shared head has no heap entry")
	}
	sharedHead := headEntry.Obj.(*Doc)
	sharedHead.Data = []byte("final")
	if err := leader.MarkUpdated(sharedHead); err != nil {
		return fmt.Errorf("swarm: bump shared: %w", err)
	}
	wantVersion := headEntry.Version()

	for id := range sw.leaves {
		sw.mu.Lock()
		l := sw.leaves[id]
		sw.mu.Unlock()
		if l.killed {
			return fmt.Errorf("swarm: leaf id %d has no live incarnation at scenario end", id)
		}
		if l.mine == nil || l.shared == nil {
			if err := sw.demand(l); err != nil {
				return fmt.Errorf("swarm: %s demand after heal: %w", l.name, err)
			}
		}
		rec, err := sw.putOwn(l, "final", l.name+"#final")
		if err != nil {
			return fmt.Errorf("swarm: %s final put: %w", l.name, err)
		}
		sw.record(rec, nil)
		if err := l.s.Refresh(l.shared); err != nil {
			return fmt.Errorf("swarm: %s final refresh: %w", l.name, err)
		}
		en, ok := l.s.Heap().EntryOf(l.shared)
		if !ok {
			return fmt.Errorf("swarm: %s shared replica has no heap entry", l.name)
		}
		if en.Version() != wantVersion {
			return fmt.Errorf("swarm: %s shared replica at v%d after refresh, master at v%d (staleness bound broken)",
				l.name, en.Version(), wantVersion)
		}
	}

	// The audit, then convergence: the serving master holds each
	// document's last acked payload.
	var acked []check.Put
	lastAcked := make(map[objmodel.OID]string)
	sw.mu.Lock()
	for _, r := range sw.log {
		if r.Version != 0 {
			acked = append(acked, check.Put{Client: r.Site, OID: r.OID, Version: r.Version})
			lastAcked[r.OID] = r.Detail
		}
	}
	sw.mu.Unlock()
	if err := sw.history.Check(acked, leader.Name()); err != nil {
		return err
	}
	for id, desc := range sw.docs {
		oid := objmodel.OID(desc.OID)
		men, ok := leader.Heap().Get(oid)
		if !ok {
			return fmt.Errorf("swarm: doc %04d has no master entry at the serving hub", id)
		}
		if got := string(men.Obj.(*Doc).Data); got != lastAcked[oid] {
			return fmt.Errorf("swarm: doc %04d master holds %q, last acked write was %q (convergence broken)",
				id, got, lastAcked[oid])
		}
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.fatal
}

// run executes a scenario: all leaf loops plus an optional disturber,
// then healing is assumed done and the invariants are checked. It
// returns the capacity report and the deterministic event stream.
func run(name string, o Options, disturb func(sw *Swarm, wg *netsim.WaitGroup, until time.Time)) (*Report, []string, error) {
	sw, err := Build(o)
	if err != nil {
		return nil, nil, err
	}
	defer sw.Close()

	err = sw.world.Within(func() error {
		if err := sw.bootstrap(); err != nil {
			return err
		}
		until := sw.Clock.Now().Add(sw.Opts.Duration)
		wg := netsim.NewWaitGroup(sw.Clock)
		sw.mu.Lock()
		starting := append([]*leaf(nil), sw.leaves...)
		sw.mu.Unlock()
		for _, l := range starting {
			l := l
			wg.Add(1)
			sw.Clock.Go(func() {
				defer wg.Done()
				sw.leafLoop(l, until)
			})
		}
		if disturb != nil {
			wg.Add(1)
			sw.Clock.Go(func() {
				defer wg.Done()
				disturb(sw, wg, until)
			})
		}
		wg.Wait()
		sw.observe(probeAfterOps)
		if err := sw.finalChecks(); err != nil {
			return err
		}
		return sw.observeConverged()
	})
	report := sw.buildReport(name)
	stream := sw.Stream()
	return report, stream, err
}

// Stream returns the scenario's deterministic event stream: the fleet op
// log followed by the hub's telemetry spans (ids, names, and virtual
// timestamps are all deterministic under the serial simulation). Two runs
// from the same seed must produce byte-identical streams.
func (sw *Swarm) Stream() []string {
	sw.mu.Lock()
	out := make([]string, 0, len(sw.log))
	for _, r := range sw.log {
		out = append(out, r.String())
	}
	sw.mu.Unlock()
	for _, sp := range sw.Hub.Telemetry().Spans(1 << 20) {
		out = append(out, fmt.Sprintf("span %d/%d<-%d %s %s %d..%d attrs=%v err=%q",
			sp.TraceID, sp.SpanID, sp.Parent, sp.Site, sp.Name, sp.StartNS, sp.EndNS, sp.Attrs, sp.Err))
	}
	return out
}
