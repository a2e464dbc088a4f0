// Package chaos drives the full OBIWAN stack — transport, RMI, the
// replication engine, and the site layer — through scripted network
// failure scenarios: disconnections mid-demand, lost replies, random
// outage/drop schedules over different object-graph shapes.
//
// The paper's defining scenario is a mobile host that disconnects in the
// middle of a session and keeps working; this package turns that story
// into deterministic, replayable tests. Every failure comes from a seeded
// netsim.FaultSchedule, so a failing scenario reruns identically from its
// seed, and schedule traces double as evidence that two runs saw the same
// failure history.
//
// The package's contract, asserted by its test suite:
//
//   - every demand either completes (retries crossing the outage
//     transparently) or fails typed with replication.ErrUnavailable;
//   - no operation hangs (see World.Within);
//   - no retried call executes twice at the master (see Counter), and no
//     put is installed twice (decided by internal/check over the master's
//     installs).
//
// Its World is also the one builder of seeded virtual deployments that
// internal/swarm and internal/bench stand on.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/nameserver"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// Node is the object type chaos scenarios replicate: a labelled payload
// with outgoing references, general enough to shape chains (the
// quickstart/disconnected examples), trees (collabdoc's sections), and
// diamonds (shared substructure).
type Node struct {
	Label string
	Data  []byte
	Kids  []*objmodel.Ref
}

// Name returns the node's label (a convenient remote-invocable method).
func (n *Node) Name() string { return n.Label }

func init() {
	objmodel.MustRegisterType("chaos.Node", (*Node)(nil))
}

// DefaultRetry is the policy chaos sites run with: deterministic (no
// jitter), quick backoff, and enough attempts to cross the longest outage
// the scenario generators script (RandomSchedule outages span at most a
// handful of send attempts; rejected sends advance the schedule clock, so
// each attempt is progress toward the scripted reconnect).
func DefaultRetry() rmi.RetryPolicy {
	return rmi.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 500 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0,
	}
}

// World is one simulated deployment: a seeded in-memory network, the
// sites running on it, the fault schedules attached to its links, and
// optionally a standalone name server. A world runs on a netsim.Clock —
// the real one (NewWorld), or a VirtualClock (NewVirtualWorld), under
// which the same scenarios execute as a discrete-event simulation:
// identical failure histories, near-zero wall time. Every harness in the
// repository that stands up a seeded virtual deployment (the chaos
// suite, internal/swarm, internal/bench) does it here.
type World struct {
	Seed  int64
	Net   *transport.MemNetwork
	Clock netsim.Clock

	vc      *netsim.VirtualClock // nil on the real clock
	release sync.Once            // lifts the construction hold (see Run)
	names   *rmi.Runtime         // ServeNames' runtime, nil until then
	scheds  []*netsim.FaultSchedule

	mu    sync.Mutex // sites: a running scenario may start more
	sites []*site.Site
}

// watchdog is the real-time budget of every Within: a virtual world that
// deadlocks burns no virtual time, so only a wall clock can catch it. It
// is sized for the slowest caller, a thousand-site swarm under -race.
const watchdog = 2 * time.Minute

// leaderBound is the acceptance window for electing a serving leader:
// AwaitLeader fails once it passes on the world's clock. Groups elect in
// milliseconds of simulated time, so it fires only if a group cannot elect.
const leaderBound = 10 * time.Second

// NewWorld creates a world on the real clock over loopback links, whose
// link randomness (and, by convention, its scenario randomness) derives
// from seed.
func NewWorld(seed int64) *World {
	return &World{Seed: seed, Clock: netsim.Real(), Net: transport.NewMemNetworkSeeded(netsim.Loopback, seed)}
}

// NewVirtualWorld creates a world on a fresh virtual clock whose links
// start on profile p. Every simulated delay — link latency, retry backoff,
// scheduled outages — is an event on the virtual timeline.
//
// The clock is held from construction until the first Run (or Within)
// body is enqueued, so sites may be built untracked before it: a
// timer-owning site (a group member, say) then cannot advance virtual
// time in a real-time race with the rest of construction, and the first
// body starts at virtual time zero after everything built before it.
func NewVirtualWorld(seed int64, p netsim.Profile) *World {
	vc := netsim.NewVirtualClock()
	vc.Hold()
	return &World{Seed: seed, Clock: vc, vc: vc, Net: transport.NewMemNetworkClock(p, seed, vc)}
}

// Run executes fn as simulated work: tracked by the virtual clock when the
// world has one (blocking in real time until fn returns), directly
// otherwise. Site operations that park on a virtual clock — everything
// after construction, Close and Kill included — must happen inside Run.
// The first Run lifts the construction hold after enqueuing fn.
func (w *World) Run(fn func() error) error {
	if w.vc == nil {
		return fn()
	}
	done := make(chan error, 1)
	w.vc.Go(func() { done <- fn() })
	w.release.Do(w.vc.Release)
	return <-done
}

// VirtualClock returns the world's virtual clock, or nil on the real clock.
func (w *World) VirtualClock() *netsim.VirtualClock { return w.vc }

// NewSite starts a site in this world with the chaos retry policy and a
// telemetry hub on the world's clock — in a virtual world, span times and
// phase attributions are then simulated time, deterministic per seed (an
// explicit site.WithRetry or site.WithTelemetry in opts overrides). No
// world site starts the wall-clock runtime sampler: its readings differ
// between runs and would reach the wire in scrapes.
func (w *World) NewSite(name string, opts ...site.Option) (*site.Site, error) {
	return w.start(name, site.WithTelemetry(telemetry.NewHub(name, telemetry.WithClock(w.Clock.Now))), opts)
}

// NewBareSite starts a site as NewSite does but with telemetry off, so no
// hub is built for it: the cheap form for a fleet of sites nobody scrapes.
func (w *World) NewBareSite(name string, opts ...site.Option) (*site.Site, error) {
	return w.start(name, site.WithoutTelemetry(), opts)
}

func (w *World) start(name string, tel site.Option, opts []site.Option) (*site.Site, error) {
	opts = append([]site.Option{site.WithRetry(DefaultRetry()), tel}, opts...)
	s, err := site.New(name, w.Net, append(opts, site.WithoutRuntimeSampler())...)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.sites = append(w.sites, s)
	w.mu.Unlock()
	return s, nil
}

// NewGroup starts one site per member of cfg, each a member of the master
// group cfg describes, and returns them in cfg.Members order. opts apply
// to every member.
func (w *World) NewGroup(cfg site.GroupConfig, opts ...site.Option) ([]*site.Site, error) {
	members := make([]*site.Site, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		s, err := w.NewSite(string(m), append([]site.Option{site.WithMasterGroup(cfg)}, opts...)...)
		if err != nil {
			return nil, err
		}
		members = append(members, s)
	}
	return members, nil
}

// AwaitLeader polls members every step until one of them holds a live
// serve lease (a local check, no RPC) and returns it; after a kill, pass
// only the survivors. step is the resolution of any failover latency
// measured across the wait. It parks on the world's clock, so call it
// inside Run.
func (w *World) AwaitLeader(members []*site.Site, step time.Duration) (*site.Site, error) {
	deadline := w.Clock.Now().Add(leaderBound)
	for {
		for _, s := range members {
			if s.Group().CheckServe() == nil {
				return s, nil
			}
		}
		if !w.Clock.Now().Before(deadline) {
			return nil, fmt.Errorf("chaos: no serving leader among %d members within %v", len(members), leaderBound)
		}
		w.Clock.Sleep(step)
	}
}

// ServeNames starts the world's standalone name server at address "ns";
// sites reach it with site.WithNameServer("ns"). Close shuts it down
// after the clock has stopped, so the shutdown never parks an untracked
// goroutine on it. Call it inside Run.
func (w *World) ServeNames() error {
	rt, err := rmi.NewRuntime(w.Net, "ns")
	if err != nil {
		return err
	}
	if _, _, err := nameserver.Serve(rt); err != nil {
		_ = rt.Close()
		return err
	}
	w.names = rt
	return nil
}

// Sites returns every site the world started, dead ones included, in
// start order.
func (w *World) Sites() []*site.Site {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]*site.Site(nil), w.sites...)
}

// Close shuts every site down, newest first, then the name server. In a
// virtual world the shutdowns run tracked (site teardown drains in-flight
// simulated work), and the clock is stopped before the name server goes.
func (w *World) Close() {
	sites := w.Sites()
	_ = w.Within(func() error {
		for i := len(sites) - 1; i >= 0; i-- {
			_ = sites[i].Close()
		}
		return nil
	})
	if w.vc != nil {
		w.vc.Stop()
	}
	if w.names != nil {
		_ = w.names.Close()
	}
}

// Schedule attaches a fault schedule to the directional link from→to and
// records it for Trace comparison. It returns s for chaining.
func (w *World) Schedule(from, to string, s *netsim.FaultSchedule) *netsim.FaultSchedule {
	w.Net.SetFaultSchedule(transport.Addr(from), transport.Addr(to), s)
	w.scheds = append(w.scheds, s)
	return s
}

// Trace flattens the fired events of every attached schedule, in
// attachment order. Two runs of the same scenario with the same seed must
// produce equal traces — the suite's determinism assertion.
func (w *World) Trace() []string {
	var out []string
	for i, s := range w.scheds {
		for _, ev := range s.Trace() {
			out = append(out, fmt.Sprintf("link%d:%s", i, ev))
		}
	}
	return out
}

// ErrHung marks an operation that did not return within its watchdog
// budget — the failure mode the suite exists to rule out.
var ErrHung = errors.New("chaos: operation hung")

// Within runs op as simulated work (see Run) under the world's real-time
// watchdog: if op does not return in time, Within returns ErrHung, with
// the virtual clock's state appended for diagnosis. The op goroutine is
// abandoned; callers treat ErrHung as fatal, so the leak dies with the
// process.
func (w *World) Within(op func() error) error {
	done := make(chan error, 1)
	go func() { done <- w.Run(op) }()
	select {
	case err := <-done:
		return err
	case <-time.After(watchdog):
		err := fmt.Errorf("%w: no result after %v", ErrHung, watchdog)
		if w.vc != nil {
			err = fmt.Errorf("%w (%s)", err, w.vc.Snapshot())
		}
		return err
	}
}

// BuildChain registers n master nodes a→b→c… at s and returns them head
// first — the list shape of the quickstart and disconnected examples.
func BuildChain(s *site.Site, prefix string, n int) ([]*Node, error) {
	nodes := make([]*Node, n)
	edges := make([][2]int, 0, n)
	for i := range nodes {
		nodes[i] = &Node{Label: fmt.Sprintf("%s-%d", prefix, i), Data: []byte{byte(i)}}
		if i > 0 {
			edges = append(edges, [2]int{i - 1, i})
		}
	}
	return nodes, wire(s, nodes, edges)
}

// BuildTree registers a complete tree of the given depth and fanout
// (collabdoc's document/section shape) and returns its root and total
// node count. Depth 1 is a single node.
func BuildTree(s *site.Site, prefix string, depth, fanout int) (*Node, int, error) {
	var nodes []*Node
	var edges [][2]int
	var grow func(level int, path string) int
	grow = func(level int, path string) int {
		i := len(nodes)
		nodes = append(nodes, &Node{Label: prefix + "-" + path, Data: []byte(path)})
		for k := 0; level < depth && k < fanout; k++ {
			edges = append(edges, [2]int{i, grow(level+1, fmt.Sprintf("%s.%d", path, k))})
		}
		return i
	}
	grow(1, "r")
	return nodes[0], len(nodes), wire(s, nodes, edges)
}

// BuildDiamond registers the four-node diamond A→{B,C}→D — shared
// substructure, so D is reached through two paths but must replicate once.
// It returns [A, B, C, D].
func BuildDiamond(s *site.Site, prefix string) ([]*Node, error) {
	nodes := make([]*Node, 4)
	for i, tag := range []string{"a", "b", "c", "d"} {
		nodes[i] = &Node{Label: prefix + "-" + tag, Data: []byte(tag)}
	}
	return nodes, wire(s, nodes, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

// wire registers nodes at s in order, then gives each edge's first node a
// reference to its second, in edge order.
func wire(s *site.Site, nodes []*Node, edges [][2]int) error {
	for _, n := range nodes {
		if err := s.Register(n); err != nil {
			return err
		}
	}
	for _, e := range edges {
		ref, err := s.NewRef(nodes[e[1]])
		if err != nil {
			return err
		}
		nodes[e[0]].Kids = append(nodes[e[0]].Kids, ref)
	}
	return nil
}

// WalkAll dereferences every reference reachable from root, re-walking
// after typed unavailability (replica progress persists in the heap, and
// every attempt advances any attached schedule toward its reconnect). It
// returns the number of distinct nodes reached. Untyped errors — and
// exceeding maxRounds — abort the walk.
func WalkAll(root *Node, maxRounds int) (int, error) {
	var err error
	for round := 0; round <= maxRounds; round++ {
		visited := make(map[*Node]bool)
		if err = walk(root, visited); err == nil {
			return len(visited), nil
		}
		if !errors.Is(err, replication.ErrUnavailable) {
			return 0, err
		}
	}
	return 0, fmt.Errorf("walk did not converge in %d rounds: %w", maxRounds, err)
}

// walk dereferences every reference reachable from n not yet visited.
func walk(n *Node, visited map[*Node]bool) error {
	if visited[n] {
		return nil
	}
	visited[n] = true
	for i, ref := range n.Kids {
		kid, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return fmt.Errorf("deref %s kid %d: %w", n.Label, i, err)
		}
		if err := walk(kid, visited); err != nil {
			return err
		}
	}
	return nil
}

// Counter is an RMI service counting real executions: the server-side
// proof that a retried (re-sent) call is never applied twice. Bump returns
// the post-increment count, so a client issuing k calls must observe k —
// any duplicate execution shows up as a skipped or repeated value. Atomic
// because RMI dispatches each inbound call in its own goroutine.
type Counter struct {
	n atomic.Int64
}

// Bump adds delta and returns the new count.
func (c *Counter) Bump(delta int64) int64 { return c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }
