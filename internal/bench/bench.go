// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) on the simulated testbed.
//
//   - Table 1 (§4.1 text): per-invocation cost of LMI vs RMI.
//   - Figure 4: total cost of RMI vs LMI over invocation count, per object
//     size; LMI includes replica creation and the final put-back.
//   - Figure 5: incremental replication of a 1000-object list without
//     clustering (a proxy pair per object), over replication step sizes.
//   - Figure 6: the same with clustering (one proxy pair per cluster).
//
// Plus the ablations DESIGN.md calls out (incremental vs transitive,
// count- vs depth-bounded clusters). Each experiment point runs in a fresh
// simulated deployment so link occupancy and runtime state never leak
// between points, and every deployment runs on a virtual clock (deploy):
// only Table 1's LMI row reads the real one, since it measures host CPU.
package bench

import (
	"fmt"
	"time"

	"obiwan/internal/chaos"
	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
)

// Node is the benchmark workload object: a payload of configurable size
// plus the references that shape the graph (list or tree).
type Node struct {
	Payload []byte
	Next    *objmodel.Ref
	Kids    []*objmodel.Ref
}

// Touch reads a field, so the invocation is not empty — mirroring the
// paper's footnote: "this method performs an access to a variable of the
// object, so it is not an empty method".
func (n *Node) Touch() int { return len(n.Payload) }

// SetPayload overwrites the payload (used by update-path experiments).
func (n *Node) SetPayload(p []byte) { n.Payload = p }

func init() {
	objmodel.MustRegisterType("obiwan.bench.Node", (*Node)(nil))
}

// Config parameterizes the experiments. DefaultConfig reproduces the
// paper's reconstructed parameters (see DESIGN.md).
type Config struct {
	// Profile is the link model between the two sites.
	Profile netsim.Profile
	// ListLen is the length of the figure-5/6 list.
	ListLen int
	// Sizes are the figure-5/6 object sizes in bytes.
	Sizes []int
	// Steps are the figure-5/6 replication step / cluster sizes.
	Steps []int
	// Fig4Sizes are the figure-4 object sizes.
	Fig4Sizes []int
	// Invocations are the figure-4 invocation counts.
	Invocations []int
	// TreeDepth is the depth of the ablation tree workload.
	TreeDepth int
	// FailoverSeeds are the virtual-clock world seeds for the failover
	// experiment (one 3-site-group + single-master world pair per seed).
	FailoverSeeds []int64
	// FailoverChain and FailoverPuts size the failover steady-state
	// workload: chain length demanded, head edits synced.
	FailoverChain int
	FailoverPuts  int

	// FleetSeed seeds the capacity-curve sweep worlds; FleetSizes are the
	// leaf counts swept; FleetDuration is each run's simulated op phase.
	FleetSeed     int64
	FleetSizes    []int
	FleetDuration time.Duration
}

// DefaultConfig returns the paper-scale parameters on the calibrated
// 10 Mb/s LAN.
func DefaultConfig() Config {
	return Config{
		Profile:     netsim.LAN10,
		ListLen:     1000,
		Sizes:       []int{64, 1024, 16 * 1024},
		Steps:       []int{1, 10, 50, 100, 500, 1000},
		Fig4Sizes:   []int{16, 1024, 4096, 16 * 1024, 64 * 1024},
		Invocations: []int{1, 10, 100, 1000, 10000},
		TreeDepth:   7,

		FailoverSeeds: []int64{11, 12, 13, 14, 15},
		FailoverChain: 50,
		FailoverPuts:  30,

		FleetSeed:     7,
		FleetSizes:    []int{50, 200, 500, 1000},
		FleetDuration: 8 * time.Second,
	}
}

// QuickConfig returns a scaled-down variant for smoke tests and testing.B
// benchmarks: same shape, two orders of magnitude faster.
func QuickConfig() Config {
	return Config{
		Profile:     netsim.LAN10,
		ListLen:     100,
		Sizes:       []int{64, 1024},
		Steps:       []int{1, 10, 100},
		Fig4Sizes:   []int{16, 4096},
		Invocations: []int{1, 10, 100},
		TreeDepth:   5,

		FailoverSeeds: []int64{11, 12},
		FailoverChain: 12,
		FailoverPuts:  6,

		FleetSeed:     7,
		FleetSizes:    []int{10, 25},
		FleetDuration: 4 * time.Second,
	}
}

// Point is one measured experiment point.
type Point struct {
	// Experiment identifies the figure/table ("table1", "fig4", ...).
	Experiment string
	// Series labels the curve the point belongs to (e.g. "LMI 1024B").
	Series string
	// Size is the object payload size in bytes.
	Size int
	// Step is the replication step / cluster size (figures 5–6).
	Step int
	// X is the x-coordinate in the paper's plot (invocation count for
	// figure 4, step size for figures 5–6).
	X float64
	// TotalMS is the measured cost in milliseconds, on the virtual clock
	// (the real one for Table 1's LMI row).
	TotalMS float64
	// PerOpUS is the per-invocation cost in microseconds.
	PerOpUS float64
	// RMICalls counts remote calls issued by the client during the point.
	RMICalls uint64
	// BytesSent counts client+server bytes put on the wire.
	BytesSent uint64
	// ProxyPairs counts proxy-ins exported at the master during the point.
	ProxyPairs uint64
	// Value is the y-figure of series whose unit fits none of the fields
	// above (fleet staleness counts, alert counts, federated quantiles).
	// omitempty keeps older baselines (BENCH_failover.json) byte-stable.
	Value float64 `json:",omitempty"`
}

// env is one fresh two-site deployment: a bare RMI runtime and
// replication engine at the master ("s2") and at the client ("s1").
type env struct {
	clock          netsim.Clock
	srt, crt       *rmi.Runtime
	server, client *replication.Engine
	hub            *telemetry.Hub // the client's; nil unless deployed with hubs
}

// deploy builds a fresh deployment over profile in a chaos world and runs
// body inside it, on the world's virtual clock: every link delay is an
// event on one timeline, so a figure measured with e.clock is a
// deterministic function of the code. With hubs, both sites carry a
// telemetry hub on that clock.
func deploy(profile netsim.Profile, hubs bool, body func(e *env) error) error {
	w := chaos.NewVirtualWorld(1, profile)
	defer w.Close()
	return w.Within(func() error {
		e := &env{clock: w.Clock}
		var shub *telemetry.Hub
		if hubs {
			shub = telemetry.NewHub("s2", telemetry.WithClock(w.Clock.Now))
			e.hub = telemetry.NewHub("s1", telemetry.WithClock(w.Clock.Now))
		}
		var err error
		if e.srt, err = rmi.NewRuntime(w.Net, "s2", rmi.WithTelemetry(shub)); err != nil {
			return err
		}
		defer e.srt.Close()
		if e.crt, err = rmi.NewRuntime(w.Net, "s1", rmi.WithTelemetry(e.hub)); err != nil {
			return err
		}
		defer e.crt.Close()
		e.server = replication.NewEngine(e.srt, heap.New(2), replication.WithTelemetry(shub))
		e.client = replication.NewEngine(e.crt, heap.New(1), replication.WithTelemetry(e.hub))
		return body(e)
	})
}

// measure runs body and charges p with what it cost: its time on the
// world's clock (per op too, when ops > 0), the client's calls and the
// bytes both sites put on the wire. ProxyPairs is what the master has
// exported by then, the list head's included.
func (e *env) measure(p *Point, ops int, body func() error) error {
	calls, bytes := e.traffic()
	start := e.clock.Now()
	if err := body(); err != nil {
		return err
	}
	d := e.clock.Now().Sub(start)
	c, b := e.traffic()
	p.TotalMS, p.RMICalls, p.BytesSent = ms(d), c-calls, b-bytes
	p.ProxyPairs = e.server.GC().Snapshot().ProxyInsExported
	if ops > 0 {
		p.PerOpUS = us(d / time.Duration(ops))
	}
	return nil
}

func (e *env) traffic() (calls, bytes uint64) {
	cs, ss := e.crt.Stats(), e.srt.Stats()
	return cs.CallsSent, cs.BytesSent + ss.BytesSent
}

// list creates an n-element master list of size-byte nodes at the server
// and returns the client's faulting reference to its head, with spec.
func (e *env) list(n, size int, spec replication.GetSpec) (*objmodel.Ref, error) {
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{Payload: make([]byte, size)}
		if _, err := e.server.RegisterMaster(nodes[i]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n-1; i++ {
		ref, err := e.server.NewRef(nodes[i+1])
		if err != nil {
			return nil, err
		}
		nodes[i].Next = ref
	}
	return e.clientRef(nodes[0], spec)
}

// buildTree creates a complete binary tree of the given depth (depth 1 =
// just the root) and returns the root and total node count.
func (e *env) buildTree(depth, size int) (*Node, int, error) {
	var build func(d int) (*Node, int, error)
	build = func(d int) (*Node, int, error) {
		node := &Node{Payload: make([]byte, size)}
		if _, err := e.server.RegisterMaster(node); err != nil {
			return nil, 0, err
		}
		count := 1
		if d > 1 {
			for i := 0; i < 2; i++ {
				child, c, err := build(d - 1)
				if err != nil {
					return nil, 0, err
				}
				ref, err := e.server.NewRef(child)
				if err != nil {
					return nil, 0, err
				}
				node.Kids = append(node.Kids, ref)
				count += c
			}
		}
		return node, count, nil
	}
	return build(depth)
}

// clientRef exports head at the server and returns the client's faulting
// reference with spec.
func (e *env) clientRef(head *Node, spec replication.GetSpec) (*objmodel.Ref, error) {
	d, err := e.server.ExportObject(head)
	if err != nil {
		return nil, err
	}
	return e.client.RefFromDescriptor(d, spec), nil
}

// walkList invokes Touch on each of the n list elements through the
// reference chain, faulting objects in as the spec dictates, and calls
// each (when non-nil) after the i-th element with the reference to the
// next.
func walkList(ref *objmodel.Ref, n int, each func(i int, next *objmodel.Ref)) error {
	cur := ref
	for i := 0; i < n; i++ {
		if cur == nil {
			return fmt.Errorf("bench: list ended at %d of %d", i, n)
		}
		if _, err := cur.Invoke("Touch"); err != nil {
			return fmt.Errorf("bench: invoke %d: %w", i, err)
		}
		node, err := objmodel.Deref[*Node](cur)
		if err != nil {
			return err
		}
		cur = node.Next
		if each != nil {
			each(i, cur)
		}
	}
	return nil
}

// touch invokes Touch on ref n times.
func touch(ref *objmodel.Ref, n int) error {
	for i := 0; i < n; i++ {
		if _, err := ref.Invoke("Touch"); err != nil {
			return err
		}
	}
	return nil
}

// walkTree invokes Touch on every node of the tree, breadth-first.
func walkTree(root *objmodel.Ref) (int, error) {
	queue := []*objmodel.Ref{root}
	visited := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if _, err := cur.Invoke("Touch"); err != nil {
			return visited, err
		}
		visited++
		node, err := objmodel.Deref[*Node](cur)
		if err != nil {
			return visited, err
		}
		queue = append(queue, node.Kids...)
	}
	return visited, nil
}

// sizeLabel formats a byte size the way the paper's series are labelled.
func sizeLabel(size int) string {
	switch {
	case size >= 1024 && size%1024 == 0:
		return fmt.Sprintf("%dKB", size/1024)
	default:
		return fmt.Sprintf("%dB", size)
	}
}
