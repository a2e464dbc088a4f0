package bench

import (
	"fmt"
	"time"

	"obiwan/internal/chaos"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
	"obiwan/internal/transport"
)

// The failover experiment prices the robustness of consensus-replicated
// master groups (DESIGN.md §10): what a 3-site group costs in steady
// state — demands and puts pay a quorum round on the master side — and
// what it buys — a bounded elect-to-serving window after the leader is
// permanently killed. Unlike the two-site figures, these worlds run on
// the virtual clock, so every number is a deterministic function of the
// seed: the checked-in BENCH_failover.json baseline is reproducible
// bit-for-bit, and drift in it is a real cost change, not machine noise.

// failoverRun is one world's measurements.
type failoverRun struct {
	demand      time.Duration // client walks the whole chain, one demand per node
	put         time.Duration // client syncs FailoverPuts head edits
	elect       time.Duration // leader killed → a survivor holds a serve lease
	demandCalls uint64        // client RMI calls during the walk
	demandBytes uint64        // wire bytes, all runtimes, during the walk
	putCalls    uint64
	putBytes    uint64
}

// electStep is how often the experiment polls for a serving leader, and
// so the resolution of the elect series.
const electStep = 2 * time.Millisecond

// failoverObject is the payload size of every chain node.
const failoverObject = 1024

// RunFailover measures steady-state overhead and failover latency of a
// 3-site master group against a single master over the same links, one
// world pair per seed.
func RunFailover(cfg Config) ([]Point, error) {
	if len(cfg.FailoverSeeds) == 0 {
		return nil, fmt.Errorf("bench: no failover seeds configured")
	}
	var single, group failoverRun
	var points []Point
	for _, seed := range cfg.FailoverSeeds {
		s, err := measureFailover(cfg, seed, false)
		if err != nil {
			return nil, fmt.Errorf("seed %d single: %w", seed, err)
		}
		g, err := measureFailover(cfg, seed, true)
		if err != nil {
			return nil, fmt.Errorf("seed %d group3: %w", seed, err)
		}
		accumulate(&single, s)
		accumulate(&group, g)
		points = append(points, Point{
			Experiment: "failover", Series: "elect", Size: 3,
			X: float64(seed), TotalMS: ms(g.elect),
		})
	}
	n := len(cfg.FailoverSeeds)
	mean := func(label string, r failoverRun, d time.Duration, ops int, calls, bytes uint64) Point {
		per := time.Duration(0)
		if ops > 0 {
			per = d / time.Duration(n*ops)
		}
		return Point{
			Experiment: "failover", Series: label, Size: failoverObject,
			X: float64(ops), TotalMS: ms(d) / float64(n), PerOpUS: us(per),
			RMICalls: calls / uint64(n), BytesSent: bytes / uint64(n),
		}
	}
	points = append(points,
		mean("demand single", single, single.demand, cfg.FailoverChain, single.demandCalls, single.demandBytes),
		mean("demand group3", group, group.demand, cfg.FailoverChain, group.demandCalls, group.demandBytes),
		mean("put single", single, single.put, cfg.FailoverPuts, single.putCalls, single.putBytes),
		mean("put group3", group, group.put, cfg.FailoverPuts, group.putCalls, group.putBytes),
	)
	return points, nil
}

func accumulate(sum *failoverRun, r failoverRun) {
	sum.demand += r.demand
	sum.put += r.put
	sum.elect += r.elect
	sum.demandCalls += r.demandCalls
	sum.demandBytes += r.demandBytes
	sum.putCalls += r.putCalls
	sum.putBytes += r.putBytes
}

// measureFailover builds one virtual-clock world — a 3-member master
// group when group is true, a lone master otherwise — runs the steady
// workload, and (group only) kills the leader and times the election.
func measureFailover(cfg Config, seed int64, group bool) (failoverRun, error) {
	w := chaos.NewVirtualWorld(seed, cfg.Profile)
	defer w.Close()
	var run failoverRun
	err := w.Within(func() error {
		if err := w.ServeNames(); err != nil {
			return err
		}
		var members []*site.Site
		var master *site.Site
		var err error
		if group {
			gcfg := site.GroupConfig{Name: "grp", Members: []transport.Addr{"m1", "m2", "m3"}, Seed: seed}
			if members, err = w.NewGroup(gcfg, site.WithNameServer("ns")); err == nil {
				master, err = w.AwaitLeader(members, electStep)
			}
		} else {
			master, err = w.NewSite("m1", site.WithNameServer("ns"))
		}
		if err != nil {
			return err
		}

		// Master-side chain: register, link, and agree the links through the
		// group log (MarkUpdated on a grouped master routes through consensus,
		// so every member can serve the wired state after a failover).
		nodes := make([]*Node, cfg.FailoverChain)
		for i := range nodes {
			nodes[i] = &Node{Payload: make([]byte, failoverObject)}
			if err := master.Register(nodes[i]); err != nil {
				return err
			}
		}
		for i := 0; i < len(nodes)-1; i++ {
			ref, err := master.NewRef(nodes[i+1])
			if err != nil {
				return err
			}
			nodes[i].Next = ref
			if err := master.MarkUpdated(nodes[i]); err != nil {
				return err
			}
		}
		if err := master.Bind("bench/head", nodes[0]); err != nil {
			return err
		}

		client, err := w.NewSite("client", site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		ref, err := client.LookupSpec("bench/head", replication.DefaultSpec)
		if err != nil {
			return err
		}

		calls0, bytes0 := wireCounters(client, w.Sites())
		start := w.Clock.Now()
		if err := walkList(ref, cfg.FailoverChain, nil); err != nil {
			return err
		}
		run.demand = w.Clock.Now().Sub(start)
		calls1, bytes1 := wireCounters(client, w.Sites())
		run.demandCalls, run.demandBytes = calls1-calls0, bytes1-bytes0

		head, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return err
		}
		payload := make([]byte, failoverObject)
		start = w.Clock.Now()
		for i := 0; i < cfg.FailoverPuts; i++ {
			payload[0] = byte(i)
			head.SetPayload(payload)
			if err := client.MarkUpdated(head); err != nil {
				return err
			}
			if n, err := client.SyncDirty(); err != nil || n != 1 {
				return fmt.Errorf("put %d: synced=%d err=%w", i, n, err)
			}
		}
		run.put = w.Clock.Now().Sub(start)
		calls2, bytes2 := wireCounters(client, w.Sites())
		run.putCalls, run.putBytes = calls2-calls1, bytes2-bytes1

		if !group {
			return nil
		}

		// Permanent loss of the leader; the window closes when a survivor
		// holds a live serve lease.
		killedAt := w.Clock.Now()
		master.Kill()
		var survivors []*site.Site
		for _, s := range members {
			if s != master {
				survivors = append(survivors, s)
			}
		}
		if _, err := w.AwaitLeader(survivors, electStep); err != nil {
			return err
		}
		run.elect = w.Clock.Now().Sub(killedAt)

		// The successor really serves: one more put must land through it.
		payload[0] = 0xff
		head.SetPayload(payload)
		if err := client.MarkUpdated(head); err != nil {
			return err
		}
		if n, err := client.SyncDirty(); err != nil || n != 1 {
			return fmt.Errorf("put after failover: synced=%d err=%w", n, err)
		}
		return nil
	})
	return run, err
}

// wireCounters sums the client's outbound call count and every runtime's
// bytes on the wire (group traffic between members included — that is
// the overhead being priced).
func wireCounters(client *site.Site, sites []*site.Site) (calls, bytes uint64) {
	calls = client.Runtime().Stats().CallsSent
	for _, s := range sites {
		bytes += s.Runtime().Stats().BytesSent
	}
	return calls, bytes
}
