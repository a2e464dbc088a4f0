package swarm

import (
	"fmt"
	"math/rand"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/site"
)

// The four canonical fleet scenarios. Each returns the capacity report,
// the deterministic event stream (see Swarm.Stream), and the first
// invariant violation, if any. All randomness inside a scenario derives
// from Options.Seed, so a given (scenario, options) pair replays
// bit-identically.

// Churn kills a random leaf at seeded intervals and immediately starts a
// replacement incarnation that re-demands its document and carries on —
// the fleet-scale version of the chaos kill/restart suite, minus
// durability (leaves are ephemeral; their documents are mastered at the
// hub, so nothing is lost but the dirty edit in flight).
func Churn(o Options) (*Report, []string, error) {
	return run("churn", o, func(sw *Swarm, wg *netsim.WaitGroup, until time.Time) {
		rng := rand.New(rand.NewSource(o.Seed ^ 0x636875726e)) // "churn"
		for {
			gap := o.KillEvery/2 + time.Duration(rng.Int63n(int64(o.KillEvery)))
			sw.Clock.Sleep(gap)
			if !sw.Clock.Now().Before(until) {
				return
			}
			id := rng.Intn(o.Sites)
			sw.killLeaf(id)
			if err := sw.spawnLeaf(id, wg, until); err != nil {
				sw.fail(err)
				return
			}
		}
	})
}

// FlashCrowd points every leaf at the same hot shared document at almost
// the same instant: all initial demands land within the first op gap, and
// the report's hot-object ranking shows what the hub absorbed.
func FlashCrowd(o Options) (*Report, []string, error) {
	return run("flash-crowd", o, nil)
}

// Roam models the paper's mobile fleet: at seeded intervals a leaf's
// link degrades to the wireless profile and goes down for a window —
// the host moved — then reconnects on the degraded link. Operations
// during the window fail typed; everything converges after.
func Roam(o Options) (*Report, []string, error) {
	return run("roam", o, func(sw *Swarm, wg *netsim.WaitGroup, until time.Time) {
		rng := rand.New(rand.NewSource(o.Seed ^ 0x726f616d)) // "roam"
		hub := sw.Hub.Addr()
		for {
			gap := o.DisturbEvery/2 + time.Duration(rng.Int63n(int64(o.DisturbEvery)))
			sw.Clock.Sleep(gap)
			if !sw.Clock.Now().Before(until) {
				return
			}
			sw.mu.Lock()
			l := sw.leaves[rng.Intn(o.Sites)]
			sw.mu.Unlock()
			sw.record(OpRecord{Site: l.name, Op: "roam", Detail: "down+" + netsim.Wireless.Name}, nil)
			sw.Net.Disconnect(hub, l.addr())
			sw.Clock.Sleep(o.DisturbWindow)
			sw.Net.SetProfile(hub, l.addr(), netsim.Wireless)
			sw.Net.Reconnect(hub, l.addr())
			sw.record(OpRecord{Site: l.name, Op: "roam", Detail: "up"}, nil)
		}
	})
}

// RollingPartitions sweeps partition waves across the fleet: each wave
// cuts one residue class of leaves off entirely for a window, heals it,
// and moves to the next class. The hub is never partitioned, so the
// healthy remainder keeps replicating throughout.
func RollingPartitions(o Options) (*Report, []string, error) {
	const waves = 4
	return run("rolling-partitions", o, func(sw *Swarm, wg *netsim.WaitGroup, until time.Time) {
		wave := 0
		for {
			sw.Clock.Sleep(o.DisturbEvery)
			if !sw.Clock.Now().Before(until) {
				return
			}
			g := wave % waves
			wave++
			members := sw.waveMembers(g, waves)
			for _, l := range members {
				sw.record(OpRecord{Site: l.name, Op: "partition"}, nil)
				sw.Net.PartitionHost(l.addr())
			}
			sw.Clock.Sleep(o.DisturbWindow)
			for _, l := range members {
				sw.Net.HealHost(l.addr())
				sw.record(OpRecord{Site: l.name, Op: "heal"}, nil)
			}
		}
	})
}

// LeaderFailover runs the fleet against a consensus-replicated hub group
// (HubGroup members, default 3) and permanently kills the group's leader
// partway through the op phase. The surviving majority elects a successor,
// leaf demands and puts fail over transparently (the dead member is never
// reborn), and every fleet invariant — exactly-once puts, no
// acknowledged write missing, convergence, bounded staleness — must hold
// at the end. The report carries the measured failover latency.
func LeaderFailover(o Options) (*Report, []string, error) {
	if o.HubGroup < 2 {
		o.HubGroup = 3
	}
	return run("leader-failover", o, func(sw *Swarm, wg *netsim.WaitGroup, until time.Time) {
		sw.Clock.Sleep(o.DisturbEvery)
		if !sw.Clock.Now().Before(until) {
			return
		}
		leader, err := sw.awaitHubLeader()
		if err != nil {
			sw.fail(err)
			return
		}
		sw.killLeader(leader)
	})
}

// killLeader permanently kills the group's serving leader and waits for a
// successor, recording the failover latency.
func (sw *Swarm) killLeader(leader *site.Site) {
	sw.killHub(leader)
	t0 := sw.Clock.Now()
	next, err := sw.awaitHubLeader()
	if err != nil {
		sw.fail(err)
		return
	}
	d := sw.Clock.Now().Sub(t0)
	sw.mu.Lock()
	sw.failover = d
	sw.mu.Unlock()
	sw.record(OpRecord{Site: next.Name(), Op: "elect", Detail: fmt.Sprintf("after=%v", d)}, nil)
}

// waveMembers returns the current incarnations whose id falls in residue
// class g mod waves, in id order (deterministic).
func (sw *Swarm) waveMembers(g, waves int) []*leaf {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	var out []*leaf
	for id := g; id < len(sw.leaves); id += waves {
		out = append(out, sw.leaves[id])
	}
	return out
}
