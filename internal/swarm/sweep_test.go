package swarm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/transport"
)

// sweepSeeds × the four disturbers, at sweepSites leaves each, is the
// tier-1 sweep.
const (
	sweepSeeds = 8
	sweepSites = 60
)

// TestSweep runs every scenario disturber over sweepSeeds seeds and holds
// each run to the fleet invariants finalChecks asserts, internal/check's
// exactly-once and no-acknowledged-write-missing among them. A failure
// names its (scenario, seed); `go test -run 'TestSweep/<scenario>/seed<N>$'
// ./internal/swarm` replays it.
func TestSweep(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(Options) (*Report, []string, error)
	}{
		{"churn", Churn},
		{"roam", Roam},
		{"rolling-partitions", RollingPartitions},
		{"leader-kill", leaderKillMidPut},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= sweepSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				o := Defaults(seed)
				o.Sites = sweepSites
				if _, _, err := sc.run(o); err != nil {
					t.Fatalf("(%s, seed %d): %v", sc.name, seed, err)
				}
			})
		}
	}
}

// leaderKillMidPut is the leader-failover scenario with a put across the
// failover. Halfway through the op phase, once the serving leader installs
// some leaf's put, the reply to that leaf is dropped and the leader
// killed, so the leaf's retry reaches the successor, which holds the put
// through the group log and must answer the retry without installing it
// again. The puts the leader acknowledged before must all be installed at
// the successor too.
func leaderKillMidPut(o Options) (*Report, []string, error) {
	o.HubGroup = 3
	var (
		mu     sync.Mutex
		victim transport.Addr // the leaf whose put crosses the failover
	)
	crossed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return victim != ""
	}
	report, stream, err := run("leader-kill", o, func(sw *Swarm, wg *netsim.WaitGroup, until time.Time) {
		sw.Clock.Sleep(o.Duration / 2)
		leader, err := sw.awaitHubLeader()
		if err != nil {
			sw.fail(err)
			return
		}
		remove := leader.Engine().AddEventObserver(func(ev replication.Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind != replication.EventPutApplied || victim != "" {
				return
			}
			sw.mu.Lock()
			for id, desc := range sw.docs {
				if objmodel.OID(desc.OID) == ev.OID {
					victim = sw.leaves[id].addr()
				}
			}
			sw.mu.Unlock()
			// The observer runs before the leader answers the put, so the
			// next send on this link is the put's reply.
			sw.Net.SetFaultSchedule(leader.Addr(), victim, netsim.NewFaultSchedule(
				netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop}))
		})
		for !crossed() && sw.Clock.Now().Before(until) {
			sw.Clock.Sleep(leaderPoll)
		}
		remove()
		if crossed() {
			sw.killLeader(leader)
		}
	})
	if err == nil && !crossed() {
		err = errors.New("no put was installed at the leader before the op phase ended")
	}
	return report, stream, err
}
