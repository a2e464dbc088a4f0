package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"obiwan/internal/eventual"
	"obiwan/internal/objmodel"
	"obiwan/internal/site"
	"obiwan/internal/transport"
)

func addr(name string) transport.Addr { return transport.Addr(name) }

// Weakly-connected chaos: a fleet of sites edits one shared object while
// fully partitioned from each other, then reconciles by pairwise
// anti-entropy sessions run in seeded random order. The contract:
//
//   - the fleet converges — every site ends with a byte-identical
//     committed state, the same commit frontier, and zero tentative
//     updates — regardless of the (seeded) edit and session order;
//   - the whole history is deterministic: the same seed replays the same
//     edits, the same session order, the same rollback count, and the
//     same number of sessions to convergence;
//   - a durable site hard-killed mid-reconciliation loses nothing: its
//     reborn incarnation recovers the exact committed frontier and
//     journaled tentative suffix, and the fleet still converges.

func init() {
	// The chaos suite's update function: appends one edit token to the
	// node's label, so the converged label spells out the commit order.
	eventual.MustRegisterUpdate("chaostest.edit", func(obj any, args []byte) error {
		n := obj.(*Node)
		n.Label += string(args) + "|"
		return nil
	})
}

// swarmResult is everything observable about one weakly-connected run,
// in a form the caller can compare across reruns of the same seed.
type swarmResult struct {
	frontier  uint64
	label     string
	sessions  int
	rollbacks uint64
}

func (r swarmResult) summary() string {
	return fmt.Sprintf("frontier=%d sessions=%d rollbacks=%d label=%q",
		r.frontier, r.sessions, r.rollbacks, r.label)
}

// disconnectAll severs every link between the named sites (the name
// server stays reachable; edits are local and need no network at all).
func disconnectAll(w *World, names []string) {
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			w.Net.Disconnect(addr(names[i]), addr(names[j]))
		}
	}
}

func reconnectAll(w *World, names []string) {
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			w.Net.Reconnect(addr(names[i]), addr(names[j]))
		}
	}
}

// swarmConverged reports whether every site holds the same committed
// prefix at frontier want with nothing tentative left.
func swarmConverged(sites []*site.Site, oid objmodel.OID, want uint64) (bool, error) {
	var ref []byte
	for i, s := range sites {
		ev := s.Eventual()
		if ev.TentativeCount(oid) != 0 {
			return false, nil
		}
		state, csn, err := ev.CommittedState(oid)
		if err != nil {
			return false, err
		}
		if csn != want {
			return false, nil
		}
		if i == 0 {
			ref = state
		} else if !bytes.Equal(ref, state) {
			return false, fmt.Errorf("sites %s and %s agree on frontier %d but their committed bytes differ",
				sites[0].Name(), s.Name(), csn)
		}
	}
	return true, nil
}

// runWeaklyConnectedSwarm is the acceptance scenario: nSites sites track
// one object, edit it for editWindow while fully partitioned, reconcile
// by seeded random pairwise anti-entropy, and (when crash is set) survive
// a hard kill of the durable site partway through reconciliation.
func runWeaklyConnectedSwarm(t *testing.T, mode clockMode, seed int64, crash bool, dir string) swarmResult {
	t.Helper()
	const nSites = 5
	const edits = 24
	// 60 simulated seconds of disconnected editing. Free on the virtual
	// timeline; compressed under the real clock so the smoke layer stays
	// inside the watchdog.
	editWindow := 60 * time.Second
	if !mode.virtual {
		editWindow = 60 * time.Millisecond
	}

	w := mode.newWorld(seed)
	defer w.Close()

	var res swarmResult
	err := w.Within(func() error {
		var err error
		if err = w.ServeNames(); err != nil {
			return err
		}
		names := make([]string, nSites)
		sites := make([]*site.Site, nSites)
		for i := range sites {
			names[i] = fmt.Sprintf("e%d", i+1)
			if crash && i == 2 {
				sites[i], err = w.NewSite(names[i], site.WithDurability(dir), site.WithEventual(), site.WithNameServer("ns"))
			} else {
				sites[i], err = w.NewSite(names[i], site.WithEventual(), site.WithNameServer("ns"))
			}
			if err != nil {
				return err
			}
		}

		// Site e1 is the object's primary; everyone tracks the replica
		// from the same (pristine) state before any edit happens.
		master := &Node{}
		if err := sites[0].Bind("doc", master); err != nil {
			return err
		}
		if err := sites[0].Track(master); err != nil {
			return err
		}
		oid := sites[0].Eventual().Tracked()[0]
		replicas := make([]*Node, nSites)
		replicas[0] = master
		for i := 1; i < nSites; i++ {
			ref, err := sites[i].Lookup("doc")
			if err != nil {
				return err
			}
			if replicas[i], err = objmodel.Deref[*Node](ref); err != nil {
				return err
			}
			if err := sites[i].Track(replicas[i]); err != nil {
				return err
			}
		}

		// Partition the fleet completely and keep editing: every update is
		// appended tentatively to the local log, no site can reach another.
		disconnectAll(w, names)
		rng := rand.New(rand.NewSource(seed))
		gap := editWindow / time.Duration(edits)
		for e := 0; e < edits; e++ {
			i := rng.Intn(nSites)
			token := fmt.Sprintf("e%02d@%s", e, names[i])
			if _, err := sites[i].Apply(replicas[i], "chaostest.edit", []byte(token)); err != nil {
				return fmt.Errorf("disconnected edit %d at %s: %w", e, names[i], err)
			}
			w.Clock.Sleep(gap)
		}
		// Only the primary's own edits are committed; everything else is
		// tentative on its author.
		tentative := 0
		for _, s := range sites {
			tentative += s.Eventual().TentativeCount(oid)
		}
		_, committed, err := sites[0].Eventual().CommittedState(oid)
		if err != nil {
			return err
		}
		if int(committed)+tentative != edits {
			return fmt.Errorf("partitioned fleet holds %d committed + %d tentative, want %d edits",
				committed, tentative, edits)
		}

		// Reconcile: pairwise anti-entropy between seeded random pairs
		// until every site holds the identical committed prefix.
		reconnectAll(w, names)
		session := func() error {
			a := rng.Intn(nSites)
			b := rng.Intn(nSites - 1)
			if b >= a {
				b++
			}
			if _, err := sites[a].AntiEntropy(names[b]); err != nil {
				return fmt.Errorf("session %d (%s->%s): %w", res.sessions, names[a], names[b], err)
			}
			res.sessions++
			return nil
		}

		if crash {
			// A few sessions in, hard-kill the durable site and restart it
			// from its WAL: the reborn incarnation must hold the exact
			// committed frontier and tentative suffix of the dead one.
			for k := 0; k < 3; k++ {
				if err := session(); err != nil {
					return err
				}
			}
			ev := sites[2].Eventual()
			preState, preCSN, err := ev.CommittedState(oid)
			if err != nil {
				return err
			}
			preTent := ev.TentativeCount(oid)
			sites[2].Kill()
			if sites[2], err = w.NewSite(names[2], site.WithDurability(dir), site.WithEventual(), site.WithNameServer("ns")); err != nil {
				return fmt.Errorf("rebirth of %s: %w", names[2], err)
			}
			ev = sites[2].Eventual()
			postState, postCSN, err := ev.CommittedState(oid)
			if err != nil {
				return fmt.Errorf("rebirth of %s: committed state: %w", names[2], err)
			}
			if postCSN != preCSN || !bytes.Equal(postState, preState) {
				return fmt.Errorf("crash lost committed updates: frontier %d -> %d", preCSN, postCSN)
			}
			if got := ev.TentativeCount(oid); got != preTent {
				return fmt.Errorf("crash lost journaled tentative updates: %d -> %d", preTent, got)
			}
			entry, ok := sites[2].Heap().Get(oid)
			if !ok {
				return fmt.Errorf("rebirth of %s: tracked replica not recovered", names[2])
			}
			replicas[2] = entry.Obj.(*Node)
		}

		const maxSessions = 120
		for {
			done, err := swarmConverged(sites, oid, uint64(edits))
			if err != nil {
				return err
			}
			if done {
				break
			}
			if res.sessions >= maxSessions {
				return fmt.Errorf("no convergence after %d sessions", res.sessions)
			}
			if err := session(); err != nil {
				return err
			}
		}

		// Converged: committed bytes are identical everywhere, and with
		// nothing tentative the in-memory labels agree too.
		for _, r := range replicas[1:] {
			if r.Label != master.Label {
				return fmt.Errorf("labels diverged after convergence: %q vs %q", master.Label, r.Label)
			}
		}
		if _, res.frontier, err = sites[0].Eventual().CommittedState(oid); err != nil {
			return err
		}
		res.label = master.Label
		for _, s := range sites {
			res.rollbacks += s.Eventual().Stats().Rollbacks
		}
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// TestWeaklyConnectedSwarmConvergence: five fully partitioned sites edit
// one object for 60 simulated seconds, reconcile by seeded random
// pairwise anti-entropy, and end byte-identical — and the entire run
// (edits, session order, rollbacks, sessions-to-convergence) replays
// identically from the same seed.
func TestWeaklyConnectedSwarmConvergence(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		for _, seed := range []int64{7, 42} {
			first := runWeaklyConnectedSwarm(t, mode, seed, false, "")
			second := runWeaklyConnectedSwarm(t, mode, seed, false, "")
			if first != second {
				t.Fatalf("seed %d not deterministic:\n  run1: %s\n  run2: %s",
					seed, first.summary(), second.summary())
			}
			if first.frontier != 24 {
				t.Fatalf("seed %d: converged frontier %d, want 24", seed, first.frontier)
			}
			t.Logf("convergence-report seed=%d clock=%s %s", seed, mode.name, first.summary())
		}
	})
}

// TestWeaklyConnectedSwarmCrashMidSync: same fleet, but the durable site
// is hard-killed partway through reconciliation and reborn from its WAL.
// No committed or journaled-tentative update is lost, the fleet still
// converges, and the whole history is still seed-deterministic.
func TestWeaklyConnectedSwarmCrashMidSync(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		const seed = 11
		first := runWeaklyConnectedSwarm(t, mode, seed, true, t.TempDir())
		second := runWeaklyConnectedSwarm(t, mode, seed, true, t.TempDir())
		if first != second {
			t.Fatalf("crash run not deterministic:\n  run1: %s\n  run2: %s",
				first.summary(), second.summary())
		}
		if first.frontier != 24 {
			t.Fatalf("converged frontier %d, want 24", first.frontier)
		}
		t.Logf("convergence-report seed=%d clock=%s crash=midsync %s", seed, mode.name, first.summary())
	})
}
