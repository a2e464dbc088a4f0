package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// Master-group failover scenarios: the consensus-replicated counterpart to
// the kill/restart suite. A 3-site master group loses its leader
// PERMANENTLY — no rebirth, no WAL — and the contract asserted here:
//
//   - the surviving majority elects a new leader within a bounded window;
//   - a demand outstanding against the dead leader completes transparently
//     against the new one (the client only ever swapped addresses);
//   - a put retried verbatim across the failover hits the replicated
//     dedupe guard on the new leader and applies exactly once;
//   - followers answer with the typed not-leader redirect, and its hint
//     survives the RMI boundary;
//   - every surviving member converges to an identical master heap;
//   - under the virtual clock the whole story replays bit-identically
//     per seed, with -race.

// failoverBound is the acceptance window for electing a serving leader
// after a permanent kill. Generous against the 100ms election timeout used
// here: the real-clock layer runs under -race on loaded CI machines.
const failoverBound = 10 * time.Second

// groupCfg is the shared 3-member configuration. Every member must be
// built from an identical copy (same name, members, timing, seed).
func groupCfg(seed int64) site.GroupConfig {
	return site.GroupConfig{
		Name:            "grp",
		Members:         []transport.Addr{"g1", "g2", "g3"},
		ElectionTimeout: 100 * time.Millisecond,
		Seed:            seed,
	}
}

// leaderPoll is how often the scenarios poll for a serving leader.
const leaderPoll = 5 * time.Millisecond

// without filters one site out of a membership slice.
func without(members []*site.Site, dead *site.Site) []*site.Site {
	var out []*site.Site
	for _, s := range members {
		if s != dead {
			out = append(out, s)
		}
	}
	return out
}

// heapLines renders a member's master heap as sorted "OID:label:vN" lines.
// The label is read under the entry's state lock: under the real clock a
// follower may be restoring a committed command into the same object
// concurrently.
func heapLines(s *site.Site) []string {
	var lines []string
	for _, en := range s.Heap().Entries() {
		en.LockState()
		label := en.Obj.(*Node).Label
		en.UnlockState()
		lines = append(lines, fmt.Sprintf("%v:%s:v%d", en.OID, label, en.Version()))
	}
	sort.Strings(lines)
	return lines
}

// awaitGroupSync polls until every member renders an identical master
// heap (followers apply committed commands one heartbeat behind the
// leader, so convergence is eventual but fast).
func awaitGroupSync(w *World, members []*site.Site, timeout time.Duration) error {
	deadline := w.Clock.Now().Add(timeout)
	for {
		want := heapLines(members[0])
		aligned := true
		for _, s := range members[1:] {
			if !reflect.DeepEqual(heapLines(s), want) {
				aligned = false
				break
			}
		}
		if aligned {
			return nil
		}
		if !w.Clock.Now().Before(deadline) {
			return fmt.Errorf("members did not converge within %v", timeout)
		}
		w.Clock.Sleep(5 * time.Millisecond)
	}
}

// runGroupLeaderKillMidDemand: a client walks a group-mastered chain
// incrementally; the leader is permanently killed mid-walk; the walk
// completes against the elected successor without the client doing
// anything but retry. Returns a deterministic summary for seed-replay
// comparison.
func runGroupLeaderKillMidDemand(t *testing.T, mode clockMode, seed int64) []string {
	t.Helper()
	w := mode.newWorld(seed)
	defer w.Close()

	var summary []string
	err := w.Within(func() error {
		if err := w.ServeNames(); err != nil {
			return err
		}
		members, err := w.NewGroup(groupCfg(seed), site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		leader, err := w.AwaitLeader(members, leaderPoll)
		if err != nil {
			return err
		}
		nodes, err := journalChain(leader, "doc", 6)
		if err != nil {
			return err
		}
		if err := leader.Bind("doc/head", nodes[0]); err != nil {
			return err
		}

		client, err := w.NewSite("client", site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		ref, err := client.LookupSpec("doc/head", spec1())
		if err != nil {
			return err
		}
		// Partial walk: two nodes replicated, four still to demand.
		head, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return err
		}
		if _, err := objmodel.Deref[*Node](head.Kids[0]); err != nil {
			return err
		}

		// Permanent loss: the leader is killed and never reborn. The
		// remaining walk crosses the election transparently.
		killedAt := w.Clock.Now()
		leader.Kill()
		survivors := without(members, leader)

		n, err := WalkAll(head, 50)
		if err != nil {
			return fmt.Errorf("walk across failover: %w", err)
		}
		if n != 6 {
			return fmt.Errorf("walk across failover reached %d nodes, want 6", n)
		}
		newLeader, err := w.AwaitLeader(survivors, leaderPoll)
		if err != nil {
			return err
		}
		elapsed := w.Clock.Now().Sub(killedAt)
		if elapsed > failoverBound {
			return fmt.Errorf("failover took %v, bound %v", elapsed, failoverBound)
		}

		// The write path works against the successor too: edit, sync, and
		// every survivor converges to the same master heap.
		head.Data = []byte("after-failover")
		if err := client.MarkUpdated(head); err != nil {
			return err
		}
		if synced, err := client.SyncDirty(); err != nil || synced != 1 {
			return fmt.Errorf("sync after failover: synced=%d err=%v", synced, err)
		}
		if err := awaitGroupSync(w, survivors, failoverBound); err != nil {
			return err
		}
		clientHead, _ := client.Heap().EntryOf(head)
		headEntry, ok := newLeader.Heap().Get(clientHead.OID)
		if !ok {
			return errors.New("new leader lost the head master")
		}
		headEntry.LockState()
		got := string(headEntry.Obj.(*Node).Data)
		headEntry.UnlockState()
		if got != "after-failover" {
			return fmt.Errorf("new leader head data %q after sync", got)
		}

		// The failover is on the flight recorder: the successor preserved
		// its own election.
		elected := false
		for _, ev := range newLeader.Telemetry().Flight().Snapshot() {
			if ev.Kind == "consensus.elected" {
				elected = true
			}
		}
		if !elected {
			return errors.New("no consensus.elected event on the new leader's flight recorder")
		}

		summary = []string{
			fmt.Sprintf("leader1=%s leader2=%s failover=%v", leader.Addr(), newLeader.Addr(), elapsed),
			fmt.Sprintf("heap leader=%d client=%d", newLeader.Heap().Len(), client.Heap().Len()),
		}
		summary = append(summary, heapLines(newLeader)...)
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return summary
}

func TestGroupLeaderKillMidDemand(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		run1 := runGroupLeaderKillMidDemand(t, mode, 61)
		if !mode.virtual {
			return // real-clock election order is timing-dependent
		}
		run2 := runGroupLeaderKillMidDemand(t, mode, 61)
		if !reflect.DeepEqual(run1, run2) {
			t.Fatalf("same-seed rerun diverged:\nrun1: %v\nrun2: %v", run1, run2)
		}
	})
}

// TestGroupLeaderKillMidSyncDirty: the exactly-once half. A client syncs
// one edit through the leader, the leader dies permanently, the next sync
// fails over transparently, and the FIRST put retried verbatim against the
// new leader is answered from the replicated dedupe guard — the recorded
// version, no second apply. Followers redirect with the typed hint.
func TestGroupLeaderKillMidSyncDirty(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(67)
		defer w.Close()

		err := w.Within(func() error {
			if err := w.ServeNames(); err != nil {
				return err
			}
			members, err := w.NewGroup(groupCfg(67), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			leader, err := w.AwaitLeader(members, leaderPoll)
			if err != nil {
				return err
			}
			nodes, err := journalChain(leader, "doc", 2)
			if err != nil {
				return err
			}
			if err := leader.Bind("doc/head", nodes[0]); err != nil {
				return err
			}

			client, err := w.NewSite("client", site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			ref, err := client.LookupSpec("doc/head", replication.GetSpec{Mode: replication.Transitive})
			if err != nil {
				return err
			}
			head, err := objmodel.Deref[*Node](ref)
			if err != nil {
				return err
			}
			second, err := objmodel.Deref[*Node](head.Kids[0])
			if err != nil {
				return err
			}

			// First edit, synced while the leader lives. Capture the exact
			// put a retry would re-send.
			head.Data = []byte("edit-1")
			if err := client.MarkUpdated(head); err != nil {
				return err
			}
			headEntry, _ := client.Heap().EntryOf(head)
			base := headEntry.Version()
			state, err := client.Engine().CaptureSnapshot(head)
			if err != nil {
				return err
			}
			dup := &replication.PutRequest{OID: uint64(headEntry.OID), BaseVersion: base, State: state}
			prov := headEntry.Provider()

			if synced, err := client.SyncDirty(); err != nil || synced != 1 {
				return fmt.Errorf("first sync: synced=%d err=%v", synced, err)
			}
			appliedVersion := headEntry.Version()

			// A follower refuses the same put with the typed redirect, hint
			// pointing at the leader, surviving the RMI boundary. It must
			// have applied the head's registration first, or on a loaded
			// real clock it answers that the object is not exported.
			if err := awaitGroupSync(w, members, failoverBound); err != nil {
				return err
			}
			follower := without(members, leader)[0]
			fprov := prov
			fprov.Addr = follower.Addr()
			if _, err := client.Runtime().CallWithin(telemetry.SpanContext{}, fprov, replication.BulkTimeout, "Put", dup); err == nil {
				return errors.New("follower accepted a put")
			} else {
				hint, ok := replication.NotLeaderHint(err)
				if !ok {
					return fmt.Errorf("follower put: want not-leader redirect, got %v", err)
				}
				if hint != leader.Addr() {
					return fmt.Errorf("follower redirect hint %q, want %q", hint, leader.Addr())
				}
			}

			// Second edit; the leader dies permanently before it syncs. The
			// sync itself crosses the failover — it succeeds against the
			// successor without the client noticing.
			second.Data = []byte("edit-2")
			if err := client.MarkUpdated(second); err != nil {
				return err
			}
			leader.Kill()
			survivors := without(members, leader)

			if synced, err := client.SyncDirty(); err != nil || synced != 1 {
				return fmt.Errorf("sync across failover: synced=%d err=%v", synced, err)
			}
			newLeader, err := w.AwaitLeader(survivors, leaderPoll)
			if err != nil {
				return err
			}

			// Retry the FIRST put verbatim against the new leader: the
			// dedupe guard is part of the agreed state, so the successor
			// answers the recorded version and does NOT re-apply.
			prov.Addr = newLeader.Addr()
			res, err := client.Runtime().CallWithin(telemetry.SpanContext{}, prov, replication.BulkTimeout, "Put", dup)
			if err != nil {
				return fmt.Errorf("retried put across failover: %w", err)
			}
			reply, ok := res[0].(*replication.PutReply)
			if !ok {
				return fmt.Errorf("unexpected put reply %T", res[0])
			}
			if reply.NewVersion != appliedVersion {
				return fmt.Errorf("retried put answered version %d, want recorded %d", reply.NewVersion, appliedVersion)
			}
			newHead, ok := newLeader.Heap().Get(headEntry.OID)
			if !ok {
				return errors.New("new leader lost the head master")
			}
			if newHead.Version() != appliedVersion {
				return fmt.Errorf("retried put bumped the new leader to %d: applied twice", newHead.Version())
			}
			newHead.LockState()
			headData := string(newHead.Obj.(*Node).Data)
			newHead.UnlockState()
			if headData != "edit-1" {
				return fmt.Errorf("new leader head data %q", headData)
			}

			// Both survivors converge to identical master heaps holding both
			// applied edits.
			if err := awaitGroupSync(w, survivors, failoverBound); err != nil {
				return err
			}
			secondEntry, _ := client.Heap().EntryOf(second)
			for _, s := range survivors {
				en, ok := s.Heap().Get(secondEntry.OID)
				if !ok {
					return fmt.Errorf("%s lost the second master", s.Name())
				}
				en.LockState()
				secondData := string(en.Obj.(*Node).Data)
				en.UnlockState()
				if secondData != "edit-2" {
					return fmt.Errorf("%s second node data %q", s.Name(), secondData)
				}
			}
			if len(client.DirtyReplicas()) != 0 {
				return errors.New("all edits must be clean after the failover sync")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestGroupRefreshRepinsAfterFailover: every replication call re-pins the
// replica to the member that answered. A refresh that failed over once
// leaves the replica pointing at the new leader, so the next refresh goes
// straight there instead of burning the retry policy against the dead
// member first. Virtual clock only: the send-error count is exact there.
func TestGroupRefreshRepinsAfterFailover(t *testing.T) {
	w := clockMode{virtual: true}.newWorld(71)
	defer w.Close()

	err := w.Within(func() error {
		if err := w.ServeNames(); err != nil {
			return err
		}
		members, err := w.NewGroup(groupCfg(71), site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		leader, err := w.AwaitLeader(members, leaderPoll)
		if err != nil {
			return err
		}
		nodes, err := journalChain(leader, "doc", 2)
		if err != nil {
			return err
		}
		if err := leader.Bind("doc/head", nodes[0]); err != nil {
			return err
		}
		client, err := w.NewSite("client", site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		ref, err := client.LookupSpec("doc/head", spec1())
		if err != nil {
			return err
		}
		head, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return err
		}
		entry, _ := client.Heap().EntryOf(head)
		if got := entry.Provider().Addr; got != leader.Addr() {
			return fmt.Errorf("replica pinned to %s before the kill, want the leader %s", got, leader.Addr())
		}

		leader.Kill()
		newLeader, err := w.AwaitLeader(without(members, leader), leaderPoll)
		if err != nil {
			return err
		}
		if err := client.Refresh(head); err != nil {
			return fmt.Errorf("refresh across failover: %w", err)
		}
		if got := entry.Provider().Addr; got != newLeader.Addr() {
			return fmt.Errorf("replica pinned to %s after the refresh failed over, want the new leader %s", got, newLeader.Addr())
		}
		before := client.Runtime().Stats().SendErrors
		if err := client.Refresh(head); err != nil {
			return fmt.Errorf("second refresh: %w", err)
		}
		if extra := client.Runtime().Stats().SendErrors - before; extra != 0 {
			return fmt.Errorf("second refresh hit %d send errors: it went to the dead member first", extra)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupRebindAfterFailover: the naming half. The binding was published
// by the old leader; after the kill, the successor re-publishes it under
// its own address, and a fresh site resolves it without knowing the group
// existed.
func TestGroupRebindAfterFailover(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(71)
		defer w.Close()

		err := w.Within(func() error {
			if err := w.ServeNames(); err != nil {
				return err
			}
			members, err := w.NewGroup(groupCfg(71), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			leader, err := w.AwaitLeader(members, leaderPoll)
			if err != nil {
				return err
			}
			nodes, err := journalChain(leader, "doc", 3)
			if err != nil {
				return err
			}
			if err := leader.Bind("doc/head", nodes[0]); err != nil {
				return err
			}

			leader.Kill()
			survivors := without(members, leader)
			newLeader, err := w.AwaitLeader(survivors, leaderPoll)
			if err != nil {
				return err
			}

			// The successor republishes asynchronously after winning; poll
			// until the binding points at a survivor.
			deadline := w.Clock.Now().Add(failoverBound)
			probe, err := w.NewSite("probe", site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			for {
				ref, err := probe.LookupSpec("doc/head", replication.GetSpec{Mode: replication.Transitive})
				if err == nil {
					root, derr := objmodel.Deref[*Node](ref)
					if derr == nil {
						if n, werr := WalkAll(root, 50); werr == nil && n == 3 {
							break
						}
					}
				}
				if !w.Clock.Now().Before(deadline) {
					return fmt.Errorf("probe never resolved the republished binding: %v", err)
				}
				w.Clock.Sleep(20 * time.Millisecond)
			}
			_ = newLeader
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
