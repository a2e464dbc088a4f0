package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
)

// Kill/restart scenarios: the chaos suite's process-crash counterpart to
// its link faults. A durable master site is hard-stopped mid-protocol and
// reborn from its WAL directory; the contract asserted here:
//
//   - demands outstanding against the dead site fail typed
//     (replication.ErrUnavailable), never hang;
//   - the reborn site recovers its masters, versions, and name bindings,
//     and re-exports proxy-ins at the ids remote replicas already hold;
//   - a put retried across the restart applies exactly once;
//   - offline edits journaled by a durable client before its own crash
//     reconcile via SyncDirty after rebirth.
//
// Like the link-fault suite, every scenario runs under both clocks, and
// the scenario bodies run inside one tracked w.Within closure.

// journalChain builds a chain at s and marks every linked node updated so
// the reference wiring is journaled (durability makes mutations durable
// at Register/Export/MarkUpdated boundaries; NewRef wiring alone is not a
// journaled mutation).
func journalChain(s *site.Site, prefix string, n int) ([]*Node, error) {
	nodes, err := BuildChain(s, prefix, n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n-1; i++ {
		if err := s.MarkUpdated(nodes[i]); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// runKillRestartMidDemand is the acceptance scenario: a client walks a
// durable master's chain incrementally, the master is killed mid-walk,
// the stranded demand fails typed, the master restarts from disk, the
// walk completes, and a fresh site resolves the re-registered binding.
// It returns a summary of everything observable, so the caller can assert
// a rerun from the same seed is deterministic.
func runKillRestartMidDemand(t *testing.T, mode clockMode, seed int64, dir string) []string {
	t.Helper()
	w := mode.newWorld(seed)
	defer w.Close()

	var summary []string
	err := w.Within(func() error {
		if err := w.ServeNames(); err != nil {
			return err
		}
		master, err := w.NewSite("master", site.WithDurability(dir), site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		nodes, err := journalChain(master, "doc", 6)
		if err != nil {
			return err
		}
		if err := master.Bind("doc/head", nodes[0]); err != nil {
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
		// Partial walk: two nodes replicated, the rest still behind faults.
		head, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return err
		}
		kid, err := objmodel.Deref[*Node](head.Kids[0])
		if err != nil {
			return err
		}

		master.Kill()

		// The outstanding demand fails typed (the enclosing watchdog rules
		// out a hang).
		if _, err := objmodel.Deref[*Node](kid.Kids[0]); !errors.Is(err, replication.ErrUnavailable) {
			return fmt.Errorf("stranded demand: want ErrUnavailable, got %v", err)
		}

		// Rebirth from disk. site.New replays the WAL, re-exports proxy-ins
		// at their recorded ids, and re-binds "doc/head" at the name server.
		reborn, err := w.NewSite("master", site.WithDurability(dir), site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		n, err := WalkAll(head, 50)
		if err != nil {
			return fmt.Errorf("walk after rebirth: %w", err)
		}
		if n != 6 {
			return fmt.Errorf("walk after rebirth reached %d nodes, want 6", n)
		}

		// A fresh site resolves the binding the reborn master re-registered.
		probe, err := w.NewSite("probe", site.WithNameServer("ns"))
		if err != nil {
			return err
		}
		pref, err := probe.LookupSpec("doc/head", replication.GetSpec{Mode: replication.Transitive})
		if err != nil {
			return fmt.Errorf("lookup after rebirth: %w", err)
		}
		proot, err := objmodel.Deref[*Node](pref)
		if err != nil {
			return err
		}
		pn, err := WalkAll(proot, 50)
		if err != nil || pn != 6 {
			return fmt.Errorf("probe walk: n=%d err=%v", pn, err)
		}

		// Deterministic summary: recovered identities, versions, and labels.
		// Entries() snapshots a map, so the per-entry lines are sorted.
		summary = []string{
			fmt.Sprintf("incarnation=%d", reborn.Incarnation()),
			fmt.Sprintf("heap=%d client=%d probe=%d",
				reborn.Heap().Len(), client.Heap().Len(), probe.Heap().Len()),
		}
		var entries []string
		for _, en := range reborn.Heap().Entries() {
			entries = append(entries,
				fmt.Sprintf("%v:%s:v%d", en.OID, en.Obj.(*Node).Label, en.Version()))
		}
		sort.Strings(entries)
		summary = append(summary, entries...)
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return summary
}

func TestKillRestartMidDemand(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		run1 := runKillRestartMidDemand(t, mode, 23, t.TempDir())
		run2 := runKillRestartMidDemand(t, mode, 23, t.TempDir())
		if !reflect.DeepEqual(run1, run2) {
			t.Fatalf("fresh-seed rerun diverged:\nrun1: %v\nrun2: %v", run1, run2)
		}
	})
}

// TestKillRestartMidSyncDirty: a client syncs offline edits while the
// master crashes partway through the session. The sync against the dead
// master fails typed, the reborn master still holds the already-applied
// edit at the right version, a put retried verbatim across the restart
// (the reborn rmi dedupe table is empty — only the journaled engine guard
// can stop it) applies exactly once, and the remaining dirty edit lands
// on the next SyncDirty.
func TestKillRestartMidSyncDirty(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(31)
		defer w.Close()
		dir := t.TempDir()

		err := w.Within(func() error {
			if err := w.ServeNames(); err != nil {
				return err
			}
			master, err := w.NewSite("master", site.WithDurability(dir), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			nodes, err := journalChain(master, "doc", 2)
			if err != nil {
				return err
			}
			if err := master.Bind("doc/head", nodes[0]); err != nil {
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

			// First offline edit, synced while the master is alive. Capture
			// the exact put a retry would re-send: same base version, same
			// state.
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
			appliedVersion := headEntry.Version() // master's version after the apply

			// Second edit; the master dies before it can be synced.
			second.Data = []byte("edit-2")
			if err := client.MarkUpdated(second); err != nil {
				return err
			}
			master.Kill()

			if _, err := client.SyncDirty(); !errors.Is(err, replication.ErrUnavailable) {
				return fmt.Errorf("sync against killed master: want ErrUnavailable, got %v", err)
			}
			if len(client.DirtyReplicas()) != 1 {
				return errors.New("failed sync must keep the replica dirty")
			}

			reborn, err := w.NewSite("master", site.WithDurability(dir), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			rebornHead, ok := reborn.Heap().Get(headEntry.OID)
			if !ok {
				return fmt.Errorf("head %v not recovered", headEntry.OID)
			}
			if got := string(rebornHead.Obj.(*Node).Data); got != "edit-1" {
				return fmt.Errorf("recovered head data %q, want the applied edit", got)
			}
			if rebornHead.Version() != appliedVersion {
				return fmt.Errorf("recovered head version %d, want %d", rebornHead.Version(), appliedVersion)
			}

			// Retry the first put verbatim across the restart: the journaled
			// (base, checksum) guard must answer with the recorded version
			// and NOT re-apply.
			res, err := client.Runtime().CallWithin(telemetry.SpanContext{}, prov, replication.BulkTimeout, "Put", dup)
			if err != nil {
				return fmt.Errorf("retried put across restart: %w", err)
			}
			reply, ok := res[0].(*replication.PutReply)
			if !ok {
				return fmt.Errorf("unexpected put reply %T", res[0])
			}
			if reply.NewVersion != appliedVersion {
				return fmt.Errorf("retried put answered version %d, want recorded %d", reply.NewVersion, appliedVersion)
			}
			if rebornHead.Version() != appliedVersion {
				return fmt.Errorf("retried put bumped the master to %d: applied twice", rebornHead.Version())
			}

			// The stranded second edit reconciles on the next sync.
			if synced, err := client.SyncDirty(); err != nil || synced != 1 {
				return fmt.Errorf("sync after rebirth: synced=%d err=%v", synced, err)
			}
			secondEntry, _ := client.Heap().EntryOf(second)
			rebornSecond, _ := reborn.Heap().Get(secondEntry.OID)
			if got := string(rebornSecond.Obj.(*Node).Data); got != "edit-2" {
				return fmt.Errorf("reborn master second node data %q", got)
			}
			if len(client.DirtyReplicas()) != 0 {
				return errors.New("all edits must be clean after the final sync")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableClientCrashRecoversOfflineEdits: the client side of the
// crash story — a durable mobile site journals an offline edit, dies
// before reconnecting, and its next incarnation delivers the edit.
func TestDurableClientCrashRecoversOfflineEdits(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(47)
		defer w.Close()
		dir := t.TempDir()

		err := w.Within(func() error {
			if err := w.ServeNames(); err != nil {
				return err
			}
			master, err := w.NewSite("master", site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			nodes, err := journalChain(master, "doc", 2)
			if err != nil {
				return err
			}
			if err := master.Bind("doc/head", nodes[0]); err != nil {
				return err
			}

			mobile, err := w.NewSite("mobile", site.WithDurability(dir), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			ref, err := mobile.LookupSpec("doc/head", replication.GetSpec{Mode: replication.Transitive})
			if err != nil {
				return err
			}
			head, err := objmodel.Deref[*Node](ref)
			if err != nil {
				return err
			}

			w.Net.Disconnect("mobile", "master")
			head.Data = []byte("written on the train")
			if err := mobile.MarkUpdated(head); err != nil {
				return err
			}
			// Syncing while partitioned fails typed; then the host powers off.
			if _, err := mobile.SyncDirty(); !errors.Is(err, replication.ErrUnavailable) {
				return fmt.Errorf("sync while partitioned: want ErrUnavailable, got %v", err)
			}
			mobile.Kill()

			w.Net.Reconnect("mobile", "master")
			reborn, err := w.NewSite("mobile", site.WithDurability(dir), site.WithNameServer("ns"))
			if err != nil {
				return err
			}
			if len(reborn.DirtyReplicas()) != 1 {
				return fmt.Errorf("reborn mobile has %d dirty replicas, want 1", len(reborn.DirtyReplicas()))
			}
			if synced, err := reborn.SyncDirty(); err != nil || synced != 1 {
				return fmt.Errorf("sync after rebirth: synced=%d err=%v", synced, err)
			}
			if got := string(nodes[0].Data); got != "written on the train" {
				return fmt.Errorf("master data %q after reconciliation", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
