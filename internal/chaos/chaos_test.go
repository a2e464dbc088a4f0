package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"obiwan/internal/check"
	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
)

// clockMode selects the time source a scenario runs on. Every scenario in
// this suite runs under both: the virtual mode is the fast deterministic
// layer, the real mode is the slow smoke layer (skipped under -short) that
// proves the same code paths hold when delays are actually slept.
type clockMode struct {
	name    string
	virtual bool
}

func clockModes() []clockMode {
	return []clockMode{{"virtual", true}, {"real", false}}
}

// forEachClock runs a scenario under both clock implementations as
// subtests.
func forEachClock(t *testing.T, run func(t *testing.T, mode clockMode)) {
	for _, mode := range clockModes() {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			if !mode.virtual && testing.Short() {
				t.Skip("real-clock smoke layer: skipped in -short mode")
			}
			run(t, mode)
		})
	}
}

func (m clockMode) newWorld(seed int64) *World {
	if m.virtual {
		return NewVirtualWorld(seed, netsim.Loopback)
	}
	return NewWorld(seed)
}

func spec1() replication.GetSpec {
	return replication.GetSpec{Mode: replication.Incremental, Batch: 1}
}

// runDisconnectDemandReconnect is the acceptance scenario: a client walks
// a chain incrementally while the uplink goes down mid-walk, reconnects a
// few sends later, and drops one more frame for good measure. It returns
// the world's event trace and the client's retry count so the caller can
// assert determinism across runs.
func runDisconnectDemandReconnect(t *testing.T, mode clockMode, seed int64) ([]string, uint64) {
	t.Helper()
	w := mode.newWorld(seed)
	defer w.Close()

	var retries uint64
	err := w.Within(func() error {
		master, err := w.NewSite("master")
		if err != nil {
			return err
		}
		client, err := w.NewSite("client")
		if err != nil {
			return err
		}
		nodes, err := BuildChain(master, "doc", 6)
		if err != nil {
			return err
		}
		desc, err := master.Export(nodes[0])
		if err != nil {
			return err
		}
		// Send 1 on client→master is the connection preamble; the walk's Get
		// calls follow. The outage lands mid-walk and the drop after it.
		w.Schedule("client", "master", netsim.NewFaultSchedule(
			netsim.FaultEvent{AtSend: 3, Action: netsim.ActDisconnect},
			netsim.FaultEvent{AtSend: 6, Action: netsim.ActReconnect},
			netsim.FaultEvent{AtSend: 9, Action: netsim.ActDrop},
		))
		ref := client.Engine().RefFromDescriptor(desc, spec1())

		root, err := objmodel.Deref[*Node](ref)
		if err != nil {
			return err
		}
		n, err := WalkAll(root, 50)
		if err != nil {
			return err
		}
		if n != 6 {
			return fmt.Errorf("walk reached %d nodes, want 6", n)
		}
		if got := client.Heap().Len(); got != 6 {
			return fmt.Errorf("client heap %d, want 6", got)
		}
		retries = client.Runtime().Stats().Retries
		if retries == 0 {
			return errors.New("the outage must have been crossed by retries")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return w.Trace(), retries
}

// TestDisconnectDemandReconnectDeterministic: the scripted
// disconnect→demand→reconnect scenario succeeds, and running it twice
// with the same seed produces the identical failure trace and the
// identical retry count — same seed ⇒ same event history.
func TestDisconnectDemandReconnectDeterministic(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		trace1, retries1 := runDisconnectDemandReconnect(t, mode, 42)
		trace2, retries2 := runDisconnectDemandReconnect(t, mode, 42)
		if len(trace1) == 0 {
			t.Fatal("scenario fired no fault events")
		}
		if !reflect.DeepEqual(trace1, trace2) {
			t.Fatalf("traces diverge:\nrun1: %v\nrun2: %v", trace1, trace2)
		}
		if retries1 != retries2 {
			t.Fatalf("retry counts diverge: %d vs %d", retries1, retries2)
		}
	})
}

// TestRetriedCallsExecuteExactlyOnce: replies are lost on the wire, the
// client re-sends, and the server-side counter proves no retried call
// executed twice — every Bump(1) is observed exactly once, in order.
func TestRetriedCallsExecuteExactlyOnce(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(7)
		defer w.Close()
		counter := &Counter{}
		var master, client *site.Site
		err := w.Within(func() error {
			var err error
			if master, err = w.NewSite("master"); err != nil {
				return err
			}
			// Lost replies are only recovered by re-sending, so the client
			// needs a per-try budget.
			p := DefaultRetry()
			p.PerTryTimeout = 40 * time.Millisecond
			if client, err = w.NewSite("client", site.WithRetry(p)); err != nil {
				return err
			}
			ref, err := master.Runtime().Export(counter)
			if err != nil {
				return err
			}
			// The master→client link carries only replies here: lose the
			// replies to the 2nd and 4th logical calls (the dedupe replays
			// shift later send numbers by one each).
			w.Schedule("master", "client", netsim.NewFaultSchedule(
				netsim.FaultEvent{AtSend: 2, Action: netsim.ActDrop},
				netsim.FaultEvent{AtSend: 4, Action: netsim.ActDrop},
			))

			const calls = 5
			for i := int64(1); i <= calls; i++ {
				res, err := client.Runtime().Call(ref, "Bump", int64(1))
				if err != nil {
					return fmt.Errorf("call %d: %w", i, err)
				}
				if res[0] != i {
					return fmt.Errorf("call %d observed count %v: a duplicate executed", i, res[0])
				}
			}
			if got := counter.Value(); got != calls {
				return fmt.Errorf("counter %d, want %d (exactly-once)", got, calls)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := master.Runtime().Stats()
		if ss.DupsSuppressed != 2 {
			t.Fatalf("duplicates suppressed = %d, want 2", ss.DupsSuppressed)
		}
		if cs := client.Runtime().Stats(); cs.Retries != 2 {
			t.Fatalf("client retries = %d, want 2", cs.Retries)
		}
	})
}

// TestPutAppliesOnceUnderReplyLoss: a put whose reply is lost is re-sent
// and must not be installed twice — internal/check, over the master's
// installs, finds the put installed once, at the version the client saw
// acknowledged. The real-clock leg serves at the shipped dispatch width,
// the virtual one inline.
func TestPutAppliesOnceUnderReplyLoss(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(11)
		defer w.Close()
		var history check.History
		var client *site.Site
		err := w.Within(func() error {
			master, err := w.NewSite("master")
			if err != nil {
				return err
			}
			history.Watch("master", master.Engine())
			p := DefaultRetry()
			p.PerTryTimeout = 40 * time.Millisecond
			if client, err = w.NewSite("client", site.WithRetry(p)); err != nil {
				return err
			}
			nodes, err := BuildChain(master, "doc", 2)
			if err != nil {
				return err
			}
			desc, err := master.Export(nodes[0])
			if err != nil {
				return err
			}
			ref := client.Engine().RefFromDescriptor(desc, spec1())
			replica, err := objmodel.Deref[*Node](ref)
			if err != nil {
				return err
			}

			// The schedule counts from attachment, so the next master→client
			// send — the put's reply — is send 1. Lose it; the re-sent put
			// must be suppressed, not re-applied.
			w.Schedule("master", "client", netsim.NewFaultSchedule(
				netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
			))
			replica.Data = []byte("edited")
			if err := client.MarkUpdated(replica); err != nil {
				return err
			}
			if err := client.Put(replica); err != nil {
				return fmt.Errorf("put with lost reply: %w", err)
			}
			en, _ := client.Heap().EntryOf(replica)
			if err := history.Check([]check.Put{{Client: "client", OID: en.OID, Version: en.Version()}}, "master"); err != nil {
				return err
			}
			if string(nodes[0].Data) != "edited" {
				return fmt.Errorf("master data %q after put", nodes[0].Data)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cs := client.Runtime().Stats(); cs.Retries != 1 {
			t.Fatalf("client retries = %d, want 1", cs.Retries)
		}
	})
}

// TestPersistentPartitionFailsTypedThenHeals: with the link down for good,
// a demand neither hangs nor returns an untyped error — it fails with
// replication.ErrUnavailable once the retry policy is exhausted. After the
// partition heals the same demand succeeds.
func TestPersistentPartitionFailsTypedThenHeals(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(3)
		defer w.Close()
		err := w.Within(func() error {
			master, err := w.NewSite("master")
			if err != nil {
				return err
			}
			client, err := w.NewSite("client")
			if err != nil {
				return err
			}
			nodes, err := BuildChain(master, "doc", 3)
			if err != nil {
				return err
			}
			desc, err := master.Export(nodes[0])
			if err != nil {
				return err
			}
			ref := client.Engine().RefFromDescriptor(desc, spec1())
			head, err := objmodel.Deref[*Node](ref) // replicate the head while up
			if err != nil {
				return err
			}

			w.Net.Disconnect("client", "master")
			if _, err := objmodel.Deref[*Node](head.Kids[0]); !errors.Is(err, replication.ErrUnavailable) {
				return fmt.Errorf("demand against partition: want ErrUnavailable, got %v", err)
			}

			w.Net.Reconnect("client", "master")
			kid, err := objmodel.Deref[*Node](head.Kids[0])
			if err != nil {
				return fmt.Errorf("demand after heal: %w", err)
			}
			if kid.Label != "doc-1" {
				return fmt.Errorf("demanded %q, want doc-1", kid.Label)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// graphShape describes one scenario topology.
type graphShape struct {
	name  string
	count int
	build func(s *site.Site) (*Node, error)
}

func shapes() []graphShape {
	return []graphShape{
		{"chain", 8, func(s *site.Site) (*Node, error) {
			nodes, err := BuildChain(s, "c", 8)
			if err != nil {
				return nil, err
			}
			return nodes[0], nil
		}},
		{"tree", 7, func(s *site.Site) (*Node, error) {
			root, n, err := BuildTree(s, "t", 3, 2)
			if err != nil {
				return nil, err
			}
			if n != 7 {
				return nil, fmt.Errorf("tree has %d nodes, want 7", n)
			}
			return root, nil
		}},
		{"diamond", 4, func(s *site.Site) (*Node, error) {
			nodes, err := BuildDiamond(s, "d")
			if err != nil {
				return nil, err
			}
			return nodes[0], nil
		}},
	}
}

// runShape walks one graph shape under a random (but seeded) fault
// schedule and returns the fired-event trace.
func runShape(t *testing.T, mode clockMode, sh graphShape, seed int64) []string {
	t.Helper()
	w := mode.newWorld(seed)
	defer w.Close()
	err := w.Within(func() error {
		master, err := w.NewSite("master")
		if err != nil {
			return err
		}
		client, err := w.NewSite("client")
		if err != nil {
			return err
		}
		root, err := sh.build(master)
		if err != nil {
			return err
		}
		desc, err := master.Export(root)
		if err != nil {
			return err
		}
		w.Schedule("client", "master", netsim.RandomSchedule(seed, 30, 2, 3, 3))
		ref := client.Engine().RefFromDescriptor(desc, spec1())

		rootReplica, err := derefWithRetry(ref, 50)
		if err != nil {
			return err
		}
		n, err := WalkAll(rootReplica, 50)
		if err != nil {
			return err
		}
		if n != sh.count {
			return fmt.Errorf("walk reached %d nodes, want %d", n, sh.count)
		}
		if got := client.Heap().Len(); got != sh.count {
			return fmt.Errorf("heap %d, want %d (identity dedupe)", got, sh.count)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s/seed%d: %v", sh.name, seed, err)
	}
	return w.Trace()
}

// derefWithRetry resolves ref, retrying typed unavailability (each
// rejected attempt advances the schedule toward its scripted reconnect).
func derefWithRetry(ref *objmodel.Ref, maxRounds int) (*Node, error) {
	var lastErr error
	for round := 0; round <= maxRounds; round++ {
		n, err := objmodel.Deref[*Node](ref)
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, replication.ErrUnavailable) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("deref did not converge: %w", lastErr)
}

// TestGraphShapesUnderRandomSchedules: every shape × seed combination
// completes its walk under a seeded random outage/drop schedule (the
// "%s replication over %s graph" matrix), and replaying a combination
// yields the identical fault trace.
func TestGraphShapesUnderRandomSchedules(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		for _, sh := range shapes() {
			for _, seed := range []int64{1, 2, 5} {
				sh, seed := sh, seed
				t.Run(fmt.Sprintf("%s/seed%d", sh.name, seed), func(t *testing.T) {
					trace1 := runShape(t, mode, sh, seed)
					trace2 := runShape(t, mode, sh, seed)
					if !reflect.DeepEqual(trace1, trace2) {
						t.Fatalf("traces diverge:\nrun1: %v\nrun2: %v", trace1, trace2)
					}
				})
			}
		}
	})
}

// TestSyncDirtyAfterOutage: the full mobile session — replicate, edit
// offline behind a partition, fail typed, reconnect, SyncDirty — the
// paper's §2.2 walkthrough under the chaos harness.
func TestSyncDirtyAfterOutage(t *testing.T) {
	forEachClock(t, func(t *testing.T, mode clockMode) {
		w := mode.newWorld(19)
		defer w.Close()
		err := w.Within(func() error {
			master, err := w.NewSite("master")
			if err != nil {
				return err
			}
			client, err := w.NewSite("client")
			if err != nil {
				return err
			}
			nodes, err := BuildChain(master, "doc", 3)
			if err != nil {
				return err
			}
			desc, err := master.Export(nodes[0])
			if err != nil {
				return err
			}
			ref := client.Engine().RefFromDescriptor(desc, replication.GetSpec{Mode: replication.Transitive})
			head, err := objmodel.Deref[*Node](ref)
			if err != nil {
				return err
			}

			w.Net.Disconnect("client", "master")
			// Offline edits keep working on the replicas.
			head.Data = []byte("offline edit")
			if err := client.MarkUpdated(head); err != nil {
				return err
			}
			// Syncing while down fails typed, and the dirty mark survives.
			if _, err := client.SyncDirty(); !errors.Is(err, replication.ErrUnavailable) {
				return fmt.Errorf("sync while down: want ErrUnavailable, got %v", err)
			}
			if len(client.DirtyReplicas()) != 1 {
				return errors.New("failed sync must keep the replica dirty")
			}

			w.Net.Reconnect("client", "master")
			synced, err := client.SyncDirty()
			if err != nil || synced != 1 {
				return fmt.Errorf("sync after reconnect: synced=%d err=%v", synced, err)
			}
			if string(nodes[0].Data) != "offline edit" {
				return fmt.Errorf("master data %q after sync", nodes[0].Data)
			}
			if len(client.DirtyReplicas()) != 0 {
				return errors.New("synced replica must be clean")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplicableMethodsCallDirect: every method of Node takes invoke's typed
// call, registration having planned it; one that falls back to reflection
// is named.
func TestReplicableMethodsCallDirect(t *testing.T) {
	p, err := invoke.PlanOf(reflect.TypeFor[*Node]())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Reflective(); len(r) > 0 {
		t.Fatalf("methods on the reflective path: %v", r)
	}
}
