package chaos

import (
	"strings"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/site"
	"obiwan/internal/transport"
)

// runSlowCriticalPath is the critical-path attribution acceptance
// scenario: a client walks a group-mastered chain while the leader is
// permanently killed mid-walk, then writes through the elected successor.
// A fleet hub scrapes the survivors and renders the worst traced demands
// as phase-annotated critical paths plus the aggregated attribution
// profile — the `obiwan-admin fleet slow` / `fleet attribution` output.
// Under the virtual clock that render is a pure function of the seed.
func runSlowCriticalPath(t *testing.T, seed int64) string {
	t.Helper()
	w := NewVirtualWorld(seed, netsim.Loopback)
	defer w.Close()

	var out string
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
		nodes, err := journalChain(leader, "doc", 5)
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
		hub, err := w.NewSite("hub", site.WithNameServer("ns"),
			site.WithFleet([]transport.Addr{"g1", "g2", "g3", "client"}))
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
		if _, err := objmodel.Deref[*Node](head.Kids[0]); err != nil {
			return err
		}

		// Permanent leader loss mid-walk: the remaining demands cross the
		// election, so their spans carry elect.wait (and retry.backoff)
		// on the fault chain.
		leader.Kill()
		survivors := without(members, leader)
		if _, err := WalkAll(head, 50); err != nil {
			return err
		}
		if _, err := w.AwaitLeader(survivors, leaderPoll); err != nil {
			return err
		}

		// A write through the successor exercises the consensus submit
		// path (group.submit / submit.wait) behind the serve span.
		head.Data = []byte("attributed")
		if err := client.MarkUpdated(head); err != nil {
			return err
		}
		if _, err := client.SyncDirty(); err != nil {
			return err
		}
		if err := awaitGroupSync(w, survivors, failoverBound); err != nil {
			return err
		}

		chunk := hub.Fleet().Fleet(true, 3)
		var b strings.Builder
		for _, st := range chunk.Slow {
			b.WriteString(st.Format())
			b.WriteByte('\n')
		}
		b.WriteString(chunk.Attribution.Format())
		out = b.String()
		return nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return out
}

// TestSlowCriticalPathDeterministic: the acceptance criterion for the
// attribution layer — on a seeded virtual-clock chaos run, the rendered
// slow traces are phase-annotated critical paths whose election wait is
// visible on the fault chain, and two full reruns of the same seed render
// byte-identical output (trace ids, span chain, durations, shares).
func TestSlowCriticalPathDeterministic(t *testing.T) {
	first := runSlowCriticalPath(t, 11)
	second := runSlowCriticalPath(t, 11)
	if first != second {
		t.Fatalf("reruns differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	t.Logf("slow output:\n%s", first)
	for _, want := range []string{
		"rmi.call.latency_ns", // the flagging instrument
		"trace=",              // the annotated chain header
		"self=",               // per-step self-time
		"elect.wait",          // the election stall on the fault chain
		"attribution over",    // the aggregated profile
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("slow output missing %q:\n%s", want, first)
		}
	}
}
