package site

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"obiwan/internal/admin"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// inVirtualWorld runs fn as simulated work on a fresh virtual clock over
// loopback links.
func inVirtualWorld(t *testing.T, fn func(vc *netsim.VirtualClock, net *transport.MemNetwork) error) {
	t.Helper()
	vc := netsim.NewVirtualClock()
	defer vc.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, vc)
	var err error
	vc.Run(func() { err = fn(vc, net) })
	if err != nil {
		t.Fatal(err)
	}
}

// treeShape is an expected span subtree: site/name plus ordered children.
type treeShape struct {
	site, name string
	kids       []treeShape
}

func assertShape(t *testing.T, n *telemetry.TraceNode, want treeShape, path string) {
	t.Helper()
	at := fmt.Sprintf("%s/%s", path, want.name)
	if n.Span.Site != want.site || n.Span.Name != want.name {
		t.Fatalf("%s: got span %s@%s", at, n.Span.Name, n.Span.Site)
	}
	if len(n.Children) != len(want.kids) {
		t.Fatalf("%s: %d children, want %d:\n%s", at, len(n.Children), len(want.kids), telemetry.FormatTree(n))
	}
	for i, k := range want.kids {
		assertShape(t, n.Children[i], k, at)
	}
}

// runFaultChainScenario drives the paper's fault chain across three
// sites of a virtual world, each with its default hub: gamma faults doc-0
// (mastered at alpha), whose payload leaves a frontier reference to doc-1
// (mastered at beta); gamma then faults that too. Everything runs under
// one scenario root span. It returns the rooted trees built from all three
// sites' spans, and the world's time when the scenario ended.
func runFaultChainScenario(t *testing.T) (trees []*telemetry.TraceNode, end time.Time) {
	t.Helper()
	inVirtualWorld(t, func(vc *netsim.VirtualClock, net *transport.MemNetwork) error {
		var sites []*Site
		defer func() {
			for _, s := range sites {
				s.Close()
			}
		}()
		for _, name := range []string{"alpha", "beta", "gamma"} {
			s, err := New(name, net, WithoutRuntimeSampler())
			if err != nil {
				return err
			}
			sites = append(sites, s)
		}
		alpha, beta, gamma := sites[0], sites[1], sites[2]

		doc1 := &note{Text: "doc-1"}
		d1, err := beta.Export(doc1)
		if err != nil {
			return err
		}
		doc0 := &note{Text: "doc-0", Next: alpha.Engine().RefFromDescriptor(d1, replication.DefaultSpec)}
		d0, err := alpha.Export(doc0)
		if err != nil {
			return err
		}

		spec := replication.GetSpec{Mode: replication.Incremental, Batch: 1}
		ref0 := gamma.Engine().RefFromDescriptor(d0, spec)
		root := gamma.Telemetry().StartRoot("scenario", vc.Now())
		obj0, err := gamma.Engine().Replicate(root.Context(), ref0, spec)
		if err != nil {
			return err
		}
		rep0, ok := obj0.(*note)
		if !ok {
			return fmt.Errorf("replicated %T", obj0)
		}
		if _, err := gamma.Engine().Replicate(root.Context(), rep0.Next, spec); err != nil {
			return err
		}
		end = vc.Now()
		root.End(end)

		var all []telemetry.SpanRecord
		for _, s := range sites {
			all = append(all, s.Telemetry().Spans(0)...)
		}
		trees = telemetry.BuildTrees(all)
		return nil
	})
	return trees, end
}

// TestFaultChainSpansFormOneRootedTree: the chain's spans form one tree,
// and a site's default hub stamps them on its runtime's clock: every span
// lies on the world's virtual timeline (a wall-clock stamp would lie
// decades past its end).
func TestFaultChainSpansFormOneRootedTree(t *testing.T) {
	trees, end := runFaultChainScenario(t)
	if len(trees) != 1 {
		for _, tr := range trees {
			t.Log(telemetry.FormatTree(tr))
		}
		t.Fatalf("got %d rooted trees, want 1", len(trees))
	}
	demand := func(provider string) treeShape {
		return treeShape{site: "gamma", name: "fault", kids: []treeShape{
			{site: "gamma", name: "rmi:get", kids: []treeShape{
				{site: provider, name: "serve:get", kids: []treeShape{
					{site: provider, name: "assemble"},
				}},
			}},
			{site: "gamma", name: "materialize"},
		}}
	}
	assertShape(t, trees[0], treeShape{
		site: "gamma", name: "scenario",
		kids: []treeShape{demand("alpha"), demand("beta")},
	}, "")
	trees[0].Walk(func(_ int, sp telemetry.SpanRecord) {
		if sp.StartNS < netsim.VirtualBase.UnixNano() || sp.StartNS > sp.EndNS || sp.EndNS > end.UnixNano() {
			t.Fatalf("%s@%s spans %d..%d ns, off the world's timeline %d..%d",
				sp.Name, sp.Site, sp.StartNS, sp.EndNS, netsim.VirtualBase.UnixNano(), end.UnixNano())
		}
	})
}

func TestFaultChainTraceIsDeterministic(t *testing.T) {
	render := func(trees []*telemetry.TraceNode) string {
		var b strings.Builder
		for _, tr := range trees {
			b.WriteString(telemetry.FormatTree(tr))
		}
		return b.String()
	}
	first, _ := runFaultChainScenario(t)
	second, _ := runFaultChainScenario(t)
	if render(first) != render(second) {
		t.Fatalf("same-seed reruns diverge:\n--- first\n%s--- second\n%s", render(first), render(second))
	}
	// The rendering includes span/trace/parent ids and timestamps, so
	// equality above already proves stable ids; double-check it is not
	// trivially empty.
	if r := render(first); !strings.Contains(r, "scenario") || !strings.Contains(r, "assemble") {
		t.Fatalf("rendered trace incomplete:\n%s", r)
	}
}

func TestTraceSpansAcrossKillRestart(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	server := w.site("server", WithDurability(dir))
	mobile := w.site("mobile")
	mobileHub := mobile.Telemetry()

	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}

	root := mobileHub.StartRoot("session", mobile.Runtime().Clock().Now())
	obj, err := mobile.Engine().Replicate(root.Context(), ref, replication.DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	replica := obj.(*note)

	server.Kill()
	reborn := w.site("server", WithDurability(dir))
	hub2 := reborn.Telemetry()
	if reborn.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", reborn.Incarnation())
	}

	// Refresh under the same trace: the demand lands on the reborn
	// incarnation, whose serve/assemble spans join the same rooted tree.
	if err := mobile.Engine().Refresh(root.Context(), replica); err != nil {
		t.Fatal(err)
	}
	root.End(mobile.Runtime().Clock().Now())

	// Collect from the live hubs only: the first incarnation's span ring
	// died with it (and a reborn site reuses its id space, exactly like a
	// real redeploy), so the pre-kill serve spans are simply absent — the
	// client-side spans still chain, and the tree stays single-rooted.
	spans := append(mobileHub.Spans(0), hub2.Spans(0)...)
	trees := telemetry.BuildTrees(spans)
	if len(trees) != 1 {
		for _, tr := range trees {
			t.Log(telemetry.FormatTree(tr))
		}
		t.Fatalf("got %d rooted trees, want 1", len(trees))
	}
	assertShape(t, trees[0], treeShape{
		site: "mobile", name: "session",
		kids: []treeShape{
			{site: "mobile", name: "fault", kids: []treeShape{
				{site: "mobile", name: "rmi:get"}, // incarnation 1 serve spans died with it
				{site: "mobile", name: "materialize"},
			}},
			{site: "mobile", name: "refresh", kids: []treeShape{
				{site: "mobile", name: "rmi:get", kids: []treeShape{
					{site: "server", name: "serve:get", kids: []treeShape{
						{site: "server", name: "assemble"},
					}},
				}},
				{site: "mobile", name: "materialize"},
			}},
		},
	}, "")

	// Same logical trace spans both incarnations.
	for _, sp := range hub2.Spans(0) {
		if sp.TraceID != root.Context().TraceID {
			t.Fatalf("reborn span outside the session trace: %+v", sp)
		}
	}
	if replica.Text != "v1" {
		t.Fatalf("refreshed replica text %q", replica.Text)
	}
}

// TestScrapeWithoutTelemetryStampsWorldTime: a scrape is stamped with the
// serving runtime's clock, so on a virtual world a site without telemetry
// reports the world's time, not the wall clock's.
func TestScrapeWithoutTelemetryStampsWorldTime(t *testing.T) {
	inVirtualWorld(t, func(vc *netsim.VirtualClock, net *transport.MemNetwork) error {
		target, err := New("target", net, WithoutTelemetry())
		if err != nil {
			return err
		}
		defer target.Close()
		probe, err := New("probe", net, WithoutRuntimeSampler())
		if err != nil {
			return err
		}
		defer probe.Close()
		vc.Sleep(time.Hour) // the world's time is well past its start
		before := vc.Now()
		chunk, err := probe.Admin("target").Scrape(admin.CursorEnd, 0, 0)
		if err != nil {
			return err
		}
		if at := time.Unix(0, chunk.TakenAtNS); at.Before(before) || at.After(vc.Now()) {
			return fmt.Errorf("scrape taken at %v, the world's time is %v..%v", at, before, vc.Now())
		}
		return nil
	})
}

func TestSiteWithoutTelemetry(t *testing.T) {
	w := newWorld(t)
	server := w.site("server", WithoutTelemetry())
	mobile := w.site("mobile", WithoutTelemetry())
	if server.Telemetry() != nil {
		t.Fatal("WithoutTelemetry must leave the hub nil")
	}

	n := &note{Text: "hello"}
	if err := server.Bind("n", n); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("n")
	if err != nil {
		t.Fatal(err)
	}
	// Traced entry points still work — spans just collapse to no-ops.
	if _, err := mobile.Engine().Replicate(telemetry.SpanContext{}, ref, replication.DefaultSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := objmodel.Deref[*note](ref); err != nil {
		t.Fatal(err)
	}
	// The admin surface answers with an empty chunk rather than erroring.
	chunk, err := mobile.Admin(server.Addr()).Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := chunk.Metrics; len(snap.Counters) != 0 || snap.Site != "" {
		t.Fatalf("disabled site produced a snapshot: %+v", snap)
	}
	if len(chunk.Spans) != 0 || chunk.NextCursor != 0 || len(chunk.Profile.Objects) != 0 {
		t.Fatalf("disabled site produced spans or profiles: %+v", chunk)
	}
}

func TestSiteMetricsOverAdmin(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	n := &note{Text: "hello"}
	if err := server.Bind("n", n); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mobile.Replicate(ref, replication.DefaultSpec); err != nil {
		t.Fatal(err)
	}

	chunk, err := mobile.Admin(server.Addr()).Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := chunk.Metrics
	if snap.Site != "server" {
		t.Fatalf("snapshot site %q", snap.Site)
	}
	if snap.Get("repl.payloads.assembled") == 0 {
		t.Fatalf("server snapshot missing assembly counter: %s", snap.Format())
	}
	if snap.Get("rmi.calls.served") == 0 {
		t.Fatal("server snapshot missing serve counter")
	}

	// The demand rooted a trace of its own (implicit faults are causal
	// origins); its spans ride the same chunk.
	if len(chunk.Spans) == 0 {
		t.Fatal("server chunk carries no spans")
	}
}
