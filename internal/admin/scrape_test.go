package admin_test

import (
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"obiwan/internal/admin"
	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// watchPair stands up two sites and returns a client on probe's runtime
// pointed at target's admin service.
func watchPair(t *testing.T, target, probe string) (*site.Site, *site.Site, *admin.Client) {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	ts, err := site.New(target, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	ps, err := site.New(probe, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ts, ps, admin.NewClient(ps.Runtime(), site.AdminRef(transport.Addr(target)))
}

// TestWatchDeliversSpansExactlyOnce drives the cursor protocol: spans
// finished between polls arrive in the next chunk and never again.
func TestWatchDeliversSpansExactlyOnce(t *testing.T) {
	ts, _, client := watchPair(t, "watched", "watcher")

	ts.Telemetry().StartRoot("op-one", time.Now()).End(time.Now())
	chunk, err := client.Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Spans) != 1 || chunk.Spans[0].Name != "op-one" {
		t.Fatalf("first chunk: %+v", chunk.Spans)
	}
	if chunk.Site != "watched" || chunk.NextCursor != 1 || chunk.Missed != 0 {
		t.Fatalf("first chunk header: %+v", chunk)
	}
	if len(chunk.Metrics.Counters) == 0 {
		t.Fatal("chunk must carry the metrics snapshot")
	}

	// Nothing new: the same cursor yields an empty delta.
	chunk2, err := client.Scrape(chunk.NextCursor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk2.Spans) != 0 || chunk2.NextCursor != 1 {
		t.Fatalf("idle chunk: %+v", chunk2)
	}

	ts.Telemetry().StartRoot("op-two", time.Now()).End(time.Now())
	chunk3, err := client.Scrape(chunk2.NextCursor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk3.Spans) != 1 || chunk3.Spans[0].Name != "op-two" {
		t.Fatalf("delta chunk: %+v", chunk3.Spans)
	}
}

// TestWatchReportsMissedSpans: a cursor that fell behind the span ring
// reports eviction instead of silently skipping.
func TestWatchReportsMissedSpans(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	hub := telemetry.NewHub("tiny", telemetry.WithSpanCapacity(4))
	ts, err := site.New("tiny", net, site.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ps, err := site.New("prober", net)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	for i := 0; i < 10; i++ {
		ts.Telemetry().StartRoot("burst", time.Now()).End(time.Now())
	}
	chunk, err := ps.Admin("tiny").Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Missed != 6 || len(chunk.Spans) != 4 || chunk.NextCursor != 10 {
		t.Fatalf("missed=%d spans=%d next=%d", chunk.Missed, len(chunk.Spans), chunk.NextCursor)
	}
}

// TestProfileEndpointAfterDemand checks a real demand chain shows up in
// the profile a span-less chunk carries.
func TestProfileEndpointAfterDemand(t *testing.T) {
	ts, ps, client := watchPair(t, "master", "mobile")

	w := &widget{Name: "hot"}
	d, err := ts.Export(w)
	if err != nil {
		t.Fatal(err)
	}
	ref := ps.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	if _, err := objmodel.Deref[*widget](ref); err != nil {
		t.Fatal(err)
	}

	// The master served one demand; ask it for its profile.
	chunk, err := client.Scrape(admin.CursorEnd, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Spans) != 0 {
		t.Fatalf("a scrape from CursorEnd carried %d spans", len(chunk.Spans))
	}
	snap := chunk.Profile
	if len(snap.Objects) == 0 {
		t.Fatal("master profile is empty after serving a demand")
	}
	if p, ok := snap.Get(uint64(d.OID)); !ok || p.Serves == 0 {
		t.Fatalf("master profile for %v: %+v", d.OID, p)
	}

	// And the mobile recorded the fault side.
	mobileChunk, err := ts.Admin("mobile").Scrape(admin.CursorEnd, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := mobileChunk.Profile.Get(uint64(d.OID))
	if !ok || p.Faults != 1 || p.RemoteDemands != 1 || p.DemandBytes == 0 {
		t.Fatalf("mobile profile for %v: %+v", d.OID, p)
	}
}

// TestFlightEndpoint: a site that never dumped serves a live snapshot; a
// stored dump takes precedence.
func TestFlightEndpoint(t *testing.T) {
	ts, _, client := watchPair(t, "flighty", "prober")

	ts.Telemetry().Flight().Record(telemetry.FlightEvent{Kind: "test.event", OID: 42})
	dump, err := client.Flight()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "live" || dump.Seq != 0 || len(dump.Events) == 0 {
		t.Fatalf("live dump: %+v", dump)
	}

	ts.Telemetry().Flight().Dump("deliberate", time.Now())
	dump, err = client.Flight()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "deliberate" || dump.Seq != 1 {
		t.Fatalf("stored dump: %+v", dump)
	}
}

// TestWatchClientTimeout: the per-client deadline is honored (an
// unreachable peer fails fast instead of hanging for the default).
func TestWatchClientTimeout(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	ps, err := site.New("prober", net)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	c := admin.NewClient(ps.Runtime(), site.AdminRef("nowhere")).WithTimeout(50 * time.Millisecond)
	start := time.Now()
	if _, err := c.Scrape(0, 0, 0); err == nil {
		t.Fatal("scrape of a missing site must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not honored: %v", elapsed)
	}
}

// oneSite is what RankSlow is fed for a single site's chunk.
func oneSite(site string, m *telemetry.MetricsSnapshot) []telemetry.SiteObservation {
	return []telemetry.SiteObservation{{Site: site, Metrics: m}}
}

// formatSlow renders a slow ranking for comparison.
func formatSlow(traces []telemetry.SlowTrace) string {
	var b strings.Builder
	for _, st := range traces {
		b.WriteString(st.Format())
	}
	return b.String()
}

// tracedDemandAndPut drives one demand (an implicit fault roots its own
// trace) and one put from mobile against master.
func tracedDemandAndPut(t *testing.T, master, mobile *site.Site) {
	t.Helper()
	d, err := master.Export(&widget{Name: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	replica, err := objmodel.Deref[*widget](ref)
	if err != nil {
		t.Fatal(err)
	}
	replica.Name = "edited"
	if err := mobile.Put(replica); err != nil {
		t.Fatal(err)
	}
}

// TestEveryViewIsDerivableFromOneChunk: after a traced demand and a put,
// one drained chunk from the mobile yields each obiwan-admin view —
// metrics, span trees, top-K, slow ranking — equal to what the mobile's
// own hub reports locally. The scrape itself moves the rmi.* serve
// instruments, so the metrics view is compared outside that family.
func TestEveryViewIsDerivableFromOneChunk(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master, err := site.New("master", net, site.WithoutRuntimeSampler())
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := site.New("mobile", net, site.WithoutRuntimeSampler())
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	tracedDemandAndPut(t, master, mobile)

	const topK = 10
	chunk, err := master.Admin("mobile").Drain(topK)
	if err != nil {
		t.Fatal(err)
	}
	hub := mobile.Telemetry()

	notRMI := func(m *telemetry.MetricsSnapshot) string {
		out := &telemetry.MetricsSnapshot{Site: m.Site}
		for _, c := range m.Counters {
			if !strings.HasPrefix(c.Name, "rmi.") {
				out.Counters = append(out.Counters, c)
			}
		}
		for _, g := range m.Gauges {
			if !strings.HasPrefix(g.Name, "rmi.") {
				out.Gauges = append(out.Gauges, g)
			}
		}
		for _, h := range m.Histograms {
			if !strings.HasPrefix(h.Name, "rmi.") {
				out.Histograms = append(out.Histograms, h)
			}
		}
		return out.Format()
	}
	trees := func(spans []telemetry.SpanRecord) string {
		var b strings.Builder
		for _, root := range telemetry.BuildTrees(spans) {
			b.WriteString(telemetry.FormatTree(root))
		}
		return b.String()
	}
	top := func(p *telemetry.ProfileSnapshot) string {
		cp := *p
		cp.TakenAtNS = 0
		return cp.Format()
	}

	for _, view := range []struct {
		name, remote, local string
	}{
		{"metrics", notRMI(chunk.Metrics), notRMI(hub.MetricsSnapshot(time.Now()))},
		{"trace", trees(chunk.Spans), trees(hub.Spans(0))},
		{"top", top(chunk.Profile), top(hub.ProfileSnapshot(topK, time.Now()))},
		{"slow",
			formatSlow(telemetry.RankSlow(oneSite(chunk.Site, chunk.Metrics), chunk.Spans, 0)),
			formatSlow(telemetry.RankSlow(oneSite("mobile", hub.MetricsSnapshot(time.Now())), hub.Spans(0), 0))},
	} {
		if view.remote == "" {
			t.Errorf("%s: the chunk yields an empty view", view.name)
		}
		if view.remote != view.local {
			t.Errorf("%s view from the chunk differs from the hub's own:\n--- chunk\n%s\n--- hub\n%s",
				view.name, view.remote, view.local)
		}
	}
	if !strings.Contains(trees(chunk.Spans), "put") || !strings.Contains(trees(chunk.Spans), "fault") {
		t.Errorf("drained spans lack the demand or the put:\n%s", trees(chunk.Spans))
	}
}

// TestDrainPagesThroughTheWholeRing: a ring larger than one drain page
// comes back complete and in order, with the evictions before it counted.
func TestDrainPagesThroughTheWholeRing(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	hub := telemetry.NewHub("big", telemetry.WithSpanCapacity(5000))
	ts, err := site.New("big", net, site.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for i := 0; i < 5003; i++ {
		hub.StartRoot(strconv.Itoa(i), time.Now()).End(time.Now())
	}
	chunk, err := ts.Admin("big").Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Spans) != 5000 || chunk.Missed != 3 || chunk.NextCursor != 5003 {
		t.Fatalf("spans=%d missed=%d next=%d", len(chunk.Spans), chunk.Missed, chunk.NextCursor)
	}
	for i, sp := range chunk.Spans {
		if sp.Name != strconv.Itoa(i+3) {
			t.Fatalf("span %d is %q", i, sp.Name)
		}
	}
}

// TestScrapeFrameLengthPinned: the encoded reply frame of a scrape of a
// fixed hub state is as long as it was before the other telemetry
// endpoints were folded into Scrape, less what protocol revision 3 saved:
// 307 bytes with this same hub state, 286 since the chunk's type travels
// as a 4-byte id instead of its 24-byte name and its length. Fleet
// collector traffic, and with it every virtual-time baseline, moves only by
// those bytes.
func TestScrapeFrameLengthPinned(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	tick := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	hub := telemetry.NewHub("pin")
	root := hub.StartRoot("fault", tick())
	root.Annotate("oid", "7")
	root.Phase(telemetry.PhaseNet, 900*time.Microsecond)
	hub.StartSpan(root.Context(), "rmi:Get", tick()).End(tick())
	root.End(tick())
	hub.Metrics().Counter("repl.faults").Add(3)
	hub.Metrics().Gauge("site.stale.replicas").Set(2)
	hub.Metrics().Histogram("rmi.call.latency_ns").ObserveExemplar(int64(900*time.Microsecond), root.Context().TraceID)
	hub.Profiler().RecordFault(0xabc1, false, false, 3, 640, 2*time.Millisecond)

	// The scrape is stamped with its runtime's clock, here the same ticks.
	rt, err := rmi.NewRuntime(tickNet{transport.NewMemNetwork(netsim.Loopback), tickClock{netsim.Real(), tick}}, "pin")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	chunk := admin.NewService("pin", rt, nil, nil, hub, nil).Scrape(0, 0, 0)
	frame, err := wire.EncodeReply(codec.DefaultRegistry(), &wire.Reply{ID: 1, Results: []any{chunk}})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != 286 {
		t.Fatalf("scrape reply frame is %d bytes, was 286", len(frame))
	}
}

// tickClock is the real clock whose readings are now's.
type tickClock struct {
	netsim.Clock
	now func() time.Time
}

func (c tickClock) Now() time.Time { return c.now() }

// tickNet is a network whose runtimes run on clock (netsim.ClockProvider).
type tickNet struct {
	*transport.MemNetwork
	clock netsim.Clock
}

func (n tickNet) Clock() netsim.Clock { return n.clock }

// TestOnePeerFleetRanksLikeThePeersOwnChunk: the collector and a direct
// drain rank through the same function, so a fleet of one peer and that
// peer's own chunk give identical slow traces.
func TestOnePeerFleetRanksLikeThePeersOwnChunk(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master, err := site.New("master", net, site.WithFleet([]transport.Addr{"mobile"}))
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	mobile, err := site.New("mobile", net)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	tracedDemandAndPut(t, master, mobile)

	fleetSlow := master.Fleet().Fleet(true, 0).Slow
	chunk, err := master.Admin("mobile").Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	own := telemetry.RankSlow(oneSite(chunk.Site, chunk.Metrics), chunk.Spans, 0)
	if len(own) == 0 {
		t.Fatal("the mobile's chunk ranks no slow trace after a traced demand")
	}
	if !reflect.DeepEqual(fleetSlow, own) {
		t.Fatalf("one-peer fleet and the peer's own chunk rank differently:\n--- fleet\n%s--- chunk\n%s",
			formatSlow(fleetSlow), formatSlow(own))
	}
}

// TestRemoteSurfaceIsFiveEndpoints: every exported method of the service
// is remote-callable, so the method set is the admin wire surface.
func TestRemoteSurfaceIsFiveEndpoints(t *testing.T) {
	typ := reflect.TypeOf(&admin.Service{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	want := "Fleet Flight Ping Report Scrape"
	if strings.Join(got, " ") != want {
		t.Fatalf("admin.Service endpoints:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}

// TestCallPathHasOneSpellingPerOperation pins the shape of the client
// side: the span context and the deadline are arguments, not name
// suffixes, so no layer exports a ...Traced twin, the runtime has Call and
// its one full form, and the engine has one entry per operation.
func TestCallPathHasOneSpellingPerOperation(t *testing.T) {
	methods := func(v any) map[string]reflect.Method {
		typ := reflect.TypeOf(v)
		out := make(map[string]reflect.Method, typ.NumMethod())
		for i := 0; i < typ.NumMethod(); i++ {
			out[typ.Method(i).Name] = typ.Method(i)
		}
		return out
	}
	var calls []string
	for _, v := range []any{&replication.Engine{}, &site.Site{}, &rmi.Runtime{}} {
		for name := range methods(v) {
			if strings.HasSuffix(name, "Traced") || strings.HasSuffix(name, "TracedTimeout") {
				t.Errorf("%T.%s: a traced twin is back", v, name)
			}
			if _, isRuntime := v.(*rmi.Runtime); isRuntime && strings.HasPrefix(name, "Call") {
				calls = append(calls, name)
			}
		}
	}
	sort.Strings(calls)
	if got := strings.Join(calls, " "); got != "Call CallWithin" {
		t.Errorf("rmi.Runtime call entries: %s, want Call and its one full form", got)
	}
	sc := reflect.TypeOf(telemetry.SpanContext{})
	engine := methods(&replication.Engine{})
	for _, op := range []string{"Replicate", "Put", "PutCluster", "Refresh"} {
		m, ok := engine[op]
		if !ok || m.Type.NumIn() < 2 || m.Type.In(1) != sc {
			t.Errorf("replication.Engine.%s must exist and take a leading telemetry.SpanContext", op)
		}
	}
}

// TestRemovedMethodFailsTyped: a client from before the fold calling a
// removed endpoint gets the typed no-such-method fault at once, not a
// hang or a timeout.
func TestRemovedMethodFailsTyped(t *testing.T) {
	_, ps, _ := watchPair(t, "folded", "old-client")
	for _, method := range []string{"Metrics", "Traces", "Watch", "Profile", "Slow", "FleetAlerts", "FleetSlow", "FleetAttribution"} {
		_, err := ps.Runtime().Call(site.AdminRef("folded"), method)
		var re *rmi.RemoteError
		if !errors.As(err, &re) || re.Code != wire.FaultNoSuchMethod {
			t.Errorf("%s on a folded site: %v, want a %s RemoteError", method, err, wire.FaultNoSuchMethod)
		}
	}
}

// TestSubscribeSleepsOnTheRuntimeClock: under a virtual clock the poll
// interval passes in simulated time — three hour-long waits return at
// once and advance the clock by three hours.
func TestSubscribeSleepsOnTheRuntimeClock(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	errDone := errors.New("done")
	clock.Run(func() {
		opts := []site.Option{site.WithoutRuntimeSampler()}
		target, err := site.New("target", net, opts...)
		if err != nil {
			t.Error(err)
			return
		}
		defer target.Close()
		probe, err := site.New("probe", net, opts...)
		if err != nil {
			t.Error(err)
			return
		}
		defer probe.Close()

		target.Telemetry().StartRoot("seen-once", clock.Now()).End(clock.Now())
		start := clock.Now()
		chunks, spans := 0, 0
		err = probe.Admin("target").Subscribe(time.Hour, nil, func(chunk *admin.ScrapeChunk, err error) error {
			if err != nil {
				return err
			}
			spans += len(chunk.Spans)
			if chunks++; chunks == 4 {
				return errDone
			}
			return nil
		})
		if err != errDone {
			t.Errorf("subscribe ended with %v", err)
		}
		if spans != 1 {
			t.Errorf("four polls delivered %d spans, want the one span once", spans)
		}
		if waited := clock.Now().Sub(start); waited < 3*time.Hour {
			t.Errorf("three poll intervals advanced the runtime clock by %v", waited)
		}
	})
}
