package site

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"obiwan/internal/admin"
	"obiwan/internal/fleet"
	"obiwan/internal/nameserver"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// addrs converts site names to transport addresses for WithFleet.
func addrs(names ...string) []transport.Addr {
	out := make([]transport.Addr, len(names))
	for i, n := range names {
		out[i] = transport.Addr(n)
	}
	return out
}

// fleetWorld builds the canonical observatory deployment: a server and a
// mobile doing real replication, plus a hub site running the collector
// over all three.
func fleetWorld(t *testing.T, hubOpts ...fleet.Option) (w *world, hub, server, mobile *Site) {
	t.Helper()
	w = newWorld(t)
	server = w.site("server")
	mobile = w.site("mobile")
	hub = w.site("hub", WithFleet(addrs("server", "mobile", "hub"), hubOpts...))

	master := &note{Text: "fleet"}
	if err := server.Register(master); err != nil {
		t.Fatal(err)
	}
	d, err := server.Export(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	if _, err := objmodel.Deref[*note](ref); err != nil {
		t.Fatal(err)
	}
	return w, hub, server, mobile
}

// TestFleetCollectorFederates: one scrape folds every roster site into
// the aggregate — merged counters are the per-site sums, the breakdown
// stays visible, and the hub scrapes itself over RMI like any peer.
func TestFleetCollectorFederates(t *testing.T) {
	_, hub, _, _ := fleetWorld(t)
	col := hub.Fleet()
	if col == nil {
		t.Fatal("hub built WithFleet has no collector")
	}
	snap := col.ScrapeOnce()
	if len(snap.Sites) != 3 {
		t.Fatalf("scraped %d sites, want 3: %+v", len(snap.Sites), snap.Sites)
	}
	for i, want := range []string{"hub", "mobile", "server"} {
		if snap.Sites[i].Site != want {
			t.Fatalf("site %d = %q, want %q (sorted order)", i, snap.Sites[i].Site, want)
		}
		if snap.Sites[i].Err != "" {
			t.Fatalf("site %q scrape error: %s", want, snap.Sites[i].Err)
		}
	}
	var sum uint64
	for _, obs := range snap.Sites {
		sum += obs.Metrics.Get("rmi.calls")
	}
	if sum == 0 {
		t.Fatal("no rmi.calls recorded anywhere despite replication traffic")
	}
	if got := snap.Metrics.Get("rmi.calls"); got != sum {
		t.Fatalf("merged rmi.calls = %d, want per-site sum %d", got, sum)
	}
	if snap.Profile == nil || len(snap.Profile.Objects) == 0 {
		t.Fatalf("aggregate profile empty: %+v", snap.Profile)
	}
}

// TestFleetUnreachablePeerDegrades: a dead roster entry is reported as a
// scrape error on its own row; the rest of the fleet still aggregates.
func TestFleetUnreachablePeerDegrades(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	hub := w.site("hub", WithFleet(addrs("server", "ghost")))
	if err := server.Register(&note{Text: "x"}); err != nil {
		t.Fatal(err)
	}
	hub.Fleet().ScrapeOnce() // first scrape: server now served one RMI
	snap := hub.Fleet().ScrapeOnce()
	byName := map[string]string{}
	for _, obs := range snap.Sites {
		byName[obs.Site] = obs.Err
	}
	if byName["server"] != "" {
		t.Fatalf("live peer errored: %s", byName["server"])
	}
	if byName["ghost"] == "" {
		t.Fatal("dead peer reported no scrape error")
	}
	if snap.Metrics.Get("rmi.calls.served") == 0 {
		t.Fatal("live peers no longer aggregated")
	}
}

// TestFleetEndpointsOverRMI: any site can ask the hub for the federated
// view and the watchdog backlog through the well-known admin export —
// the transport path every `obiwan-admin fleet` view uses.
func TestFleetEndpointsOverRMI(t *testing.T) {
	// Threshold 0 on the RMI latency p99 makes every site with any
	// traffic an offender, so the watchdog deterministically fires.
	_, _, _, mobile := fleetWorld(t, fleet.WithRules([]fleet.Rule{
		{Name: "any-latency", Kind: fleet.RuleP99, Metric: "rmi.call.latency_ns", FleetWide: true},
	}))
	client := admin.NewClient(mobile.Runtime(), AdminRef("hub"))
	chunk, err := client.Fleet(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := chunk.Snapshot; len(snap.Sites) != 3 || snap.Scrapes == 0 {
		t.Fatalf("fleet over RMI: %d sites, %d scrapes", len(snap.Sites), snap.Scrapes)
	}
	if chunk.Site != "hub" {
		t.Fatalf("fleet chunk answered by %q, want the hub", chunk.Site)
	}
	if len(chunk.Alerts) == 0 {
		t.Fatal("zero-threshold p99 rule fired no alerts")
	}
	seen := map[string]bool{}
	for _, a := range chunk.Alerts {
		if a.Rule != "any-latency" {
			t.Fatalf("unexpected rule: %+v", a)
		}
		seen[a.Site] = true
	}
	if !seen["fleet"] {
		t.Fatalf("fleet-wide evaluation missing: %+v", chunk.Alerts)
	}

	// A site with no collector answers the same endpoint with ErrNoFleet
	// travelling as a remote fault, not a hang or a panic.
	plainClient := admin.NewClient(mobile.Runtime(), AdminRef("server"))
	if _, err := plainClient.Fleet(false, 0); err == nil ||
		!strings.Contains(err.Error(), "no fleet collector") {
		t.Fatalf("collector-less site: %v", err)
	}
}

// TestFleetAlertsReachFlightRecorder: an SLO breach lands in the hub's
// own flight recorder next to the protocol events that caused it.
func TestFleetAlertsReachFlightRecorder(t *testing.T) {
	_, hub, _, _ := fleetWorld(t, fleet.WithRules([]fleet.Rule{
		{Name: "any-latency", Kind: fleet.RuleP99, Metric: "rmi.call.latency_ns"},
	}))
	hub.Fleet().ScrapeOnce()
	events := hub.Telemetry().Flight().Snapshot()
	found := false
	for _, ev := range events {
		if ev.Kind == "slo.any-latency" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo.any-latency flight event in %d events", len(events))
	}
}

// TestFleetScrapeCursorResumes: the scrape endpoint is cursor-based —
// a second scrape resumes after the spans the first one consumed
// instead of replaying them.
func TestFleetScrapeCursorResumes(t *testing.T) {
	_, _, server, mobile := fleetWorld(t)
	client := admin.NewClient(mobile.Runtime(), AdminRef("server"))
	first, err := client.Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Site != "server" || first.Metrics == nil {
		t.Fatalf("first chunk: %+v", first)
	}
	again, err := client.Scrape(first.NextCursor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Spans) != 0 {
		t.Fatalf("cursor-resumed scrape replayed %d spans", len(again.Spans))
	}
	// New traffic produces new spans past the held cursor.
	master := &note{Text: "more"}
	if err := server.Register(master); err != nil {
		t.Fatal(err)
	}
	d, err := server.Export(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	if _, err := objmodel.Deref[*note](ref); err != nil {
		t.Fatal(err)
	}
	third, err := client.Scrape(again.NextCursor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Spans) == 0 {
		t.Fatal("fresh traffic produced no spans past the cursor")
	}
}

// TestFleetDisabledAllocParity pins the zero-overhead claim for sites
// that run no collector: the invoke path allocates identically whether
// or not some other site in the deployment observes the fleet, and a
// plain site carries no fleet machinery at all.
func TestFleetDisabledAllocParity(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	measure := func(observed bool) float64 {
		w := newWorld(t)
		suffix := fmt.Sprintf("-%v-%p", observed, t)
		server := w.site("server" + suffix)
		mobile := w.site("mobile" + suffix)
		if observed {
			w.site("hub"+suffix, WithFleet(addrs("server"+suffix, "mobile"+suffix)))
		}
		master := &note{Text: "v"}
		if err := server.Register(master); err != nil {
			t.Fatal(err)
		}
		d, err := server.Export(master)
		if err != nil {
			t.Fatal(err)
		}
		ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
		replica, err := objmodel.Deref[*note](ref)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			replica.Write("x")
			if _, err := ref.Invoke("Read"); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := measure(false)
	observed := measure(true)
	if plain != observed {
		t.Fatalf("invoke path allocs drifted under observation: %v vs %v", plain, observed)
	}
	w := newWorld(t)
	s := w.site("alloc-plain")
	if s.fleet != nil {
		t.Fatal("plain site carries a fleet collector")
	}
}

// benchFleetWorld is newWorld for benchmarks: a nameserver, a server and
// mobile pair, and (when observed) a hub site collecting over both.
func benchFleetWorld(b *testing.B, observed bool) (server, mobile *Site) {
	b.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	nsrt, err := rmi.NewRuntime(net, "ns")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = nsrt.Close() })
	if _, _, err := nameserver.Serve(nsrt); err != nil {
		b.Fatal(err)
	}
	mk := func(name string, opts ...Option) *Site {
		opts = append([]Option{WithNameServer("ns")}, opts...)
		s, err := New(name, net, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = s.Close() })
		return s
	}
	server = mk("server")
	mobile = mk("mobile")
	if observed {
		mk("hub", WithFleet(addrs("server", "mobile")))
	}
	return server, mobile
}

// BenchmarkCallFleet compares the site invoke path with no collector in
// the deployment against the same path while a hub scrapes the fleet —
// the observability tax must be confined to the hub.
func BenchmarkCallFleet(b *testing.B) {
	bench := func(b *testing.B, observed bool) {
		server, mobile := benchFleetWorld(b, observed)
		master := &note{Text: "v"}
		if err := server.Register(master); err != nil {
			b.Fatal(err)
		}
		d, err := server.Export(master)
		if err != nil {
			b.Fatal(err)
		}
		ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
		if _, err := objmodel.Deref[*note](ref); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.Invoke("Read"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { bench(b, false) })
	b.Run("observed", func(b *testing.B) { bench(b, true) })
}

// TestFleetChunkWhileScraping: the collector's one read runs beside its
// scrapes. The chunk ranks and attributes the span buffer outside the
// collector's lock while scrapes append to it; under -race this checks
// that no appended span lands where a reader is looking.
func TestFleetChunkWhileScraping(t *testing.T) {
	_, hub, server, _ := fleetWorld(t)
	col := hub.Fleet()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			now := server.Runtime().Clock().Now()
			server.Telemetry().StartRoot("op", now).End(now)
			col.ScrapeOnce()
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		if chunk := col.Fleet(false, 0); chunk.Attribution == nil {
			t.Fatal("a fleet chunk without an attribution profile")
		}
	}
	if paths := col.Fleet(false, 0).Attribution.Paths; paths < 20 {
		t.Fatalf("the profile holds %d paths, want the 20 scraped ops at least", paths)
	}
}

// TestFleetAlertBacklogOverflow: the watchdog backlog is bounded — when
// more alerts fire than it retains, the oldest fall off the front, the
// eviction is counted (never silent), the count travels over the admin
// endpoint, and the rendered table says the record is incomplete.
func TestFleetAlertBacklogOverflow(t *testing.T) {
	// Threshold 0 on a fleet-wide p99 rule fires one alert per site with
	// traffic plus one for the merged view on every scrape.
	_, hub, _, mobile := fleetWorld(t, fleet.WithRules([]fleet.Rule{
		{Name: "any-latency", Kind: fleet.RuleP99, Metric: "rmi.call.latency_ns", FleetWide: true},
	}))
	col := hub.Fleet()
	var alerts []telemetry.Alert
	var dropped uint64
	for i := 0; i < 120; i++ {
		chunk := col.Fleet(true, 1)
		if alerts, dropped = chunk.Alerts, chunk.Dropped; dropped > 0 {
			break
		}
	}
	if dropped == 0 {
		t.Fatal("backlog never overflowed after 120 alert-firing scrapes")
	}
	if len(alerts) != 256 {
		t.Fatalf("backlog holds %d alerts, want the 256 cap", len(alerts))
	}
	// The eviction surfaces as a counter on the hub's own telemetry, so
	// the overflow is itself observable (and scrape-able) fleet state.
	if got := hub.Telemetry().MetricsSnapshot(time.Time{}).Get("fleet.alerts.dropped"); got != dropped {
		t.Fatalf("fleet.alerts.dropped counter = %d, want %d", got, dropped)
	}
	// Over the admin endpoint: the chunk carries the dropped count, and
	// the rendered table warns that the window is incomplete.
	chunk, err := admin.NewClient(mobile.Runtime(), AdminRef("hub")).Fleet(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Dropped != dropped || len(chunk.Alerts) != len(alerts) {
		t.Fatalf("alert chunk dropped=%d alerts=%d, want %d/%d",
			chunk.Dropped, len(chunk.Alerts), dropped, len(alerts))
	}
	out := telemetry.FormatAlerts(chunk.Alerts, chunk.Dropped)
	if !strings.Contains(out, fmt.Sprintf("fleet.alerts.dropped=%d", dropped)) {
		t.Fatalf("rendered alerts hide the eviction:\n%s", out)
	}
}

// TestFleetSlowAndAttributionOverRMI: the tail-exemplar pipeline works
// end to end over the real wire — per-site slow traces resolve spans, the
// fleet ranking folds every site's exemplars, and the aggregated
// attribution profile extracts critical paths from the scraped spans.
func TestFleetSlowAndAttributionOverRMI(t *testing.T) {
	_, hub, _, mobile := fleetWorld(t)
	hub.Fleet().ScrapeOnce()

	// Per-site: the mobile recorded latency exemplars for its traced
	// demand faults; its drained chunk resolves them against its own spans.
	chunk, err := mobile.Admin("mobile").Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	slow := telemetry.RankSlow([]telemetry.SiteObservation{{Site: chunk.Site, Metrics: chunk.Metrics}}, chunk.Spans, 4)
	if len(slow) == 0 {
		t.Fatal("mobile recorded no slow traces despite traced demand faults")
	}
	st := slow[0]
	if st.Site != "mobile" || st.ValueNS <= 0 || len(st.Spans) == 0 {
		t.Fatalf("slow trace: %+v", st)
	}
	if cp := st.Path(); len(cp.Steps) == 0 {
		t.Fatalf("slow trace yields empty critical path: %+v", st)
	}
	if st.Format() != st.Format() {
		t.Fatal("slow trace renders differ between calls")
	}

	// Fleet-wide: the hub ranks exemplars across all scraped sites and
	// resolves spans from its buffer — spans that crossed sites included.
	fleetChunk, err := admin.NewClient(mobile.Runtime(), AdminRef("hub")).Fleet(false, 4)
	if err != nil {
		t.Fatal(err)
	}
	fleetSlow := fleetChunk.Slow
	if len(fleetSlow) == 0 || len(fleetSlow) > 4 {
		t.Fatalf("fleet slow after a scrape, at most 4: %d traces", len(fleetSlow))
	}
	for i := 1; i < len(fleetSlow); i++ {
		if fleetSlow[i].ValueNS > fleetSlow[i-1].ValueNS {
			t.Fatalf("fleet slow not value-descending: %+v", fleetSlow)
		}
	}

	// Aggregated attribution: at least the demand paths land, and the
	// profile renders deterministically.
	prof := fleetChunk.Attribution
	if prof.Paths == 0 {
		t.Fatalf("attribution profile extracted no paths: %+v", prof)
	}
	if len(prof.PhaseNames()) == 0 {
		t.Fatal("attribution profile has no phases")
	}
	if prof.Format() != prof.Format() {
		t.Fatal("attribution renders differ between calls")
	}
}
