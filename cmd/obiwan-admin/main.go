// Command obiwan-admin inspects a running OBIWAN site over TCP: heap
// contents (masters, replicas, dirty state), RMI traffic counters, the
// proxy-lifecycle ledger, and the live telemetry surface (metrics
// registry, recent trace spans, per-object replication profiles, the
// flight recorder, and a streaming watch).
//
// Usage:
//
//	obiwan-admin -site host:port                    # full report
//	obiwan-admin -site host:port ping               # liveness probe only
//	obiwan-admin -site host:port objects            # per-object table only
//	obiwan-admin -site host:port metrics            # live metrics snapshot
//	obiwan-admin -site host:port -max 50 trace      # recent span trees
//	obiwan-admin -site host:port -top 10 top        # hottest objects
//	obiwan-admin -site host:port flight             # flight-recorder dump
//	obiwan-admin -site host:port -interval 2s watch # live telemetry stream
//	obiwan-admin -site host:port slow               # worst traced demands, annotated
//	obiwan-admin -site host:port fleet top          # federated fleet view
//	obiwan-admin -site host:port fleet alerts       # SLO watchdog alerts
//	obiwan-admin -site host:port fleet slow         # fleet-wide worst demands
//	obiwan-admin -site host:port fleet attribution  # "where does p99 go" profile
//
// The fleet subcommands address a site running a fleet collector and are
// client-side views over its one fleet endpoint, Fleet: `fleet top` asks
// it to scrape every peer first and renders the snapshot, `fleet alerts`
// prints the watchdog's retained alert backlog, `fleet slow` and `fleet
// attribution` the collector's federated slow traces (at most -max,
// 0 = 8) and critical-path phase profile.
//
// `slow` prints each tail exemplar as its phase-annotated critical path:
// which site and span the time went to, split into protocol phases
// (queue, net, serve, assemble, apply, fsync, elect.wait, ...).
//
// -json switches every data command to machine-readable JSON. `slow`,
// `fleet slow`, and `fleet alerts` exit with status 3 when they found
// something (slow traces or alerts), so scripts can gate on the exit
// code without parsing output.
//
// -timeout bounds each RMI the tool issues; watch additionally honors
// -interval (poll period) and -count (chunks to print before exiting,
// 0 = stream until interrupted).
//
// metrics, trace, top, watch and slow are client-side views over the
// site's one telemetry endpoint, Scrape: metrics and top read a chunk
// taken past the last span, trace and slow drain the span ring from
// cursor 0 first, watch follows the cursor.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"obiwan/internal/admin"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
	"obiwan/internal/stats"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// runOpts carries the flag values into run.
type runOpts struct {
	maxSpans uint64        // trace: most recent spans kept (0 = all); slow: traces ranked (0 = 8)
	topK     uint64        // top: how many hot objects (0 = all tracked)
	timeout  time.Duration // per-RMI deadline (0 = runtime default)
	interval time.Duration // watch: poll period
	count    int           // watch: chunks before exit (0 = forever)
	jsonOut  bool          // render JSON instead of tables
}

// exit codes: 0 clean, 1 error, 2 usage, 3 findings (alerts/slow traces).
const exitFindings = 3

func main() {
	siteAddr := flag.String("site", "", "address of the site to inspect (host:port)")
	maxSpans := flag.Uint64("max", 0, "trace: show at most this many recent spans (0 = everything retained); slow: rank at most this many traces (0 = 8)")
	topK := flag.Uint64("top", 0, "top: show at most this many hot objects (0 = all tracked)")
	timeout := flag.Duration("timeout", 0, "per-call RMI deadline (0 = runtime default)")
	interval := flag.Duration("interval", time.Second, "watch: poll period")
	count := flag.Int("count", 0, "watch: exit after this many chunks (0 = stream forever)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()

	if *siteAddr == "" {
		fmt.Fprintln(os.Stderr, "obiwan-admin: -site is required")
		os.Exit(2)
	}
	cmd := "report"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	if cmd == "fleet" {
		verb := ""
		if flag.NArg() > 1 {
			verb = flag.Arg(1)
		}
		cmd = "fleet " + verb
	}
	o := runOpts{
		maxSpans: *maxSpans, topK: *topK,
		timeout: *timeout, interval: *interval, count: *count,
		jsonOut: *jsonOut,
	}
	code, err := run(os.Stdout, *siteAddr, cmd, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obiwan-admin:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// errWatchDone ends a -count bounded watch from inside the subscription.
var errWatchDone = errors.New("watch done")

// allTracked is the topK that asks a site for every profile it tracks
// (Scrape reads 0 as its default of 16).
const allTracked = 1 << 20

// traceDump is the trace view of a drained chunk: the site and the spans
// its ring retains, oldest first.
type traceDump struct {
	Site  string
	Spans []telemetry.SpanRecord
}

// slowView is the slow and fleet slow view: the answering site and its
// ranked slow traces.
type slowView struct {
	Site      string
	TakenAtNS int64
	Traces    []telemetry.SlowTrace
}

// alertView is the fleet alerts view of a fleet chunk.
type alertView struct {
	Site      string
	TakenAtNS int64
	Dropped   uint64
	Alerts    []telemetry.Alert
}

func run(w io.Writer, siteAddr, cmd string, o runOpts) (int, error) {
	network := transport.NewTCPNetwork()
	rt, err := rmi.NewRuntime(network, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer rt.Close()

	client := admin.NewClient(rt, site.AdminRef(transport.Addr(siteAddr)))
	if o.timeout > 0 {
		client = client.WithTimeout(o.timeout)
	}
	switch cmd {
	case "ping":
		name, err := client.Ping()
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(w, "site %q is alive at %s\n", name, siteAddr)
		return 0, nil
	case "metrics":
		chunk, err := client.Scrape(admin.CursorEnd, 0, 0)
		if err != nil {
			return 0, err
		}
		if o.jsonOut {
			return 0, renderJSON(w, chunk.Metrics)
		}
		return 0, renderMetrics(w, chunk.Metrics)
	case "trace":
		chunk, err := client.Drain(0)
		if err != nil {
			return 0, err
		}
		dump := traceDump{Site: chunk.Site, Spans: chunk.Spans}
		if n := int(o.maxSpans); n > 0 && len(dump.Spans) > n {
			dump.Spans = dump.Spans[len(dump.Spans)-n:]
		}
		if o.jsonOut {
			return 0, renderJSON(w, dump)
		}
		return 0, renderTraces(w, dump)
	case "top":
		topK := o.topK
		if topK == 0 {
			topK = allTracked
		}
		chunk, err := client.Scrape(admin.CursorEnd, 0, topK)
		if err != nil {
			return 0, err
		}
		if o.jsonOut {
			return 0, renderJSON(w, chunk.Profile)
		}
		return 0, renderProfile(w, chunk.Profile)
	case "flight":
		dump, err := client.Flight()
		if err != nil {
			return 0, err
		}
		if o.jsonOut {
			return 0, renderJSON(w, dump)
		}
		_, err = io.WriteString(w, dump.Format())
		return 0, err
	case "watch":
		return 0, watch(w, client, o)
	case "slow":
		chunk, err := client.Drain(0)
		if err != nil {
			return 0, err
		}
		max := int(o.maxSpans)
		if max == 0 {
			max = 8
		}
		obs := []telemetry.SiteObservation{{Site: chunk.Site, Metrics: chunk.Metrics}}
		return renderSlow(w, slowView{
			Site:      chunk.Site,
			TakenAtNS: chunk.TakenAtNS,
			Traces:    telemetry.RankSlow(obs, chunk.Spans, max),
		}, o.jsonOut)
	case "fleet top", "fleet alerts", "fleet slow", "fleet attribution":
		chunk, err := client.Fleet(cmd == "fleet top", o.maxSpans)
		if err != nil {
			return 0, err
		}
		return renderFleet(w, cmd, chunk, o.jsonOut)
	case "report", "objects":
		report, err := client.Report()
		if err != nil {
			return 0, err
		}
		if o.jsonOut {
			return 0, renderJSON(w, report)
		}
		return 0, render(w, report, cmd == "objects")
	default:
		return 0, fmt.Errorf("unknown command %q (want report, ping, objects, metrics, trace, top, flight, watch, slow, fleet top, fleet alerts, fleet slow, or fleet attribution)", cmd)
	}
}

// renderJSON emits v as indented JSON — the -json output mode.
func renderJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// renderFleet prints one fleet view of a fleet chunk: top the snapshot,
// alerts the watchdog backlog, slow the ranked traces, attribution the
// phase profile. alerts and slow signal findings via the exit code.
func renderFleet(w io.Writer, cmd string, chunk *admin.FleetChunk, jsonOut bool) (int, error) {
	switch cmd {
	case "fleet top":
		if jsonOut {
			return 0, renderJSON(w, chunk.Snapshot)
		}
		_, err := io.WriteString(w, chunk.Snapshot.Format())
		return 0, err
	case "fleet alerts":
		if jsonOut {
			if err := renderJSON(w, alertView{chunk.Site, chunk.TakenAtNS, chunk.Dropped, chunk.Alerts}); err != nil {
				return 0, err
			}
		} else {
			fmt.Fprintf(w, "site %q watchdog:\n", chunk.Site)
			if _, err := io.WriteString(w, telemetry.FormatAlerts(chunk.Alerts, chunk.Dropped)); err != nil {
				return 0, err
			}
		}
		if len(chunk.Alerts) > 0 {
			return exitFindings, nil
		}
		return 0, nil
	case "fleet slow":
		return renderSlow(w, slowView{chunk.Site, chunk.TakenAtNS, chunk.Slow}, jsonOut)
	default: // fleet attribution
		prof := chunk.Attribution
		if jsonOut {
			return 0, renderJSON(w, prof)
		}
		if prof.Paths == 0 {
			fmt.Fprintln(w, "no complete traces scraped yet (telemetry disabled or no traffic)")
			return 0, nil
		}
		_, err := io.WriteString(w, prof.Format())
		return 0, err
	}
}

// renderSlow prints a slow-trace view — each tail exemplar as its
// phase-annotated critical path — and signals findings via the exit code.
func renderSlow(w io.Writer, chunk slowView, jsonOut bool) (int, error) {
	if jsonOut {
		if err := renderJSON(w, chunk); err != nil {
			return 0, err
		}
	} else if len(chunk.Traces) == 0 {
		fmt.Fprintf(w, "site %q: no slow traces (telemetry disabled or nothing sampled yet)\n", chunk.Site)
	} else {
		fmt.Fprintf(w, "site %q: %d slow traces\n\n", chunk.Site, len(chunk.Traces))
		for _, st := range chunk.Traces {
			if _, err := io.WriteString(w, st.Format()); err != nil {
				return 0, err
			}
			fmt.Fprintln(w)
		}
	}
	if len(chunk.Traces) > 0 {
		return exitFindings, nil
	}
	return 0, nil
}

// watch streams telemetry chunks, one block per poll. A transient RMI
// failure prints and the stream resumes at the same cursor, so no span is
// lost or duplicated across an outage.
func watch(w io.Writer, client *admin.Client, o runOpts) error {
	n := 0
	err := client.Subscribe(o.interval, nil, func(chunk *admin.ScrapeChunk, err error) error {
		n++
		if err != nil {
			fmt.Fprintf(w, "watch: %v (will retry)\n", err)
		} else {
			renderChunk(w, chunk)
		}
		if o.count > 0 && n >= o.count {
			return errWatchDone
		}
		return nil
	})
	if errors.Is(err, errWatchDone) {
		return nil
	}
	return err
}

// renderChunk prints one watch delivery: a summary line, then any spans
// finished since the previous chunk.
func renderChunk(w io.Writer, c *admin.ScrapeChunk) {
	fmt.Fprintf(w, "[%s] %s spans=%d cursor=%d",
		time.Unix(0, c.TakenAtNS).UTC().Format("15:04:05.000"), c.Site, len(c.Spans), c.NextCursor)
	if c.Missed > 0 {
		fmt.Fprintf(w, " missed=%d", c.Missed)
	}
	fmt.Fprintln(w)
	for _, s := range c.Spans {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

// renderProfile prints the hot-object table, or says why it is empty.
func renderProfile(w io.Writer, snap *telemetry.ProfileSnapshot) error {
	if len(snap.Objects) == 0 {
		fmt.Fprintf(w, "site %q: no profiled objects (telemetry disabled or no replication yet)\n", snap.Site)
		return nil
	}
	_, err := io.WriteString(w, snap.Format())
	return err
}

func render(w io.Writer, r *admin.SiteReport, objectsOnly bool) error {
	if !objectsOnly {
		fmt.Fprintf(w, "site %q at %s\n", r.Name, r.Addr)
		fmt.Fprintf(w, "heap: %d masters, %d replicas (%d dirty)\n",
			r.Masters, r.Replicas, r.DirtyReplicas)
		fmt.Fprintf(w, "rmi: sent=%d served=%d faults=%d errors=%d bytes tx/rx=%d/%d\n",
			r.CallsSent, r.CallsServed, r.RemoteFaults, r.SendErrors,
			r.BytesSent, r.BytesReceived)
		fmt.Fprintf(w, "proxies: out created=%d reclaimed=%d live=%d heap-served=%d; in exported=%d reused=%d\n",
			r.ProxyOutsCreated, r.ProxyOutsReclaimed, r.ProxyOutsLive,
			r.FaultsServedFromHeap, r.ProxyInsExported, r.ProxyInsReused)
		fmt.Fprintln(w)
	}
	t := stats.NewTable("oid", "type", "role", "version", "dirty", "cluster", "provider")
	for _, o := range r.Objects {
		t.AddRow(o.OID, o.TypeName, o.Role, o.Version, o.Dirty, o.ClusterMember, o.Provider)
	}
	_, err := t.WriteTo(w)
	return err
}

// renderMetrics prints a metrics snapshot. An empty snapshot from a live
// site means telemetry is disabled there, so say so explicitly.
func renderMetrics(w io.Writer, snap *telemetry.MetricsSnapshot) error {
	if len(snap.Counters) == 0 && len(snap.Gauges) == 0 && len(snap.Histograms) == 0 {
		fmt.Fprintf(w, "site %q: no metrics (telemetry disabled or nothing recorded yet)\n", snap.Site)
		return nil
	}
	_, err := io.WriteString(w, snap.Format())
	return err
}

// renderTraces assembles the dumped spans into trees and prints each one.
func renderTraces(w io.Writer, dump traceDump) error {
	if len(dump.Spans) == 0 {
		fmt.Fprintf(w, "site %q: no finished spans (telemetry disabled or nothing traced yet)\n", dump.Site)
		return nil
	}
	fmt.Fprintf(w, "site %q: %d finished spans\n\n", dump.Site, len(dump.Spans))
	for _, root := range telemetry.BuildTrees(dump.Spans) {
		if _, err := io.WriteString(w, telemetry.FormatTree(root)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
