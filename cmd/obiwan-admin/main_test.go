package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// memo is the admin CLI's test object.
type memo struct {
	Body string
}

func (m *memo) Read() string { return m.Body }

func init() {
	objmodel.MustRegisterType("admincli_test.memo", (*memo)(nil))
}

// TestAdminCLIOverTCP stands a site up on real TCP and inspects it with
// the CLI's run function.
func TestAdminCLIOverTCP(t *testing.T) {
	net := transport.NewTCPNetwork()
	s, err := site.New("127.0.0.1:0", net, site.WithSiteID(9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register(&memo{Body: "hello"}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := run(&buf, string(s.Addr()), "ping", runOpts{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "is alive") {
		t.Fatalf("ping output: %q", buf.String())
	}

	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "report", runOpts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"heap: 1 masters, 0 replicas (0 dirty)",
		"admincli_test.memo",
		"master",
		"proxies:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "objects", runOpts{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "rmi:") {
		t.Fatal("objects must omit the summary")
	}

	// metrics: the serve counter has ticked for the calls above. The
	// -timeout path must work too.
	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "metrics", runOpts{timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rmi.calls.served") {
		t.Fatalf("metrics output missing serve counter:\n%s", buf.String())
	}

	// trace: the CLI's own calls carry no trace context, so the site has
	// no finished spans — the command must still succeed and say so.
	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "trace", runOpts{maxSpans: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no finished spans") {
		t.Fatalf("trace output: %q", buf.String())
	}

	if _, err := run(&buf, string(s.Addr()), "bogus", runOpts{}); err == nil {
		t.Fatal("unknown command must error")
	}
}

// TestAdminCLITopAndFlight exercises the profiler and flight-recorder
// subcommands against a live site.
func TestAdminCLITopAndFlight(t *testing.T) {
	net := transport.NewTCPNetwork()
	s, err := site.New("127.0.0.1:0", net, site.WithSiteID(11))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// top before any replication: explicit empty-state message.
	var buf bytes.Buffer
	if _, err := run(&buf, string(s.Addr()), "top", runOpts{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no profiled objects") {
		t.Fatalf("top on idle site: %q", buf.String())
	}

	// Seed the profiler and flight recorder as the replication engine
	// would, then read both back through the CLI.
	prof := s.Telemetry().Profiler()
	prof.RecordFault(0xabc1, false, false, 3, 640, 2*time.Millisecond)
	prof.RecordInvoke(0xabc1, false)
	fl := s.Telemetry().Flight()
	fl.Record(telemetry.FlightEvent{Kind: "repl.fault-resolved", OID: 0xabc1, SpanID: 77})
	fl.Dump("test dump", time.Now())

	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "top", runOpts{topK: 5}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0xabc1") || !strings.Contains(out, "hot objects") {
		t.Fatalf("top output:\n%s", out)
	}

	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "flight", runOpts{}); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "test dump") || !strings.Contains(out, "repl.fault-resolved") {
		t.Fatalf("flight output:\n%s", out)
	}
}

// TestAdminCLIWatch streams two chunks and checks the cursor advances
// without re-delivering spans.
func TestAdminCLIWatch(t *testing.T) {
	net := transport.NewTCPNetwork()
	s, err := site.New("127.0.0.1:0", net, site.WithSiteID(12))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Finish two spans so the first chunk carries them.
	root := s.Telemetry().StartRoot("watchtest", time.Now())
	root.End(time.Now())
	child := s.Telemetry().StartRoot("watchtest2", time.Now())
	child.End(time.Now())

	var buf bytes.Buffer
	if _, err := run(&buf, string(s.Addr()), "watch", runOpts{interval: 10 * time.Millisecond, count: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "watchtest") {
		t.Fatalf("watch missed the finished span:\n%s", out)
	}
	if strings.Count(out, "watchtest2") != 1 {
		t.Fatalf("watch delivered a span other than exactly once:\n%s", out)
	}
}

func TestAdminCLIUnreachable(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, "127.0.0.1:1", "ping", runOpts{}); err == nil {
		t.Fatal("unreachable site must error")
	}
}

// TestAdminCLISlowJSONAndExitCodes: the slow command renders tail
// exemplars as critical paths and signals findings through its exit code
// (0 clean, 3 findings); -json switches every payload to parseable JSON.
func TestAdminCLISlowJSONAndExitCodes(t *testing.T) {
	net := transport.NewTCPNetwork()
	s, err := site.New("127.0.0.1:0", net, site.WithSiteID(13))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Idle site: no slow traces, clean exit.
	var buf bytes.Buffer
	code, err := run(&buf, string(s.Addr()), "slow", runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(buf.String(), "no slow traces") {
		t.Fatalf("idle slow: code=%d output=%q", code, buf.String())
	}

	// Record a traced demand with a phase annotation and a tail exemplar,
	// as the rmi client does.
	root := s.Telemetry().StartRoot("fault", time.Now())
	root.Phase(telemetry.PhaseNet, 900*time.Microsecond)
	root.End(time.Now())
	s.Telemetry().Metrics().Histogram("rmi.call.latency_ns").
		ObserveExemplar(int64(900*time.Microsecond), root.Context().TraceID)

	buf.Reset()
	code, err = run(&buf, string(s.Addr()), "slow", runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("slow with findings: code=%d, want 3", code)
	}
	for _, want := range []string{"1 slow traces", "rmi.call.latency_ns = 900µs", "fault", "net=900µs"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("slow output missing %q:\n%s", want, buf.String())
		}
	}

	// -json: the same chunk as machine-readable JSON, same exit code.
	buf.Reset()
	code, err = run(&buf, string(s.Addr()), "slow", runOpts{jsonOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if code != 3 {
		t.Fatalf("json slow: code=%d, want 3", code)
	}
	var chunk slowView
	if err := json.Unmarshal(buf.Bytes(), &chunk); err != nil {
		t.Fatalf("slow -json did not parse: %v\n%s", err, buf.String())
	}
	if len(chunk.Traces) != 1 || chunk.Traces[0].TraceID != root.Context().TraceID {
		t.Fatalf("json chunk: %+v", chunk)
	}

	// -json on metrics: a parseable snapshot.
	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "metrics", runOpts{jsonOut: true}); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics -json did not parse: %v", err)
	}
	if snap.Site == "" || len(snap.Counters) == 0 {
		t.Fatalf("json snapshot empty: %+v", snap)
	}
}

// TestAdminCLIJSONKeysAndTraceViews pins the -json surface the fold must
// not move — the top-level keys of every data subcommand — and checks the
// span-carrying views against a site that has spans: trace drains them
// all into trees, -max keeps the most recent, watch follows the cursor.
func TestAdminCLIJSONKeysAndTraceViews(t *testing.T) {
	net := transport.NewTCPNetwork()
	s, err := site.New("127.0.0.1:0", net, site.WithSiteID(14))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root := s.Telemetry().StartRoot("outer", time.Now())
	s.Telemetry().StartSpan(root.Context(), "inner", time.Now()).End(time.Now())
	root.End(time.Now())
	s.Telemetry().StartRoot("latest", time.Now()).End(time.Now())

	for cmd, want := range map[string]string{
		"report":  "Addr BytesReceived BytesSent CallsSent CallsServed DirtyReplicas FaultsServedFromHeap Masters Name Objects ProxyInsExported ProxyInsReused ProxyOutsCreated ProxyOutsLive ProxyOutsReclaimed RemoteFaults Replicas SendErrors",
		"metrics": "Counters Gauges Histograms Site TakenAtNS",
		"trace":   "Site Spans",
		"top":     "Evicted Objects Site TakenAtNS Tracked",
		"flight":  "Dropped Events Reason Seq Site TakenAtNS Total",
		"slow":    "Site TakenAtNS Traces",
	} {
		var buf bytes.Buffer
		if _, err := run(&buf, string(s.Addr()), cmd, runOpts{jsonOut: true}); err != nil {
			t.Fatalf("%s -json: %v", cmd, err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
			t.Fatalf("%s -json did not parse: %v\n%s", cmd, err, buf.String())
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != want {
			t.Errorf("%s -json keys:\n got %s\nwant %s", cmd, got, want)
		}
	}

	var buf bytes.Buffer
	if _, err := run(&buf, string(s.Addr()), "trace", runOpts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 finished spans") || !strings.Contains(out, "\n  127.0.0.1:0 inner") {
		t.Fatalf("trace must print every retained span as trees:\n%s", out)
	}
	buf.Reset()
	if _, err := run(&buf, string(s.Addr()), "trace", runOpts{maxSpans: 1}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "1 finished spans") || !strings.Contains(out, "latest") {
		t.Fatalf("trace -max 1 must keep the most recent span:\n%s", out)
	}
}
