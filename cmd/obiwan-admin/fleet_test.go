package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"obiwan/internal/fleet"
	"obiwan/internal/site"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// jsonKeys returns the sorted top-level keys of one -json output.
func jsonKeys(t *testing.T, view string, out []byte) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(out, &obj); err != nil {
		t.Fatalf("%s -json did not parse: %v\n%s", view, err, out)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestAdminCLIFleetViews pins the four fleet views of a collector over
// TCP: for each, the -json top-level keys, a marker in the text, and the
// exit code — 0 everywhere before the first scrape, 3 from alerts and slow
// once a scrape has fired the watchdog and buffered a traced demand.
func TestAdminCLIFleetViews(t *testing.T) {
	net := transport.NewTCPNetwork()
	peer, err := site.New("127.0.0.1:0", net, site.WithSiteID(15))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	hub, err := site.New("127.0.0.1:0", net, site.WithSiteID(16),
		site.WithFleet([]transport.Addr{peer.Addr()}, fleet.WithRules([]fleet.Rule{
			{Name: "any-latency", Kind: fleet.RuleP99, Metric: "rmi.call.latency_ns"},
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// A traced demand on the peer, recorded as the rmi client does: its
	// exemplar trips the zero-threshold rule and ranks as a slow trace.
	root := peer.Telemetry().StartRoot("fault")
	root.Phase(telemetry.PhaseNet, 900*time.Microsecond)
	root.End()
	peer.Telemetry().Metrics().Histogram("rmi.call.latency_ns").
		ObserveExemplar(int64(900*time.Microsecond), root.Context().TraceID)

	keys := map[string]string{
		"top":         "Metrics Profile Scrapes Sites TakenAtNS",
		"alerts":      "Alerts Dropped Site TakenAtNS",
		"slow":        "Site TakenAtNS Traces",
		"attribution": "Paths Phases Site TakenAtNS Total",
	}
	for _, tc := range []struct {
		view, marker string
		code         int
	}{
		// Before the first scrape: nothing to report.
		{"alerts", "no alerts", 0},
		{"slow", "no slow traces", 0},
		{"attribution", "no complete traces scraped yet", 0},
		// top scrapes the peer first.
		{"top", "fleet of 1 sites", 0},
		{"alerts", "any-latency", exitFindings},
		{"slow", "net=900µs", exitFindings},
		{"attribution", "attribution over 1 critical paths", 0},
	} {
		cmd := "fleet " + tc.view
		var buf bytes.Buffer
		code, err := run(&buf, string(hub.Addr()), cmd, runOpts{})
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if code != tc.code || !strings.Contains(buf.String(), tc.marker) {
			t.Fatalf("%s: code=%d (want %d), output missing %q:\n%s", cmd, code, tc.code, tc.marker, buf.String())
		}
		buf.Reset()
		code, err = run(&buf, string(hub.Addr()), cmd, runOpts{jsonOut: true})
		if err != nil {
			t.Fatalf("%s -json: %v", cmd, err)
		}
		if code != tc.code {
			t.Fatalf("%s -json: code=%d, want %d", cmd, code, tc.code)
		}
		if got := jsonKeys(t, cmd, buf.Bytes()); got != keys[tc.view] {
			t.Errorf("%s -json keys:\n got %s\nwant %s", cmd, got, keys[tc.view])
		}
	}
}
