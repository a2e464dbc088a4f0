package rmi

import (
	"strings"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// newTracedPair is newRetryPair with a telemetry hub on each side.
func newTracedPair(t *testing.T, p RetryPolicy) (server, client *Runtime, net *transport.MemNetwork, serverHub, clientHub *telemetry.Hub) {
	t.Helper()
	net = transport.NewMemNetwork(netsim.Loopback)
	serverHub = telemetry.NewHub("server")
	clientHub = telemetry.NewHub("client")
	var err error
	server, err = newRuntime(net, "server", WithTelemetry(serverHub))
	if err != nil {
		t.Fatal(err)
	}
	client, err = newRuntime(net, "client", WithRetryPolicy(p), WithTelemetry(clientHub))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client, net, serverHub, clientHub
}

// spansNamed filters finished spans by name.
func spansNamed(spans []telemetry.SpanRecord, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func TestTraceRetriedCallIsOneLogicalSpan(t *testing.T) {
	// A dropped reply forces a resend that the server answers from its
	// dedupe table. The retried call must stay ONE logical operation in the
	// trace: one client span (annotated with the resend attempt) and one
	// server span — the suppressed duplicate mints nothing.
	server, client, net, serverHub, clientHub := newTracedPair(t, fastRetry(4, 30*time.Millisecond))
	calc := &calculator{}
	ref, _ := server.Export(calc)
	if _, err := client.Call(ref, "Accumulate", int64(7)); err != nil { // warm, untraced
		t.Fatal(err)
	}
	net.SetFaultSchedule("server", "client", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
	))

	root := clientHub.StartRoot("test")
	if _, err := client.CallWithin(root.Context(), ref, 0, "Accumulate", int64(5)); err != nil {
		t.Fatalf("traced call with dropped reply: %v", err)
	}
	root.End()
	if calc.Total() != 12 {
		t.Fatalf("accumulated %d, want 12", calc.Total())
	}
	if got := server.Stats().DupsSuppressed; got != 1 {
		t.Fatalf("duplicates suppressed = %d, want 1", got)
	}

	clientCalls := spansNamed(clientHub.Spans(0), "rmi:Accumulate")
	if len(clientCalls) != 1 {
		t.Fatalf("client rmi spans = %d, want 1 (one logical span per retried call)", len(clientCalls))
	}
	cs := clientCalls[0]
	if cs.Parent != root.Context().SpanID || cs.TraceID != root.Context().TraceID {
		t.Fatalf("client span not parented under root: %+v", cs)
	}
	if !strings.Contains(strings.Join(cs.Attrs, " "), "attempt=2") {
		t.Fatalf("retried client span missing attempt annotation: %v", cs.Attrs)
	}

	serves := spansNamed(serverHub.Spans(0), "serve:Accumulate")
	if len(serves) != 1 {
		t.Fatalf("server serve spans = %d, want 1 (dedupe-suppressed resend must not re-span)", len(serves))
	}
	ss := serves[0]
	if ss.TraceID != cs.TraceID || ss.Parent != cs.SpanID {
		t.Fatalf("serve span not a child of the client span: serve=%+v client=%+v", ss, cs)
	}

	// The untraced warm call minted nothing anywhere.
	if got := len(clientHub.Spans(0)); got != 2 { // rmi span + root
		t.Fatalf("client finished spans = %d, want 2", got)
	}
	if got := len(serverHub.Spans(0)); got != 1 {
		t.Fatalf("server finished spans = %d, want 1", got)
	}
}

func TestUntracedCallsCarryNoContextAndCostNoSpans(t *testing.T) {
	server, client, _, serverHub, clientHub := newTracedPair(t, RetryPolicy{MaxAttempts: 1})
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Add", int64(2), int64(3)); err != nil {
		t.Fatal(err)
	}
	if n := len(clientHub.Spans(0)) + len(serverHub.Spans(0)); n != 0 {
		t.Fatalf("untraced call minted %d spans", n)
	}
}

func TestTraceContextFlowsThroughHublessRuntime(t *testing.T) {
	// A runtime without a hub forwards an inbound context verbatim: the
	// caller's trace still reaches the server even though the middle mints
	// no spans of its own.
	net := transport.NewMemNetwork(netsim.Loopback)
	serverHub := telemetry.NewHub("server")
	server, err := newRuntime(net, "server", WithTelemetry(serverHub))
	if err != nil {
		t.Fatal(err)
	}
	client, err := newRuntime(net, "client") // no hub
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer server.Close()
	ref, _ := server.Export(&calculator{})

	sc := telemetry.SpanContext{TraceID: 42, SpanID: 99}
	if _, err := client.CallWithin(sc, ref, 0, "Add", int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	serves := spansNamed(serverHub.Spans(0), "serve:Add")
	if len(serves) != 1 {
		t.Fatalf("serve spans = %d, want 1", len(serves))
	}
	if serves[0].TraceID != 42 || serves[0].Parent != 99 {
		t.Fatalf("context not forwarded verbatim: %+v", serves[0])
	}
}

// TestStatsReadTheHubCounters: a runtime keeps one set of counters. With
// a hub Stats and the rmi.* instruments are the same numbers — reply
// frames read on a client connection included, which rmi.bytes.recv used
// to miss — and without a hub Stats reports exactly what it would with one.
func TestStatsReadTheHubCounters(t *testing.T) {
	server, client, net, _, clientHub := newTracedPair(t, RetryPolicy{MaxAttempts: 1})
	bare, err := newRuntime(net, "bare", WithRetryPolicy(RetryPolicy{MaxAttempts: 1})) // no hub
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	ref, _ := server.Export(&calculator{})
	for _, rt := range []*Runtime{client, bare} {
		for i := 0; i < 20; i++ {
			if _, err := rt.Call(ref, "Add", int64(i), int64(1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Call(ref, "NoSuchMethod"); err == nil {
			t.Fatal("call to a missing method succeeded")
		}
	}

	st := client.Stats()
	m := clientHub.Metrics()
	for _, c := range []struct {
		name string
		stat uint64
	}{
		{"rmi.calls", st.CallsSent},
		{"rmi.calls.served", st.CallsServed},
		{"rmi.send.errors", st.SendErrors},
		{"rmi.remote.faults", st.RemoteFaults},
		{"rmi.retries", st.Retries},
		{"rmi.dedupe.hits", st.DupsSuppressed},
		{"rmi.bytes.sent", st.BytesSent},
		{"rmi.bytes.recv", st.BytesReceived},
	} {
		if got := m.Counter(c.name).Load(); got != c.stat {
			t.Errorf("%s = %d, Stats reports %d", c.name, got, c.stat)
		}
	}
	if st.CallsSent != 21 || st.RemoteFaults != 1 || st.BytesReceived == 0 {
		t.Errorf("client stats after 21 calls, one faulting: %+v", st)
	}
	// The same replies came back to both (call frames differ by the client
	// id they carry, so BytesSent is not compared).
	if b := bare.Stats(); b.BytesReceived != st.BytesReceived || b.CallsSent != st.CallsSent ||
		b.RemoteFaults != st.RemoteFaults || b.BytesSent == 0 {
		t.Errorf("hub-less stats %+v differ from a hub's %+v", b, st)
	}
}
