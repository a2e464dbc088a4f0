package replication

import (
	"errors"
	"fmt"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// TestDisconnectedOperationsReturnErrUnavailable: once the link to the
// master is down, every remote replication path — demand, put, refresh —
// fails typed with ErrUnavailable (after the retry policy gives up), the
// underlying transport error stays inspectable, and the same operations
// succeed unchanged after reconnection.
func TestDisconnectedOperationsReturnErrUnavailable(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master := newTestSite(t, net, "s2", 2)
	client := newTestSite(t, net, "s1", 1)
	docs := buildChain(t, master, 3, 8)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 1})

	a, err := objmodel.Deref[*doc](refA) // replicate A while connected
	if err != nil {
		t.Fatal(err)
	}

	net.Disconnect("s1", "s2")

	// Demand: faulting in B must fail typed, not hang or return raw.
	_, err = objmodel.Deref[*doc](a.Next)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("demand while disconnected: want ErrUnavailable, got %v", err)
	}
	if !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("demand error must keep the transport cause, got %v", err)
	}

	// Put: local modifications are kept, shipping them fails typed.
	a.SetBody([]byte("edited offline"))
	if err := client.engine.MarkUpdated(a); err != nil {
		t.Fatal(err)
	}
	if err := client.engine.Put(telemetry.SpanContext{}, a); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("put while disconnected: want ErrUnavailable, got %v", err)
	}

	// Refresh fails typed too.
	if err := client.engine.Refresh(telemetry.SpanContext{}, a); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("refresh while disconnected: want ErrUnavailable, got %v", err)
	}

	net.Reconnect("s1", "s2")

	// The same operations now go through: the mobile host re-issues them
	// after reconnection, per the paper's scenario.
	b, err := objmodel.Deref[*doc](a.Next)
	if err != nil {
		t.Fatalf("demand after reconnect: %v", err)
	}
	if b.Name != "doc-1" {
		t.Fatalf("demanded %q, want doc-1", b.Name)
	}
	if err := client.engine.Put(telemetry.SpanContext{}, a); err != nil {
		t.Fatalf("put after reconnect: %v", err)
	}
	if string(docs[0].Body) != "edited offline" {
		t.Fatalf("master body %q after put", docs[0].Body)
	}
	if err := client.engine.Refresh(telemetry.SpanContext{}, a); err != nil {
		t.Fatalf("refresh after reconnect: %v", err)
	}
}

// TestDemandRetriesThroughScriptedOutage: a short scripted outage on the
// demand path is absorbed entirely by the retry policy — the caller sees
// one successful call, no error.
func TestDemandRetriesThroughScriptedOutage(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master := newTestSite(t, net, "s2", 2)
	client := newTestSite(t, net, "s1", 1)
	docs := buildChain(t, master, 2, 8)
	refA := exportHead(t, master, client, docs[0], GetSpec{Mode: Incremental, Batch: 1})

	// Send 1 is the connection preamble; the demand call (send 2) hits a
	// two-send outage and its retries reconnect the link (rejected sends
	// advance the schedule clock) and get through.
	net.SetFaultSchedule("s1", "s2", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 2, Action: netsim.ActDisconnect},
		netsim.FaultEvent{AtSend: 4, Action: netsim.ActReconnect},
	))
	a, err := objmodel.Deref[*doc](refA)
	if err != nil {
		t.Fatalf("demand through outage: %v", err)
	}
	if a.Name != "doc-0" {
		t.Fatalf("demanded %q, want doc-0", a.Name)
	}
	if s := client.rt.Stats(); s.Retries == 0 {
		t.Fatal("outage must have been crossed by retries")
	}
}

// TestBusyProviderIsUnavailableNotRefused: a provider whose connection kept
// answering busy until the retry policy gave up cannot be asked right now;
// it did not say no. An application fault stays a bare error.
func TestBusyProviderIsUnavailableNotRefused(t *testing.T) {
	busy := fmt.Errorf("rmi: get failed after 4 attempts: %w", &rmi.RemoteError{Code: wire.FaultBusy, Method: "get"})
	if err := wrapUnavailable(busy); !errors.Is(err, ErrUnavailable) || !errors.Is(err, busy) {
		t.Fatalf("busy provider: want ErrUnavailable wrapping the cause, got %v", err)
	}
	app := &rmi.RemoteError{Code: wire.FaultApp, Method: "get"}
	if err := wrapUnavailable(app); errors.Is(err, ErrUnavailable) {
		t.Fatalf("application fault must not read as unavailable: %v", err)
	}
}

// TestDemandSkipsGroupMemberWithoutTheMaster: a master-group member that
// has not replayed a master's registration has not exported it, so it
// answers a demand with no-such-object. The call did not run there; the
// client goes on to the next member instead of failing the fault.
func TestDemandSkipsGroupMemberWithoutTheMaster(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	master := newTestSite(t, net, "s2", 2)
	client := newTestSite(t, net, "s1", 1)
	newTestSite(t, net, "s3", 3) // the member that has not caught up
	docs := buildChain(t, master, 1, 8)
	desc, err := master.engine.ExportObject(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	desc.Provider.Addr, desc.Group = "s3", []transport.Addr{"s3", "s2"}

	got, err := derefDoc(t, client.engine.RefFromDescriptor(desc, DefaultSpec))
	if err != nil {
		t.Fatalf("demand with a lagging first member: %v", err)
	}
	if got.Name != docs[0].Name {
		t.Fatalf("demanded %q, want %q", got.Name, docs[0].Name)
	}
}
