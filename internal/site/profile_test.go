package site

import (
	"strings"
	"testing"

	"obiwan/internal/admin"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
)

// TestThreeSiteDemandChainProfiles drives the paper's fault chain —
// gamma demands doc-0 from alpha, then follows its frontier to doc-1 at
// beta — and checks every site built per-OID profiles for its side of
// the protocol: faults and demand bytes at the demander, serves at each
// provider.
func TestThreeSiteDemandChainProfiles(t *testing.T) {
	w := newWorld(t)
	mk := func(name string) *Site {
		return w.site(name, WithTelemetry(telemetry.NewHub(name, telemetry.WithClock(tickClock()))))
	}
	alpha, beta, gamma := mk("alpha"), mk("beta"), mk("gamma")

	doc1 := &note{Text: "doc-1"}
	d1, err := beta.Export(doc1)
	if err != nil {
		t.Fatal(err)
	}
	doc0 := &note{Text: "doc-0", Next: alpha.Engine().RefFromDescriptor(d1, replication.DefaultSpec)}
	d0, err := alpha.Export(doc0)
	if err != nil {
		t.Fatal(err)
	}

	spec := replication.GetSpec{Mode: replication.Incremental, Batch: 1}
	ref0 := gamma.Engine().RefFromDescriptor(d0, spec)
	obj0, err := gamma.Replicate(ref0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gamma.Replicate(obj0.(*note).Next, spec); err != nil {
		t.Fatal(err)
	}

	// Demander side: gamma faulted both documents over the network.
	gsnap := gamma.Telemetry().ProfileSnapshot(0)
	for _, oid := range []uint64{uint64(d0.OID), uint64(d1.OID)} {
		p, ok := gsnap.Get(oid)
		if !ok {
			t.Fatalf("gamma has no profile for %#x:\n%s", oid, gsnap.Format())
		}
		if p.Faults != 1 || p.RemoteDemands != 1 || p.DemandBytes == 0 || p.AvgFaultNS() <= 0 {
			t.Fatalf("gamma profile for %#x: %+v", oid, p)
		}
	}

	// Provider sides: each master served exactly its own document, with
	// payload accounting.
	for _, tc := range []struct {
		s   *Site
		oid uint64
	}{{alpha, uint64(d0.OID)}, {beta, uint64(d1.OID)}} {
		snap := tc.s.Telemetry().ProfileSnapshot(0)
		p, ok := snap.Get(tc.oid)
		if !ok || p.Serves != 1 || p.ServeBytes == 0 {
			t.Fatalf("%s profile for %#x: ok=%v %+v", tc.s.Name(), tc.oid, ok, p)
		}
	}

	// The profiles travel over the admin surface too (alpha inspecting
	// gamma), hottest first.
	chunk, err := alpha.Admin(gamma.Addr()).Scrape(admin.CursorEnd, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	remote := chunk.Profile
	if remote.Site != "gamma" || len(remote.Objects) < 2 {
		t.Fatalf("remote profile: %+v", remote)
	}
	if !strings.Contains(remote.Format(), "hot objects") {
		t.Fatalf("remote format:\n%s", remote.Format())
	}
}

// TestProfileCountsLMIvsRMI: invocations through a ref attribute to the
// right column depending on the mode that carried them.
func TestProfileCountsLMIvsRMI(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	master := &note{Text: "hello"}
	d, err := server.Export(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)

	// Two RMI invocations against the master, then a local replica and
	// two LMI invocations.
	ref.SetMode(objmodel.ModeRemote)
	for i := 0; i < 2; i++ {
		if _, err := ref.Invoke("Read"); err != nil {
			t.Fatal(err)
		}
	}
	ref.SetMode(objmodel.ModeLocal)
	for i := 0; i < 2; i++ {
		if _, err := ref.Invoke("Read"); err != nil {
			t.Fatal(err)
		}
	}

	p, ok := mobile.Telemetry().ProfileSnapshot(0).Get(uint64(d.OID))
	if !ok {
		t.Fatal("no profile for the invoked object")
	}
	if p.RMICalls != 2 || p.LMICalls != 2 {
		t.Fatalf("rmi=%d lmi=%d, want 2/2", p.RMICalls, p.LMICalls)
	}
	if p.Faults != 1 {
		t.Fatalf("faults=%d, want 1 (the ModeLocal switch)", p.Faults)
	}
}

// TestProfileSkipsFailedFaults: an invocation whose fault fails never ran
// on a local copy, so it is not counted as an LMI.
func TestProfileSkipsFailedFaults(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile", WithRetry(rmi.RetryPolicy{MaxAttempts: 1}))

	d, err := server.Export(&note{Text: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ref.Invoke("Read"); err == nil {
			t.Fatal("invoke with the master closed succeeded")
		}
	}
	if ref.IsResolved() {
		t.Fatal("ref resolved with the master closed")
	}
	if p, ok := mobile.Telemetry().ProfileSnapshot(0).Get(uint64(d.OID)); ok && (p.LMICalls != 0 || p.Faults != 0) {
		t.Fatalf("lmi=%d faults=%d after three failed faults, want 0/0", p.LMICalls, p.Faults)
	}
}

// TestAdminScrapeStreamsSpansOnce: the site-level admin accessor honors
// the cursor contract across polls.
func TestAdminScrapeStreamsSpansOnce(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	mobile := w.site("mobile")

	server.Telemetry().StartRoot("first").End()
	chunk, err := mobile.Admin(server.Addr()).Scrape(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Spans) != 1 || chunk.Spans[0].Name != "first" {
		t.Fatalf("first chunk: %+v", chunk.Spans)
	}
	chunk2, err := mobile.Admin(server.Addr()).Scrape(chunk.NextCursor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk2.Spans) != 0 {
		t.Fatalf("span delivered twice: %+v", chunk2.Spans)
	}
}

// TestRecoveryFlightDump: a reborn durable site stores a crash-recovery
// dump that the admin surface serves.
func TestRecoveryFlightDump(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	server := w.site("server", WithDurability(dir))
	if err := server.Register(&note{Text: "v1"}); err != nil {
		t.Fatal(err)
	}
	server.Kill()

	reborn := w.site("server", WithDurability(dir))
	if reborn.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", reborn.Incarnation())
	}
	dump, ok := reborn.Telemetry().Flight().LastDump()
	if !ok {
		t.Fatal("no stored dump after crash recovery")
	}
	if dump.Reason != "crash recovery" {
		t.Fatalf("dump reason %q", dump.Reason)
	}
	found := false
	for _, e := range dump.Events {
		if e.Kind == "site.recovery" && strings.Contains(e.Detail, "incarnation=2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lacks the recovery event: %+v", dump.Events)
	}

	// And it is fetchable from a peer.
	probe := w.site("probe")
	got, err := probe.Admin(reborn.Addr()).Flight()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "crash recovery" {
		t.Fatalf("remote dump reason %q", got.Reason)
	}
}
