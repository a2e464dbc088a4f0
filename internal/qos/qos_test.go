package qos

import (
	"errors"
	"testing"
	"time"

	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

const peer = transport.Addr("server")

func TestMonitorEWMA(t *testing.T) {
	m := NewMonitor()
	if _, ok := m.RTT(peer); ok {
		t.Fatal("no samples yet")
	}
	m.Observe(peer, "M", 10*time.Millisecond, nil)
	rtt, ok := m.RTT(peer)
	if !ok || rtt != 10*time.Millisecond {
		t.Fatalf("first sample: %v %v", rtt, ok)
	}
	// A faster sample pulls the estimate down, but not all the way.
	m.Observe(peer, "M", 2*time.Millisecond, nil)
	rtt, _ = m.RTT(peer)
	if rtt >= 10*time.Millisecond || rtt <= 2*time.Millisecond {
		t.Fatalf("ewma: %v", rtt)
	}
}

func TestMonitorHealthTracksLastOutcome(t *testing.T) {
	m := NewMonitor()
	if !m.Healthy(peer) {
		t.Fatal("unknown peers are optimistically healthy")
	}
	m.Observe(peer, "M", 5*time.Millisecond, nil)
	if !m.Healthy(peer) {
		t.Fatal("healthy after success")
	}
	m.Observe(peer, "M", 0, errors.New("link down"))
	if m.Healthy(peer) {
		t.Fatal("unhealthy after failure")
	}
	m.Observe(peer, "M", 5*time.Millisecond, nil)
	if !m.Healthy(peer) {
		t.Fatal("healthy again after recovery")
	}
}

func TestFailedCallsDoNotPolluteRTT(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 5*time.Millisecond, nil)
	m.Observe(peer, "M", 10*time.Second, errors.New("timeout"))
	rtt, _ := m.RTT(peer)
	if rtt != 5*time.Millisecond {
		t.Fatalf("rtt after failure: %v", rtt)
	}
}

func TestAdvisorSkiRental(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 3*time.Millisecond, nil)
	a := NewAdvisor(m, peer)
	if a.Crossover(1, 1) {
		t.Fatal("first call should stay remote")
	}
	if !a.Crossover(1, 2) {
		t.Fatal("second call should replicate (FetchFactor=2)")
	}
	a.FetchFactor = 5
	if a.Crossover(1, 4) {
		t.Fatal("below custom factor")
	}
	if !a.Crossover(1, 5) {
		t.Fatal("at custom factor")
	}
}

// TestProfiledAdvisorCrossoverFlips: with a measured fetch cost the
// advisor abandons the static factor and flips RMI→LMI exactly when the
// RTT spent so far reaches the observed demand latency.
func TestProfiledAdvisorCrossoverFlips(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 2*time.Millisecond, nil) // EWMA = 2ms exactly
	p := telemetry.NewProfiler(0)
	p.RecordFault(1, false, false, 4, 4096, 10*time.Millisecond)
	a := NewProfiledAdvisor(m, peer, p)

	// The static factor (2) would already replicate at call 2 — the
	// measured 10ms fetch holds the remote plan until 5 calls × 2ms RTT.
	if a.Crossover(1, 2) {
		t.Fatal("measured fetch cost should override the static factor")
	}
	if a.Crossover(1, 4) {
		t.Fatal("4 calls × 2ms < 10ms fetch: stay remote")
	}
	if !a.Crossover(1, 5) {
		t.Fatal("5 calls × 2ms ≥ 10ms fetch: replicate")
	}

	// An object never profiled borrows the site-wide demand average —
	// here the same 10ms, so the flip point matches.
	if a.Crossover(99, 4) || !a.Crossover(99, 5) {
		t.Fatal("site-wide fallback cost not applied")
	}

	// A dead link still forces the local plan regardless of the profile.
	m.Observe(peer, "M", 0, errors.New("down"))
	if !a.Crossover(1, 1) {
		t.Fatal("dead link must force the local plan")
	}
}

// TestProfiledAdvisorFallsBackWithoutData: nil profiler or an empty one
// degrades to the static ski-rental factor.
func TestProfiledAdvisorFallsBackWithoutData(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 2*time.Millisecond, nil)
	a := NewProfiledAdvisor(m, peer, nil)
	if a.Crossover(1, 1) || !a.Crossover(1, 2) {
		t.Fatal("nil profiler must behave like NewAdvisor")
	}
	b := NewProfiledAdvisor(m, peer, telemetry.NewProfiler(0))
	if b.Crossover(1, 1) || !b.Crossover(1, 2) {
		t.Fatal("empty profiler must behave like NewAdvisor")
	}
}

func TestAdvisorDeadLinkForcesLocal(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 0, errors.New("down"))
	a := NewAdvisor(m, peer)
	if !a.Crossover(1, 1) {
		t.Fatal("dead link must force the local plan")
	}
}

func TestAdvisorSlowLinkForcesLocal(t *testing.T) {
	m := NewMonitor()
	m.Observe(peer, "M", 400*time.Millisecond, nil)
	a := NewAdvisor(m, peer)
	a.MaxRemoteRTT = 100 * time.Millisecond
	if !a.Crossover(1, 1) {
		t.Fatal("slow link should replicate immediately")
	}
	a.MaxRemoteRTT = time.Second
	if a.Crossover(1, 1) {
		t.Fatal("fast-enough link stays remote on call 1")
	}
}
