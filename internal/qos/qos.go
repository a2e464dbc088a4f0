// Package qos estimates link quality and implements the run-time decision
// the paper motivates: "the programmer has the means to make his
// application decide, in run-time, if an object should be invoked via RMI
// or if a local replica should be created ... given the significant and
// rapid changes in the quality of service of the underlying network" (§5).
//
// A Monitor ingests the round-trip observations the RMI runtime emits and
// keeps a per-peer EWMA of RTT plus the last outcome. The Advisor turns
// those estimates into the ModeAuto crossover decision, using the cost
// model behind figure 4:
//
//	cost(RMI, n calls)  ≈ n · RTT
//	cost(LMI, n calls)  ≈ fetch + n · ε        (ε = local call ≪ RTT)
//
// Replication pays off once n · RTT exceeds the fetch cost — a ski-rental
// decision. Without knowing future n, the advisor replicates after the
// calls so far have spent about one fetch's worth of RTT (2-competitive).
// A disconnected or degraded link forces the local decision outright:
// offline work needs colocated objects.
package qos

import (
	"sync"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// estimate is the per-peer link state.
type estimate struct {
	ewmaRTT time.Duration
	samples uint64
	failing bool // the last outcome observed was a failure
}

// Monitor aggregates RMI round-trip observations per peer site. Plug its
// Observe method into rmi.WithObserver. Safe for concurrent use.
type Monitor struct {
	mu    sync.Mutex
	peers map[transport.Addr]*estimate
	// alpha is the EWMA smoothing factor for new samples.
	alpha float64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{peers: make(map[transport.Addr]*estimate), alpha: 0.3}
}

// Observe ingests one call outcome. Failed calls mark the peer unhealthy
// and do not update the RTT estimate (their duration reflects timeouts,
// not the link).
func (m *Monitor) Observe(addr transport.Addr, _ string, rtt time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.peers[addr]
	if !ok {
		e = &estimate{}
		m.peers[addr] = e
	}
	e.failing = err != nil
	if err != nil {
		return
	}
	e.samples++
	if e.ewmaRTT == 0 {
		e.ewmaRTT = rtt
		return
	}
	e.ewmaRTT = time.Duration((1-m.alpha)*float64(e.ewmaRTT) + m.alpha*float64(rtt))
}

// RTT returns the smoothed round-trip estimate for addr.
func (m *Monitor) RTT(addr transport.Addr) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.peers[addr]
	if !ok || e.samples == 0 {
		return 0, false
	}
	return e.ewmaRTT, true
}

// Healthy reports whether the last outcome seen for addr was a success.
// An address never observed counts as healthy (optimism at bootstrap).
func (m *Monitor) Healthy(addr transport.Addr) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.peers[addr]
	if !ok {
		return true
	}
	return !e.failing
}

// Advisor turns Monitor estimates into ModeAuto decisions for one peer
// site. Its Crossover method matches replication.Crossover.
type Advisor struct {
	monitor  *Monitor
	peer     transport.Addr
	profiler *telemetry.Profiler // nil without telemetry: factor fallback

	// FetchFactor is the estimated cost of one replication demand in units
	// of call RTTs (one RTT for the demand itself plus transfer time).
	// After calls · 1 ≥ FetchFactor the advisor prefers replication.
	// Default 2: replicate on the second call for small objects, the
	// ski-rental break-even of figure 4's small-object crossover. Used
	// when no measured fetch cost is available for the object.
	FetchFactor float64

	// MaxRemoteRTT forces the local decision when the link is slower than
	// this (0 = disabled): on very slow links even a single future call
	// amortizes the fetch.
	MaxRemoteRTT time.Duration
}

// NewAdvisor builds an advisor for the given peer site.
func NewAdvisor(m *Monitor, peer transport.Addr) *Advisor {
	return &Advisor{monitor: m, peer: peer, FetchFactor: 2}
}

// NewProfiledAdvisor builds an advisor that closes the loop with the
// site's replication profiler: instead of assuming a fetch costs
// FetchFactor RTTs, it uses the measured average demand latency for the
// object (or the site-wide average while the object is cold) as the
// ski-rental break-even. p may be nil, degrading to NewAdvisor behavior.
func NewProfiledAdvisor(m *Monitor, peer transport.Addr, p *telemetry.Profiler) *Advisor {
	a := NewAdvisor(m, peer)
	a.profiler = p
	return a
}

// Crossover implements the ModeAuto decision: true means "replicate now".
func (a *Advisor) Crossover(oid objmodel.OID, calls uint64) bool {
	// A dead link leaves replication as the only viable plan (and the
	// fault path is what will retry the fetch when connectivity returns).
	if !a.monitor.Healthy(a.peer) {
		return true
	}
	rtt, haveRTT := a.monitor.RTT(a.peer)
	if a.MaxRemoteRTT > 0 && haveRTT && rtt > a.MaxRemoteRTT {
		return true
	}
	// Measured path: replicate once the RTT already spent on this ref
	// matches the observed fetch cost — the 2-competitive ski-rental rule
	// with both sides of figure 4's cost model measured, not assumed.
	if haveRTT && rtt > 0 {
		if fetch, ok := a.profiler.FaultCost(uint64(oid)); ok && fetch > 0 {
			return time.Duration(calls)*rtt >= fetch
		}
	}
	return float64(calls) >= a.FetchFactor
}
