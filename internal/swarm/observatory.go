package swarm

import (
	"fmt"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
)

// This file is the observatory half of the harness: when Options.Observe
// is set, the hub's fleet.Collector — not the scenario's own assertions —
// measures what the fleet looks like at two probe points, and the probes
// ride the capacity report into BENCH_fleet.json.

// FleetProbe is one collector scrape, reduced to the capacity figures the
// curves plot. Every field is deterministic per seed (virtual time, merged
// counters and gauges, federated histogram quantiles).
type FleetProbe struct {
	// AtMS is the virtual time of the scrape, in milliseconds.
	AtMS float64 `json:"at_ms"`
	// Scraped and Errors split the roster into sites that answered and
	// sites that did not (e.g. incarnations killed by churn).
	Scraped int `json:"scraped"`
	Errors  int `json:"errors"`
	// StaleReplicas is the fleet-wide invalidation backlog: the merged
	// site.stale.replicas gauge, i.e. replicas known stale and not yet
	// refreshed anywhere in the fleet.
	StaleReplicas int64 `json:"stale_replicas"`
	// RMICalls and BytesSent are the merged rmi.calls / rmi.bytes.sent
	// counters across the roster.
	RMICalls  uint64 `json:"rmi_calls"`
	BytesSent uint64 `json:"bytes_sent"`
	// RMIP99US is the federated p99 of rmi.call.latency_ns, in
	// microseconds, re-derived from the merged histogram buckets.
	RMIP99US float64 `json:"rmi_p99_us"`
	// Refreshes is the merged repl.refreshes counter — the convergence
	// work the fleet performed up to this probe.
	Refreshes uint64 `json:"refreshes"`
}

// FleetObservation is what an Observe run measured: the fleet right after
// the op phase (disturbances just healed, staleness at its peak) and after
// every survivor refreshed its stale replicas (converged — StaleReplicas
// must be back to zero, and the collector is what proves it).
type FleetObservation struct {
	AfterOps  FleetProbe `json:"after_ops"`
	Converged FleetProbe `json:"converged"`
	// Alerts is how many SLO watchdog alerts fired across the run's
	// scrapes (also recorded in the hub's flight recorder as slo.* events).
	Alerts int `json:"alerts"`
	// AlertsDropped counts alerts the collector's bounded backlog evicted.
	AlertsDropped uint64 `json:"alerts_dropped,omitempty"`
	// Attribution is the fleet's aggregated critical-path profile at the
	// converged probe: per-phase time distributions over every complete
	// trace the collector scraped. Deterministic per seed under the
	// virtual clock.
	Attribution *telemetry.AttributionProfile `json:"attribution,omitempty"`
}

// probe points inside run().
type probePoint int

const (
	probeAfterOps probePoint = iota
	probeConverged
)

// observe reads one freshly scraped fleet chunk from the collector and
// files the probe. No-op unless the run is an observatory run.
func (sw *Swarm) observe(at probePoint) {
	if !sw.Opts.Observe {
		return
	}
	chunk := sw.Hub.Fleet().Fleet(true, 0)
	p := reduceProbe(chunk.Snapshot)
	sw.mu.Lock()
	if sw.obs == nil {
		sw.obs = &FleetObservation{}
	}
	switch at {
	case probeAfterOps:
		sw.obs.AfterOps = p
	case probeConverged:
		sw.obs.Converged = p
		sw.obs.Attribution = chunk.Attribution
	}
	sw.obs.Alerts = len(chunk.Alerts)
	sw.obs.AlertsDropped = chunk.Dropped
	sw.mu.Unlock()
}

// observeConverged drives every surviving leaf through RefreshStale — the
// convergence round the invalidation protocol prescribes — then probes.
// The converged StaleReplicas figure is the collector's proof that the
// fleet drained its staleness backlog.
func (sw *Swarm) observeConverged() error {
	if !sw.Opts.Observe {
		return nil
	}
	sw.mu.Lock()
	leaves := append([]*leaf(nil), sw.leaves...)
	sw.mu.Unlock()
	for _, l := range leaves {
		if l == nil || l.killed {
			continue
		}
		if _, err := l.s.RefreshStale(); err != nil {
			return fmt.Errorf("swarm: %s refresh stale: %w", l.name, err)
		}
	}
	sw.observe(probeConverged)
	return nil
}

// reduceProbe extracts the curve figures from a federated snapshot.
func reduceProbe(snap *telemetry.FleetSnapshot) FleetProbe {
	var p FleetProbe
	if snap == nil {
		return p
	}
	p.AtMS = float64(snap.TakenAtNS-netsim.VirtualBase.UnixNano()) / 1e6
	for _, obs := range snap.Sites {
		if obs.Err != "" {
			p.Errors++
		} else {
			p.Scraped++
		}
	}
	if m := snap.Metrics; m != nil {
		p.RMICalls = m.Get("rmi.calls")
		p.BytesSent = m.Get("rmi.bytes.sent")
		p.Refreshes = m.Get("repl.refreshes")
		for _, g := range m.Gauges {
			if g.Name == "site.stale.replicas" {
				p.StaleReplicas = g.Value
			}
		}
		if h := m.GetHistogram("rmi.call.latency_ns"); h.Count > 0 {
			p.RMIP99US = float64(h.P99) / 1e3
		}
	}
	return p
}
