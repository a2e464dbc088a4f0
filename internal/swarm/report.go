package swarm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// RMITotals are fleet-wide sums of every runtime's counters (hub and all
// leaf incarnations, dead ones included).
type RMITotals struct {
	CallsSent      uint64 `json:"calls_sent"`
	CallsServed    uint64 `json:"calls_served"`
	Retries        uint64 `json:"retries"`
	DupsSuppressed uint64 `json:"dups_suppressed"`
	SendErrors     uint64 `json:"send_errors"`
	RemoteFaults   uint64 `json:"remote_faults"`
	BytesSent      uint64 `json:"bytes_sent"`
	BytesReceived  uint64 `json:"bytes_received"`
}

// LinkTotals are sums over every hub↔leaf link, both directions.
type LinkTotals struct {
	Messages     uint64 `json:"messages"`
	Bytes        uint64 `json:"bytes"`
	Dropped      uint64 `json:"dropped"`
	Disconnected uint64 `json:"disconnected"`
}

// Report is a scenario's capacity report: what the fleet did, what it
// cost, and how fast the simulation ran relative to the simulated time.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Sites    int    `json:"sites"`
	Profile  string `json:"profile"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	// Speedup is simulated time over wall time — the discrete-event
	// dividend.
	Speedup float64 `json:"speedup"`
	// Events is how many virtual-clock events fired.
	Events uint64 `json:"events"`

	Ops         int `json:"ops"`
	Unavailable int `json:"unavailable"`
	Kills       int `json:"kills"`
	Spawns      int `json:"spawns"`
	PutsAcked   int `json:"puts_acked"`
	PutsTried   int `json:"puts_tried"`

	// HubGroup is the hub master-group size (0 = classic single hub), and
	// FailoverMS the simulated milliseconds from killing the group's
	// leader to a successor holding a serve lease (0 when nothing was
	// killed).
	HubGroup   int     `json:"hub_group,omitempty"`
	FailoverMS float64 `json:"failover_ms,omitempty"`

	RMI   RMITotals  `json:"rmi"`
	Links LinkTotals `json:"links"`

	// Fleet carries the collector's probes on observatory runs
	// (Options.Observe); nil otherwise.
	Fleet *FleetObservation `json:"fleet,omitempty"`

	// OpsPerSimSecond is fleet operation throughput in simulated time —
	// the capacity figure the harness exists to measure.
	OpsPerSimSecond float64 `json:"ops_per_sim_second"`

	// HotObjects is the hub profiler's heat ranking (top K).
	HotObjects []telemetry.ObjectProfile `json:"hot_objects"`
}

func (sw *Swarm) buildReport(scenario string) *Report {
	sw.mu.Lock()
	r := &Report{
		Scenario:    scenario,
		Seed:        sw.Opts.Seed,
		Sites:       sw.Opts.Sites,
		Profile:     netsim.LAN10.Name,
		SimSeconds:  sw.Clock.Elapsed().Seconds(),
		WallSeconds: time.Since(sw.wallStart).Seconds(),
		Events:      sw.Clock.Advances(),
		Ops:         len(sw.log),
	}
	if sw.groupMode() {
		r.HubGroup = len(sw.hubs)
		r.FailoverMS = float64(sw.failover) / float64(time.Millisecond)
	}
	r.Fleet = sw.obs
	for _, rec := range sw.log {
		switch {
		case rec.Op == "kill":
			r.Kills++
		case rec.Op == "spawn":
			r.Spawns++
		case rec.Err == "unavailable":
			r.Unavailable++
		}
		if rec.OID != 0 {
			r.PutsTried++
		}
		if rec.Version != 0 {
			r.PutsAcked++
		}
	}
	sw.mu.Unlock()
	sites := sw.world.Sites()

	if r.WallSeconds > 0 {
		r.Speedup = r.SimSeconds / r.WallSeconds
	}
	if r.SimSeconds > 0 {
		r.OpsPerSimSecond = float64(r.Ops) / r.SimSeconds
	}
	for _, s := range sites {
		ss := s.Runtime().Stats()
		r.RMI.CallsSent += ss.CallsSent
		r.RMI.CallsServed += ss.CallsServed
		r.RMI.Retries += ss.Retries
		r.RMI.DupsSuppressed += ss.DupsSuppressed
		r.RMI.SendErrors += ss.SendErrors
		r.RMI.RemoteFaults += ss.RemoteFaults
		r.RMI.BytesSent += ss.BytesSent
		r.RMI.BytesReceived += ss.BytesReceived
	}
	for _, s := range sites[len(sw.hubs):] { // every leaf incarnation, dead ones included
		for _, hub := range sw.hubs {
			hubAddr := hub.Addr()
			for _, dir := range []struct{ from, to transport.Addr }{
				{hubAddr, s.Addr()}, {s.Addr(), hubAddr},
			} {
				ls := sw.Net.LinkStats(dir.from, dir.to)
				r.Links.Messages += ls.Messages
				r.Links.Bytes += ls.Bytes
				r.Links.Dropped += ls.Dropped
				r.Links.Disconnected += ls.Disconnected
			}
		}
	}
	if snap := sw.Hub.Telemetry().ProfileSnapshot(profileTopK); snap != nil {
		r.HotObjects = snap.Objects
	}
	return r
}

// WriteJSON writes the report as an indented JSON artifact, creating the
// directory if needed.
func (r *Report) WriteJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReportDir resolves where capacity-report artifacts go: $SWARM_REPORT_DIR
// when set (CI points this at its artifact directory), fallback otherwise.
func ReportDir(fallback string) string {
	if dir := os.Getenv("SWARM_REPORT_DIR"); dir != "" {
		return dir
	}
	return fallback
}

// Summary is a one-line human rendering for logs.
func (r *Report) Summary() string {
	return fmt.Sprintf("%s: %d sites, %.0fs sim in %.2fs wall (%.0fx), %d events, %d ops (%d unavailable, %d kills), %d/%d puts acked",
		r.Scenario, r.Sites, r.SimSeconds, r.WallSeconds, r.Speedup, r.Events,
		r.Ops, r.Unavailable, r.Kills, r.PutsAcked, r.PutsTried)
}
