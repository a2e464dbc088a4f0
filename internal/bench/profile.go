package bench

import (
	"fmt"
	"time"

	"obiwan/internal/plot"
	"obiwan/internal/replication"
	"obiwan/internal/telemetry"
)

// hotProfileObjects is the size of the skewed working set: object i is
// refreshed every i+1 rounds, so object 0 is the hottest and the heat
// falls off harmonically — a small, legible zipf-ish gradient.
const hotProfileObjects = 8

// hotProfileRounds is the number of refresh rounds driven over the set.
const hotProfileRounds = 12

// RunHotProfile drives a deliberately skewed refresh workload over a
// hub-bearing deployment and reads the result back out of the client
// site's per-object replication profiler. It returns one summary Point
// per object (hottest first), the per-round profiler samples that feed
// the hot-object report (plot.HotObjectCharts), and the client's live
// flight-recorder dump — the protocol trail of the run, written out as
// a bench artifact.
func RunHotProfile(cfg Config) (points []Point, samples []plot.HotSample, dump *telemetry.FlightDump, err error) {
	err = deploy(cfg.Profile, true, func(e *env) error {
		size := 64
		if len(cfg.Sizes) > 0 {
			size = cfg.Sizes[0]
		}
		spec := replication.GetSpec{Mode: replication.Incremental, Batch: 1}

		// Replicate the whole working set once (the initial faults), keeping
		// the materialized replicas so refreshes can target them.
		oids := make([]uint64, hotProfileObjects)
		labels := make([]string, hotProfileObjects)
		replicas := make([]any, hotProfileObjects)
		for i := 0; i < hotProfileObjects; i++ {
			master := &Node{Payload: make([]byte, size)}
			if _, err := e.server.RegisterMaster(master); err != nil {
				return err
			}
			d, err := e.server.ExportObject(master)
			if err != nil {
				return err
			}
			oids[i] = uint64(d.OID)
			labels[i] = fmt.Sprintf("obj-%d (1/%d rounds)", i, i+1)
			obj, err := e.client.Replicate(telemetry.SpanContext{}, e.client.RefFromDescriptor(d, spec), spec)
			if err != nil {
				return err
			}
			replicas[i] = obj
		}

		// The skewed rounds: object i refreshes when round%(i+1)==0. Sample
		// the client profiler after every round — the samples are cumulative,
		// so each object traces a staircase whose slope is its heat.
		sample := func(round int) {
			snap := e.hub.ProfileSnapshot(0)
			for i, oid := range oids {
				p, _ := snap.Get(oid)
				samples = append(samples, plot.HotSample{
					AtMS:    float64(round),
					OID:     oid,
					Label:   labels[i],
					Demands: p.RemoteDemands,
					Bytes:   p.DemandBytes,
				})
			}
		}
		sample(0)
		for round := 1; round <= hotProfileRounds; round++ {
			for i := range replicas {
				if (round-1)%(i+1) != 0 {
					continue
				}
				if err := e.client.Refresh(telemetry.SpanContext{}, replicas[i]); err != nil {
					return fmt.Errorf("round %d obj %d: %w", round, i, err)
				}
			}
			sample(round)
		}

		// Summary points, hottest object first, read straight off the final
		// profiler snapshot.
		final := e.hub.ProfileSnapshot(0)
		for i, oid := range oids {
			p, ok := final.Get(oid)
			if !ok {
				return fmt.Errorf("no profile for object %d (%#x)", i, oid)
			}
			points = append(points, Point{
				Experiment: "profile",
				Series:     labels[i],
				Size:       size,
				X:          float64(i),
				TotalMS:    ms(time.Duration(p.FaultNS)),
				PerOpUS:    us(time.Duration(p.AvgFaultNS())),
				RMICalls:   p.RemoteDemands,
				BytesSent:  p.DemandBytes,
			})
		}
		dump = e.hub.Flight().Current("bench hot-profile run")
		return nil
	})
	return points, samples, dump, err
}
