package bench

import (
	"fmt"
	"io"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/stats"
	"obiwan/internal/telemetry"
)

// RunTable1 measures the §4.1 micro numbers: the per-invocation cost of a
// local method invocation on a replica vs a remote method invocation, and
// RMI's independence of object size.
func RunTable1(cfg Config) ([]Point, error) {
	var points []Point

	// LMI: replicate once, then time a tight invocation loop. An LMI costs
	// host CPU, which the virtual clock does not charge, so this loop alone
	// reads the real clock.
	err := deploy(cfg.Profile, false, func(e *env) error {
		ref, err := e.list(1, 64, replication.DefaultSpec)
		if err != nil {
			return err
		}
		if _, err := ref.Resolve(); err != nil {
			return err
		}
		const n = 100000
		start := time.Now()
		if err := touch(ref, n); err != nil {
			return err
		}
		per := time.Since(start) / n
		points = append(points, Point{
			Experiment: "table1", Series: "LMI", Size: 64, X: n,
			TotalMS: ms(per * n), PerOpUS: us(per),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// RMI: per-call round trips for two object sizes — the cost must not
	// depend on the size (only the call frame crosses the wire).
	for _, size := range []int{64, 64 * 1024} {
		const n = 50
		p := Point{Experiment: "table1", Series: "RMI " + sizeLabel(size), Size: size, X: n}
		if err := deploy(cfg.Profile, false, func(e *env) error { return e.remoteCalls(&p, size, n) }); err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// remoteCalls charges p with n RMIs on a master of size bytes, after one
// call that opens the connection.
func (e *env) remoteCalls(p *Point, size, n int) error {
	ref, err := e.list(1, size, replication.DefaultSpec)
	if err != nil {
		return err
	}
	ref.SetMode(objmodel.ModeRemote)
	if _, err := ref.Invoke("Touch"); err != nil {
		return err
	}
	return e.measure(p, n, func() error { return touch(ref, n) })
}

// RunFig4 measures the total cost of n invocations on one object of each
// size, via RMI and via LMI. Per the paper, "the execution time of LMI
// includes the cost due to the creation of the replica and to update it
// back in the master site". The n local calls cost host CPU only, which
// the virtual clock does not charge (Table 1's LMI row prices them).
func RunFig4(cfg Config) ([]Point, error) {
	var points []Point

	// RMI series: size-independent, so one series suffices (the paper
	// plots one RMI curve).
	for _, n := range cfg.Invocations {
		p := Point{Experiment: "fig4", Series: "RMI", Size: 64, X: float64(n)}
		if err := deploy(cfg.Profile, false, func(e *env) error { return e.remoteCalls(&p, 64, n) }); err != nil {
			return nil, err
		}
		points = append(points, p)
	}

	for _, size := range cfg.Fig4Sizes {
		for _, n := range cfg.Invocations {
			p := Point{Experiment: "fig4", Series: "LMI " + sizeLabel(size), Size: size, X: float64(n)}
			if err := deploy(cfg.Profile, false, func(e *env) error { return e.localCalls(&p, size, n) }); err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// localCalls charges p with replicating a master of size bytes, n local
// calls on the replica, and the put-back, after a master-directed call
// that opens the connection as for RMI.
func (e *env) localCalls(p *Point, size, n int) error {
	ref, err := e.list(1, size, replication.DefaultSpec)
	if err != nil {
		return err
	}
	if _, err := ref.Remote().RemoteInvoke("Touch", nil); err != nil {
		return err
	}
	return e.measure(p, n, func() error {
		obj, err := ref.Resolve()
		if err != nil {
			return err
		}
		if err := touch(ref, n); err != nil {
			return err
		}
		return e.client.Put(telemetry.SpanContext{}, obj)
	})
}

// RunFig5 measures the incremental replication of the list without
// clustering: each fault ships the next `step` objects, each with its own
// proxy pair.
func RunFig5(cfg Config) ([]Point, error) {
	return runListWalk(cfg, "fig5", false)
}

// RunFig6 measures the same walk with clustering: one proxy pair per
// cluster of `step` objects.
func RunFig6(cfg Config) ([]Point, error) {
	return runListWalk(cfg, "fig6", true)
}

func runListWalk(cfg Config, experiment string, clustered bool) ([]Point, error) {
	var points []Point
	for _, size := range cfg.Sizes {
		for _, step := range cfg.Steps {
			p, err := listWalkPoint(cfg, experiment, size, step, clustered)
			if err != nil {
				return nil, fmt.Errorf("%s size=%d step=%d: %w", experiment, size, step, err)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

func listWalkPoint(cfg Config, experiment string, size, step int, clustered bool) (Point, error) {
	p := Point{
		Experiment: experiment,
		Series:     fmt.Sprintf("%s step=%d", sizeLabel(size), step),
		Size:       size,
		Step:       step,
		X:          float64(step),
	}
	err := deploy(cfg.Profile, false, func(e *env) error {
		ref, err := e.list(cfg.ListLen, size, replication.GetSpec{Mode: replication.Incremental, Batch: step, Clustered: clustered})
		if err != nil {
			return err
		}
		return e.measure(&p, cfg.ListLen, func() error { return walkList(ref, cfg.ListLen, nil) })
	})
	return p, err
}

// CurveSize and CurveStep are the configuration fig5curve draws unless
// told otherwise, and the one a baseline records.
const CurveSize, CurveStep = 64, 10

// RunFig5Curve emits the cumulative staircase for one (size, step)
// configuration: total elapsed time after every twentieth of the list.
// This is the raw shape of the paper's figure-5 plots.
func RunFig5Curve(cfg Config, size, step int) ([]Point, error) {
	sampleEvery := max(cfg.ListLen/20, 1)
	series := fmt.Sprintf("%s step=%d", sizeLabel(size), step)
	var points []Point
	err := deploy(cfg.Profile, false, func(e *env) error {
		ref, err := e.list(cfg.ListLen, size, replication.GetSpec{Mode: replication.Incremental, Batch: step})
		if err != nil {
			return err
		}
		start := e.clock.Now()
		return walkList(ref, cfg.ListLen, func(i int, _ *objmodel.Ref) {
			if (i+1)%sampleEvery == 0 || i == cfg.ListLen-1 {
				points = append(points, Point{
					Experiment: "fig5curve", Series: series, Size: size, Step: step,
					X: float64(i + 1), TotalMS: ms(e.clock.Now().Sub(start)),
				})
			}
		})
	})
	return points, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WritePoints renders points as an aligned table.
func WritePoints(w io.Writer, points []Point) {
	t := stats.NewTable("experiment", "series", "x", "total_ms", "per_op_us", "rmi_calls", "bytes", "proxy_pairs", "value")
	for _, p := range points {
		t.AddRow(p.Experiment, p.Series, p.X, p.TotalMS, p.PerOpUS, p.RMICalls, p.BytesSent, p.ProxyPairs, p.Value)
	}
	_, _ = t.WriteTo(w)
}

// WriteCSV renders points as CSV.
func WriteCSV(w io.Writer, points []Point) {
	t := stats.NewTable("experiment", "series", "size", "step", "x", "total_ms", "per_op_us", "rmi_calls", "bytes", "proxy_pairs", "value")
	for _, p := range points {
		t.AddRow(p.Experiment, p.Series, p.Size, p.Step, p.X, p.TotalMS, p.PerOpUS, p.RMICalls, p.BytesSent, p.ProxyPairs, p.Value)
	}
	_, _ = io.WriteString(w, t.CSV())
}
