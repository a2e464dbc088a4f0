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

	// LMI: replicate once, then time a tight invocation loop.
	{
		e, err := newEnv(cfg.Profile)
		if err != nil {
			return nil, err
		}
		head, err := e.buildList(1, 64)
		if err != nil {
			e.close()
			return nil, err
		}
		ref, err := e.clientRef(head, replication.DefaultSpec)
		if err != nil {
			e.close()
			return nil, err
		}
		if _, err := ref.Resolve(); err != nil {
			e.close()
			return nil, err
		}
		const n = 100000
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ref.Invoke("Touch"); err != nil {
				e.close()
				return nil, err
			}
		}
		per := time.Since(start) / n
		points = append(points, Point{
			Experiment: "table1", Series: "LMI", Size: 64, X: n,
			TotalMS: ms(per * n), PerOpUS: us(per),
		})
		e.close()
	}

	// RMI: per-call round trips for two object sizes — the cost must not
	// depend on the size (only the call frame crosses the wire).
	for _, size := range []int{64, 64 * 1024} {
		e, err := newEnv(cfg.Profile)
		if err != nil {
			return nil, err
		}
		head, err := e.buildList(1, size)
		if err != nil {
			e.close()
			return nil, err
		}
		ref, err := e.clientRef(head, replication.DefaultSpec)
		if err != nil {
			e.close()
			return nil, err
		}
		ref.SetMode(objmodel.ModeRemote)
		if _, err := ref.Invoke("Touch"); err != nil { // warm the connection
			e.close()
			return nil, err
		}
		const n = 50
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ref.Invoke("Touch"); err != nil {
				e.close()
				return nil, err
			}
		}
		per := time.Since(start) / n
		points = append(points, Point{
			Experiment: "table1", Series: "RMI " + sizeLabel(size), Size: size, X: n,
			TotalMS: ms(per * n), PerOpUS: us(per),
		})
		e.close()
	}
	return points, nil
}

// RunFig4 measures the total cost of n invocations on one object of each
// size, via RMI and via LMI. Per the paper, "the execution time of LMI
// includes the cost due to the creation of the replica and to update it
// back in the master site".
func RunFig4(cfg Config) ([]Point, error) {
	var points []Point

	// RMI series: size-independent, so one series suffices (the paper
	// plots one RMI curve).
	for _, n := range cfg.Invocations {
		e, err := newEnv(cfg.Profile)
		if err != nil {
			return nil, err
		}
		total, err := fig4RMI(e, n)
		e.close()
		if err != nil {
			return nil, err
		}
		points = append(points, Point{
			Experiment: "fig4", Series: "RMI", Size: 64, X: float64(n),
			TotalMS: ms(total), PerOpUS: us(total / time.Duration(n)),
		})
	}

	for _, size := range cfg.Fig4Sizes {
		for _, n := range cfg.Invocations {
			e, err := newEnv(cfg.Profile)
			if err != nil {
				return nil, err
			}
			total, err := fig4LMI(e, size, n)
			e.close()
			if err != nil {
				return nil, err
			}
			points = append(points, Point{
				Experiment: "fig4", Series: "LMI " + sizeLabel(size), Size: size,
				X: float64(n), TotalMS: ms(total), PerOpUS: us(total / time.Duration(n)),
			})
		}
	}
	return points, nil
}

func fig4RMI(e *env, n int) (time.Duration, error) {
	head, err := e.buildList(1, 64)
	if err != nil {
		return 0, err
	}
	ref, err := e.clientRef(head, replication.DefaultSpec)
	if err != nil {
		return 0, err
	}
	ref.SetMode(objmodel.ModeRemote)
	if _, err := ref.Invoke("Touch"); err != nil { // connection setup excluded
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := ref.Invoke("Touch"); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func fig4LMI(e *env, size, n int) (time.Duration, error) {
	head, err := e.buildList(1, size)
	if err != nil {
		return 0, err
	}
	ref, err := e.clientRef(head, replication.DefaultSpec)
	if err != nil {
		return 0, err
	}
	// Warm the connection as for RMI, through a master-directed call.
	if r := ref.Remote(); r != nil {
		if _, err := r.RemoteInvoke("Touch", nil); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	// Replica creation...
	obj, err := ref.Resolve()
	if err != nil {
		return 0, err
	}
	// ...n local invocations...
	for i := 0; i < n; i++ {
		if _, err := ref.Invoke("Touch"); err != nil {
			return 0, err
		}
	}
	// ...and the put-back to the master.
	if err := e.client.Put(telemetry.SpanContext{}, obj); err != nil {
		return 0, err
	}
	return time.Since(start), nil
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
	e, err := newEnv(cfg.Profile)
	if err != nil {
		return Point{}, err
	}
	defer e.close()
	head, err := e.buildList(cfg.ListLen, size)
	if err != nil {
		return Point{}, err
	}
	spec := replication.GetSpec{Mode: replication.Incremental, Batch: step, Clustered: clustered}
	ref, err := e.clientRef(head, spec)
	if err != nil {
		return Point{}, err
	}
	start := time.Now()
	if err := walkList(ref, cfg.ListLen); err != nil {
		return Point{}, err
	}
	total := time.Since(start)
	cs := e.crt.Stats()
	ss := e.srt.Stats()
	return Point{
		Experiment: experiment,
		Series:     fmt.Sprintf("%s step=%d", sizeLabel(size), step),
		Size:       size,
		Step:       step,
		X:          float64(step),
		TotalMS:    ms(total),
		PerOpUS:    us(total / time.Duration(cfg.ListLen)),
		RMICalls:   cs.CallsSent,
		BytesSent:  cs.BytesSent + ss.BytesSent,
		ProxyPairs: e.server.GC().Snapshot().ProxyInsExported,
	}, nil
}

// RunFig5Curve emits the cumulative staircase for one (size, step)
// configuration: total elapsed time after every sampleEvery invocations.
// This is the raw shape of the paper's figure-5 plots.
func RunFig5Curve(cfg Config, size, step, sampleEvery int, clustered bool) ([]Point, error) {
	e, err := newEnv(cfg.Profile)
	if err != nil {
		return nil, err
	}
	defer e.close()
	head, err := e.buildList(cfg.ListLen, size)
	if err != nil {
		return nil, err
	}
	spec := replication.GetSpec{Mode: replication.Incremental, Batch: step, Clustered: clustered}
	ref, err := e.clientRef(head, spec)
	if err != nil {
		return nil, err
	}
	experiment := "fig5curve"
	if clustered {
		experiment = "fig6curve"
	}
	series := fmt.Sprintf("%s step=%d", sizeLabel(size), step)

	var points []Point
	start := time.Now()
	cur := ref
	for i := 0; i < cfg.ListLen; i++ {
		if _, err := cur.Invoke("Touch"); err != nil {
			return nil, err
		}
		node, err := objmodel.Deref[*Node](cur)
		if err != nil {
			return nil, err
		}
		cur = node.Next
		if (i+1)%sampleEvery == 0 || i == cfg.ListLen-1 {
			points = append(points, Point{
				Experiment: experiment, Series: series, Size: size, Step: step,
				X: float64(i + 1), TotalMS: ms(time.Since(start)),
			})
		}
	}
	return points, nil
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
