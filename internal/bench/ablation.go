package bench

import (
	"fmt"
	"time"

	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/transport"
)

// RunAblationMode isolates the incremental vs transitive-closure decision
// of §2.1: for each strategy it reports both the latency until the first
// invocation can run (what incremental replication optimizes: "the latency
// imposed on the application is smaller because the application can invoke
// immediately the new replica") and the total time to walk the whole list.
func RunAblationMode(cfg Config) ([]Point, error) {
	size := cfg.Sizes[0]
	strategies := []struct {
		name string
		spec replication.GetSpec
	}{
		{"incremental batch=1", replication.GetSpec{Mode: replication.Incremental, Batch: 1}},
		{"incremental batch=50", replication.GetSpec{Mode: replication.Incremental, Batch: 50}},
		{"cluster batch=50", replication.GetSpec{Mode: replication.Incremental, Batch: 50, Clustered: true}},
		{"transitive", replication.GetSpec{Mode: replication.Transitive}},
	}
	var points []Point
	for _, s := range strategies {
		first := Point{Experiment: "ablation-mode", Series: s.name + " (first use)", Size: size}
		full := Point{Experiment: "ablation-mode", Series: s.name + " (full walk)", Size: size}
		err := deploy(cfg.Profile, false, func(e *env) error {
			ref, err := e.list(cfg.ListLen, size, s.spec)
			if err != nil {
				return err
			}
			return e.measure(&full, 0, func() error {
				err := e.measure(&first, 0, func() error {
					_, err := ref.Invoke("Touch")
					return err
				})
				if err != nil {
					return err
				}
				return walkList(ref, cfg.ListLen, nil)
			})
		})
		if err != nil {
			return nil, err
		}
		points = append(points, first, full)
	}
	return points, nil
}

// RunAblationDepth compares count-bounded and depth-bounded dynamic
// clusters ("the application specifies the depth of the partial
// reachability graph that it wants to replicate as a whole") on a binary
// tree, where the two policies ship differently-shaped prefixes.
func RunAblationDepth(cfg Config) ([]Point, error) {
	size := cfg.Sizes[0]
	type strategy struct {
		name string
		spec replication.GetSpec
	}
	var strategies []strategy
	for _, d := range []int{1, 2, 3} {
		strategies = append(strategies, strategy{
			name: fmt.Sprintf("depth=%d", d),
			spec: replication.GetSpec{Mode: replication.Incremental, Batch: 1 << cfg.TreeDepth, Depth: d, Clustered: true},
		})
	}
	for _, b := range []int{1, 7, 15} {
		strategies = append(strategies, strategy{
			name: fmt.Sprintf("count=%d", b),
			spec: replication.GetSpec{Mode: replication.Incremental, Batch: b, Clustered: true},
		})
	}
	var points []Point
	for _, s := range strategies {
		p := Point{Experiment: "ablation-depth", Series: s.name, Size: size}
		err := deploy(cfg.Profile, false, func(e *env) error {
			root, total, err := e.buildTree(cfg.TreeDepth, size)
			if err != nil {
				return err
			}
			ref, err := e.clientRef(root, s.spec)
			if err != nil {
				return err
			}
			p.X = float64(total)
			return e.measure(&p, 0, func() error {
				visited, err := walkTree(ref)
				if err == nil && visited != total {
					err = fmt.Errorf("ablation-depth %s: visited %d of %d", s.name, visited, total)
				}
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// RunFig5v6 isolates the clustering delta of §4.2 vs §4.3 at equal batch
// sizes: the per-object proxy pairs are the only difference between the
// two regimes.
func RunFig5v6(cfg Config) ([]Point, error) {
	var points []Point
	size := cfg.Sizes[0]
	for _, step := range cfg.Steps {
		if step <= 1 {
			continue // clustering a single object changes nothing
		}
		for _, clustered := range []bool{false, true} {
			experiment := "fig5v6/per-object"
			if clustered {
				experiment = "fig5v6/clustered"
			}
			p, err := listWalkPoint(cfg, experiment, size, step, clustered)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// autoInvocations is the invocation budget of each auto-crossover series.
const autoInvocations = 100

// RunAutoCrossover exercises the ModeAuto run-time switch: a reference
// starts over RMI and replicates once the QoS crossover fires; the series
// reports cumulative time per invocation strategy.
func RunAutoCrossover(cfg Config) ([]Point, error) {
	strategies := []objmodel.InvocationMode{objmodel.ModeRemote, objmodel.ModeLocal, objmodel.ModeAuto}
	var points []Point
	for _, mode := range strategies {
		p := Point{Experiment: "auto-crossover", Series: mode.String(), Size: cfg.Sizes[0], X: autoInvocations}
		err := deploy(cfg.Profile, false, func(e *env) error {
			ref, err := e.list(1, cfg.Sizes[0], replication.DefaultSpec)
			if err != nil {
				return err
			}
			if mode == objmodel.ModeAuto {
				// Crossover after 2 calls, the qos.Advisor default.
				e.client.SetCrossover(func(_ transport.Addr, _ objmodel.OID, calls uint64) bool {
					return calls >= 2
				})
			}
			ref.SetMode(mode)
			return e.measure(&p, 0, func() error { return touch(ref, autoInvocations) })
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// thinkTime is the application's work per object in the prefetch walk;
// pollStep is how often that walk looks whether the prefetcher has brought
// its next object in.
const thinkTime, pollStep = time.Millisecond, 20 * time.Microsecond

// RunPrefetch quantifies the paper's footnote 3 — "a perfect mechanism of
// pre-fetching in the background can completely eliminate the latency" —
// by walking the list with per-object application think time, with and
// without a background prefetcher racing ahead of the walk.
func RunPrefetch(cfg Config) ([]Point, error) {
	size := cfg.Sizes[0]
	var points []Point
	for _, series := range []string{"walk", "walk+prefetch"} {
		p := Point{Experiment: "prefetch", Series: series, Size: size, X: float64(cfg.ListLen)}
		err := deploy(cfg.Profile, false, func(e *env) error {
			ref, err := e.list(cfg.ListLen, size, replication.GetSpec{Mode: replication.Incremental, Batch: 1})
			if err != nil {
				return err
			}
			var pf *replication.Prefetcher
			if series == "walk+prefetch" {
				pf = replication.NewPrefetcher(e.client)
				defer pf.Close()
			}
			// await lets the prefetcher finish the fault of the walk's next
			// object. It polls: a second Resolve of a reference in mid-fault
			// waits on a lock the virtual clock cannot see, which stalls it.
			await := func(next *objmodel.Ref) {
				for pf != nil && next != nil && !next.IsResolved() {
					if _, failed := pf.Stats(); failed > 0 {
						return
					}
					e.clock.Sleep(pollStep)
				}
			}
			return e.measure(&p, 0, func() error {
				if pf != nil {
					pf.Prefetch(ref, 0)
				}
				await(ref)
				// The application "works" on each object; the prefetcher uses
				// this time to stay ahead of the walk.
				return walkList(ref, cfg.ListLen, func(_ int, next *objmodel.Ref) {
					e.clock.Sleep(thinkTime)
					await(next)
				})
			})
		})
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}
