package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// The regression gate: re-run the experiments recorded in a checked-in
// baseline (BENCH_paper.json, BENCH_failover.json, BENCH_fleet.json,
// BENCH_attribution.json) and compare every measured figure within a
// relative tolerance. Every baseline is produced under the virtual clock,
// so each is a deterministic function of the code — any drift beyond
// tolerance is a real behaviour change, in either direction: a speedup
// that nobody re-baselined hides the next slowdown, so improvements fail
// the gate too until the baseline is regenerated.

// Regression is one tolerance violation found by Check.
type Regression struct {
	// Key identifies the point: "experiment/series size=S step=T x=X".
	Key string
	// Field names the Point figure that drifted ("TotalMS", "Value", ...)
	// or "missing" when the rerun produced no matching point at all.
	Field string
	// Want is the baseline figure, Got the rerun's.
	Want, Got float64
	// DriftPct is the relative drift in percent, signed; +Inf marks drift
	// from a zero baseline.
	DriftPct float64
}

func (r Regression) String() string {
	if r.Field == "missing" {
		return fmt.Sprintf("%s: point missing from rerun", r.Key)
	}
	if math.IsInf(r.DriftPct, 1) {
		return fmt.Sprintf("%s: %s was 0, now %g", r.Key, r.Field, r.Got)
	}
	return fmt.Sprintf("%s: %s %g -> %g (%+.2f%%)", r.Key, r.Field, r.Want, r.Got, r.DriftPct)
}

// LoadBaseline reads a -json baseline file back into points.
func LoadBaseline(path string) ([]Point, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read baseline: %w", err)
	}
	var points []Point
	if err := json.Unmarshal(blob, &points); err != nil {
		return nil, fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("bench: baseline %s holds no points", path)
	}
	return points, nil
}

// checkRunners maps an Experiment name found in a baseline to the runner
// that regenerates it; an experiment that draws several names
// ("fig5v6/per-object", "fig5v6/clustered") is keyed by their common
// prefix. Only experiments that are deterministic under the virtual clock
// belong here — gating wall-clock timings would flap, so Table 1, whose
// LMI row reads the real clock, is not gateable.
var checkRunners = map[string]func(Config) ([]Point, error){
	"fig4":           RunFig4,
	"fig5":           RunFig5,
	"fig6":           RunFig6,
	"fig5curve":      func(cfg Config) ([]Point, error) { return RunFig5Curve(cfg, CurveSize, CurveStep) },
	"fig5v6":         RunFig5v6,
	"ablation-mode":  RunAblationMode,
	"ablation-depth": RunAblationDepth,
	"auto-crossover": RunAutoCrossover,
	"prefetch":       RunPrefetch,
	"profile": func(cfg Config) ([]Point, error) {
		points, _, _, err := RunHotProfile(cfg)
		return points, err
	},
	"failover":    RunFailover,
	"fleet":       RunFleet,
	"attribution": RunAttribution,
}

func pointKey(p Point) string {
	return fmt.Sprintf("%s/%s size=%d step=%d x=%g", p.Experiment, p.Series, p.Size, p.Step, p.X)
}

// Check reruns every experiment named in baseline and returns all points
// whose figures drifted more than tolerancePct percent (relative, either
// direction), plus a "missing" regression for every baseline point the
// rerun no longer produces. Progress notes go to log (may be nil).
func Check(baseline []Point, cfg Config, tolerancePct float64, log io.Writer) ([]Regression, error) {
	if log == nil {
		log = io.Discard
	}
	// Collect the distinct experiments in baseline order.
	var exps []string
	seen := map[string]bool{}
	for _, p := range baseline {
		if exp, _, _ := strings.Cut(p.Experiment, "/"); !seen[exp] {
			seen[exp] = true
			exps = append(exps, exp)
		}
	}
	fresh := map[string]Point{}
	for _, exp := range exps {
		run, ok := checkRunners[exp]
		if !ok {
			names := make([]string, 0, len(checkRunners))
			for n := range checkRunners {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("bench: experiment %q is not gateable (deterministic gates: %v)", exp, names)
		}
		fmt.Fprintf(log, "checking %s...\n", exp)
		points, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: rerun %s: %w", exp, err)
		}
		for _, p := range points {
			fresh[pointKey(p)] = p
		}
	}

	var regressions []Regression
	for _, want := range baseline {
		key := pointKey(want)
		got, ok := fresh[key]
		if !ok {
			regressions = append(regressions, Regression{Key: key, Field: "missing"})
			continue
		}
		fields := []struct {
			name      string
			want, got float64
		}{
			{"TotalMS", want.TotalMS, got.TotalMS},
			{"PerOpUS", want.PerOpUS, got.PerOpUS},
			{"RMICalls", float64(want.RMICalls), float64(got.RMICalls)},
			{"BytesSent", float64(want.BytesSent), float64(got.BytesSent)},
			{"ProxyPairs", float64(want.ProxyPairs), float64(got.ProxyPairs)},
			{"Value", want.Value, got.Value},
		}
		for _, f := range fields {
			if f.want == f.got {
				continue
			}
			if f.want == 0 {
				regressions = append(regressions, Regression{
					Key: key, Field: f.name, Want: f.want, Got: f.got, DriftPct: math.Inf(1),
				})
				continue
			}
			drift := 100 * (f.got - f.want) / math.Abs(f.want)
			if math.Abs(drift) > tolerancePct {
				regressions = append(regressions, Regression{
					Key: key, Field: f.name, Want: f.want, Got: f.got, DriftPct: drift,
				})
			}
		}
	}
	return regressions, nil
}
