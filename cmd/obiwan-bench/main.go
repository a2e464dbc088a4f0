// Command obiwan-bench regenerates the tables and figures of the paper's
// evaluation (§4) on the simulated testbed, at full paper scale. Every
// experiment runs on a virtual clock, so its figures are a deterministic
// function of the code; only Table 1's LMI row reads the real clock.
//
// Usage:
//
//	obiwan-bench -exp table1              # §4.1 LMI vs RMI micro numbers
//	obiwan-bench -exp fig4                # figure 4: RMI vs LMI totals
//	obiwan-bench -exp fig5                # figure 5: incremental, no clustering
//	obiwan-bench -exp fig6                # figure 6: clustered
//	obiwan-bench -exp fig5curve -step 10  # cumulative staircase of one config
//	obiwan-bench -exp fig5v6              # clustering delta at equal batch
//	obiwan-bench -exp ablation-mode       # incremental vs transitive closure
//	obiwan-bench -exp ablation-depth      # count- vs depth-bounded clusters
//	obiwan-bench -exp auto                # RMI/LMI/auto invocation policies
//	obiwan-bench -exp prefetch            # background prefetch vs think time
//	obiwan-bench -exp profile             # hot-object replication profiler report
//	obiwan-bench -exp failover            # master-group overhead + elect latency
//	obiwan-bench -exp fleet               # capacity curves via fleet federation
//	obiwan-bench -exp attribution         # critical-path phase shares ("where does p99 go")
//	obiwan-bench -exp fig4,fig5           # a comma-separated list
//	obiwan-bench -exp all                 # everything
//
// Flags: -quick (scaled-down parameters), -csv (machine-readable output),
// -profile lan10|wan|wireless|loopback, -list (list length), -svg DIR
// (render figures), -flight FILE (write the profile run's flight dump),
// -json FILE (write every collected point as JSON). The checked-in
// baselines are
//
//	-exp fig4,fig5,fig6,fig5curve,fig5v6,ablation-mode,ablation-depth,auto,prefetch,profile -json BENCH_paper.json
//	-exp failover -json BENCH_failover.json
//	-exp fleet -json BENCH_fleet.json
//	-exp attribution -json BENCH_attribution.json
//
// and figures/ is `-exp fig4,fig5,fig6,fig5curve,fig5v6 -svg figures`.
//
// Regression gate:
//
//	obiwan-bench -check BENCH_paper.json -tolerance 0
//
// reruns every experiment the baseline records (virtual-clock experiments
// only) and exits non-zero if any figure drifted more than the tolerance
// percentage in either direction, or if a baseline point disappeared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"obiwan/internal/bench"
	"obiwan/internal/netsim"
	"obiwan/internal/plot"
	"obiwan/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment, or a comma-separated list: table1, fig4, fig5, fig6, fig5curve, fig5v6, ablation-mode, ablation-depth, auto, prefetch, profile, failover, fleet, attribution, all")
	quick := flag.Bool("quick", false, "scaled-down parameters (fast smoke run)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	profile := flag.String("profile", "lan10", "link profile: lan10, wan, wireless, loopback")
	listLen := flag.Int("list", 0, "override list length (figures 5-6)")
	size := flag.Int("size", bench.CurveSize, "object size for fig5curve")
	step := flag.Int("step", bench.CurveStep, "replication step for fig5curve")
	svgDir := flag.String("svg", "", "also render each experiment as an SVG figure into this directory")
	flightFile := flag.String("flight", "", "write the profile experiment's flight-recorder dump to this file")
	jsonFile := flag.String("json", "", "write every collected point as JSON to this file")
	checkFile := flag.String("check", "", "regression gate: rerun the experiments in this baseline JSON and fail on drift")
	tolerance := flag.Float64("tolerance", 5, "allowed relative drift in percent for -check")
	flag.Parse()

	if *checkFile != "" {
		if err := runCheck(os.Stdout, *checkFile, *quick, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "obiwan-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *exp, *quick, *csv, *profile, *listLen, *size, *step, *svgDir, *flightFile, *jsonFile); err != nil {
		fmt.Fprintln(os.Stderr, "obiwan-bench:", err)
		os.Exit(1)
	}
}

// runCheck drives the regression gate: any drift beyond tolerance (either
// direction — unbaselined speedups hide the next slowdown) is an error.
func runCheck(w io.Writer, baselinePath string, quick bool, tolerance float64) error {
	baseline, err := bench.LoadBaseline(baselinePath)
	if err != nil {
		return err
	}
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	fmt.Fprintf(w, "# obiwan-bench -check %s -tolerance %g (%d baseline points)\n",
		baselinePath, tolerance, len(baseline))
	regressions, err := bench.Check(baseline, cfg, tolerance, w)
	if err != nil {
		return err
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(w, "REGRESSION:", r)
		}
		return fmt.Errorf("%d of %d baseline points drifted beyond %g%%",
			len(regressions), len(baseline), tolerance)
	}
	fmt.Fprintf(w, "ok: all %d points within %g%%\n", len(baseline), tolerance)
	return nil
}

func run(w io.Writer, exp string, quick, csv bool, profile string, listLen, size, step int, svgDir, flightFile, jsonFile string) error {
	cfg := bench.DefaultConfig()
	if quick {
		cfg = bench.QuickConfig()
	}
	switch profile {
	case "lan10":
		cfg.Profile = netsim.LAN10
	case "wan":
		cfg.Profile = netsim.WAN
	case "wireless":
		cfg.Profile = netsim.Wireless
	case "loopback":
		cfg.Profile = netsim.Loopback
	default:
		return fmt.Errorf("unknown profile %q", profile)
	}
	if listLen > 0 {
		cfg.ListLen = listLen
	}

	type runner struct {
		name string
		desc string
		run  func() ([]bench.Point, error)
	}
	var hotSamples []plot.HotSample
	var flightDump *telemetry.FlightDump
	runners := []runner{
		{"table1", "§4.1 per-invocation cost: LMI vs RMI (RMI size-independent)",
			func() ([]bench.Point, error) { return bench.RunTable1(cfg) }},
		{"fig4", "figure 4: total cost vs invocation count, RMI and LMI per object size",
			func() ([]bench.Point, error) { return bench.RunFig4(cfg) }},
		{"fig5", "figure 5: incremental replication, per-object proxy pairs",
			func() ([]bench.Point, error) { return bench.RunFig5(cfg) }},
		{"fig6", "figure 6: incremental replication with clustering",
			func() ([]bench.Point, error) { return bench.RunFig6(cfg) }},
		{"fig5curve", fmt.Sprintf("cumulative staircase: size=%dB step=%d", size, step),
			func() ([]bench.Point, error) { return bench.RunFig5Curve(cfg, size, step) }},
		{"fig5v6", "clustering delta at equal batch sizes",
			func() ([]bench.Point, error) { return bench.RunFig5v6(cfg) }},
		{"ablation-mode", "incremental vs transitive: first-use latency vs total",
			func() ([]bench.Point, error) { return bench.RunAblationMode(cfg) }},
		{"ablation-depth", "count- vs depth-bounded clusters on a tree",
			func() ([]bench.Point, error) { return bench.RunAblationDepth(cfg) }},
		{"auto", "invocation policies: remote vs local vs auto crossover",
			func() ([]bench.Point, error) { return bench.RunAutoCrossover(cfg) }},
		{"prefetch", "footnote 3: background prefetch hiding fault latency (1ms think time/object)",
			func() ([]bench.Point, error) { return bench.RunPrefetch(cfg) }},
		{"profile", "per-object replication profiler: skewed refresh rounds, hot objects first",
			func() ([]bench.Point, error) {
				points, samples, dump, err := bench.RunHotProfile(cfg)
				hotSamples, flightDump = samples, dump
				return points, err
			}},
		{"failover", "3-site master group vs single master: steady-state overhead + elect latency (virtual clock)",
			func() ([]bench.Point, error) { return bench.RunFailover(cfg) }},
		{"fleet", "capacity curves: churn + flash-crowd swept over site counts, measured by the fleet collector (virtual clock, deterministic)",
			func() ([]bench.Point, error) { return bench.RunFleet(cfg) }},
		{"attribution", "critical-path phase shares: where churn + flash-crowd latency goes, per protocol phase (virtual clock, deterministic)",
			func() ([]bench.Point, error) { return bench.RunAttribution(cfg) }},
	}

	names := strings.Split(exp, ",")
	selected := runners[:0:0]
	for _, r := range runners {
		if exp == "all" || slices.Contains(names, r.name) {
			selected = append(selected, r)
		}
	}
	if exp != "all" && len(selected) != len(names) {
		return fmt.Errorf("unknown experiment in %q", exp)
	}

	fmt.Fprintf(w, "# obiwan-bench profile=%s list=%d quick=%v\n",
		cfg.Profile.Name, cfg.ListLen, quick)
	var all []bench.Point
	for _, r := range selected {
		fmt.Fprintf(w, "\n## %s — %s\n", r.name, r.desc)
		start := time.Now()
		points, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		all = append(all, points...)
		if csv {
			bench.WriteCSV(w, points)
		} else {
			bench.WritePoints(w, points)
		}
		if svgDir != "" {
			path, err := renderSVG(svgDir, r.name, points)
			if err != nil {
				return fmt.Errorf("%s: render svg: %w", r.name, err)
			}
			if path != "" {
				fmt.Fprintf(w, "(figure: %s)\n", path)
			}
		}
		if r.name == "profile" {
			if svgDir != "" && len(hotSamples) > 0 {
				paths, err := renderHotCharts(svgDir, hotSamples)
				if err != nil {
					return fmt.Errorf("profile: render svg: %w", err)
				}
				for _, p := range paths {
					fmt.Fprintf(w, "(figure: %s)\n", p)
				}
			}
			if flightFile != "" && flightDump != nil {
				if err := writeFlight(flightFile, flightDump); err != nil {
					return fmt.Errorf("profile: flight dump: %w", err)
				}
				fmt.Fprintf(w, "(flight dump: %s)\n", flightFile)
			}
		}
		fmt.Fprintf(w, "(%d points in %v)\n", len(points), time.Since(start).Round(time.Millisecond))
	}
	if jsonFile != "" {
		blob, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "(json: %s)\n", jsonFile)
	}
	if exp == "all" || exp == "table1" {
		fmt.Fprintln(w, "\n"+strings.TrimSpace(shapeNotes))
	}
	return nil
}

const shapeNotes = `
Shape checks against the paper (see EXPERIMENTS.md):
  table1: LMI per-call ≪ RMI per-call (paper: 2 µs vs 2.8 ms); RMI flat in size.
  fig4:   RMI total linear in invocations; LMI pays a size-dependent fixed cost
          (replica + put-back) then flat; crossover earlier for small objects.
  fig5:   step=1 worst at scale (one RPC per object); larger steps amortize;
          one proxy pair per OBJECT regardless of step.
  fig6:   strictly cheaper than fig5 at equal step; curves compressed; one
          proxy pair per CLUSTER.`
