package bench

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestRunFleetDeterministic: the capacity-curve sweep runs entirely on
// the virtual clock, so two sweeps of the same seed are byte-identical
// once JSON-encoded — the property the checked-in BENCH_fleet.json
// baseline and the -check regression gate rest on.
func TestRunFleetDeterministic(t *testing.T) {
	cfg := QuickConfig()
	first, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("two sweeps of seed %d differ:\n%s\n%s", cfg.FleetSeed, a, b)
	}
}

// TestRunFleetMeasuresConvergence: the collector — not scenario
// assertions — proves convergence: staleness peaks above zero right
// after the op phase and reaches exactly zero once every survivor ran
// its refresh round.
func TestRunFleetMeasuresConvergence(t *testing.T) {
	points, err := RunFleet(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	var peaked bool
	for _, p := range points {
		switch {
		case strings.HasSuffix(p.Series, "/stale-peak"):
			if p.Value > 0 {
				peaked = true
			}
		case strings.HasSuffix(p.Series, "/stale-converged"):
			if p.Value != 0 {
				t.Fatalf("%s size=%d: %v stale replicas after refresh round", p.Series, p.Size, p.Value)
			}
		case strings.HasSuffix(p.Series, "/ops"):
			if p.RMICalls == 0 || p.BytesSent == 0 {
				t.Fatalf("%s size=%d: no federated traffic totals", p.Series, p.Size)
			}
		}
	}
	if !peaked {
		t.Fatal("no scenario ever showed staleness — the invalidation signal is dead")
	}
}

// TestCheckGate: the regression gate passes a faithful baseline, fails
// a doctored one with the offending field named, and treats a vanished
// point as a regression.
func TestCheckGate(t *testing.T) {
	cfg := QuickConfig()
	baseline, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Check(baseline, cfg, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("faithful baseline flagged: %v", regs)
	}

	doctored := append([]Point(nil), baseline...)
	for i := range doctored {
		if strings.HasSuffix(doctored[i].Series, "/stale-peak") {
			doctored[i].Value *= 2
			break
		}
	}
	regs, err = Check(doctored, cfg, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Field != "Value" {
		t.Fatalf("doctored baseline: %v", regs)
	}

	vanished := append([]Point(nil), baseline...)
	vanished = append(vanished, Point{Experiment: "fleet", Series: "churn/ops", Size: 9999, X: 9999})
	regs, err = Check(vanished, cfg, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Field != "missing" {
		t.Fatalf("vanished point: %v", regs)
	}
}

// TestCheckRejectsWallClockExperiments: only virtual-clock experiments
// are gateable; a wall-clock baseline is an explicit error, not a flaky
// gate.
func TestCheckRejectsWallClockExperiments(t *testing.T) {
	_, err := Check([]Point{{Experiment: "table1", Series: "x"}}, QuickConfig(), 5, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not gateable") {
		t.Fatalf("wall-clock experiment accepted: %v", err)
	}
}
