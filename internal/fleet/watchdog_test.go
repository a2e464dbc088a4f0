package fleet

import (
	"reflect"
	"testing"

	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// snapshotAt builds a one-instrument metrics snapshot for rule kind k
// whose watched value is v (for RuleRate, the counter's current total).
func snapshotAt(k RuleKind, v uint64) *telemetry.MetricsSnapshot {
	switch k {
	case RuleP99:
		return &telemetry.MetricsSnapshot{Histograms: []telemetry.HistogramValue{{Name: "m", Count: 1, P99: int64(v)}}}
	case RuleLag:
		return &telemetry.MetricsSnapshot{Counters: []telemetry.CounterValue{{Name: "m", Value: 100 + v}, {Name: "minus", Value: 100}}}
	case RuleRate:
		return &telemetry.MetricsSnapshot{Counters: []telemetry.CounterValue{{Name: "m", Value: 100 + v}}}
	default:
		return &telemetry.MetricsSnapshot{Gauges: []telemetry.GaugeValue{{Name: "m", Value: int64(v)}}}
	}
}

// TestRuleFiresAboveThresholdNotAtIt: every rule kind compares strictly,
// so a value equal to the threshold is within the SLO and one more is not.
func TestRuleFiresAboveThresholdNotAtIt(t *testing.T) {
	const threshold = 10
	prev := map[string]uint64{"m": 100} // the rate rule's previous scrape
	for _, k := range []RuleKind{RuleP99, RuleLag, RuleRate, RuleGauge} {
		r := Rule{Name: k.String(), Kind: k, Metric: "m", Minus: "minus", Threshold: threshold}
		if a, fired := applyRule(r, snapshotAt(k, threshold), prev, "s1", 7); fired {
			t.Errorf("%s fired at its threshold: %+v", k, a)
		}
		a, fired := applyRule(r, snapshotAt(k, threshold+1), prev, "s1", 7)
		if !fired {
			t.Errorf("%s did not fire above its threshold", k)
			continue
		}
		if a.Rule != r.Name || a.Site != "s1" || a.Metric != "m" || a.Value != threshold+1 || a.Threshold != threshold || a.AtNS != 7 {
			t.Errorf("%s alert %+v", k, a)
		}
	}
}

// TestRateRuleSkipsFirstScrape: with no previous scrape of a site, the
// counter's total is not a rate, however large.
func TestRateRuleSkipsFirstScrape(t *testing.T) {
	r := Rule{Name: "churn", Kind: RuleRate, Metric: "m", Threshold: 1}
	if a, fired := applyRule(r, snapshotAt(RuleRate, 1000), nil, "s1", 0); fired {
		t.Fatalf("rate rule fired on a first scrape: %+v", a)
	}
	states := map[transport.Addr]*peerState{"s2": {prev: map[string]uint64{"m": 100}}}
	snap := &telemetry.FleetSnapshot{Sites: []telemetry.SiteObservation{
		{Site: "s1", Metrics: snapshotAt(RuleRate, 1000)},
		{Site: "s2", Metrics: snapshotAt(RuleRate, 1000)},
	}}
	alerts := evaluate([]Rule{r}, snap, states, 0)
	if len(alerts) != 1 || alerts[0].Site != "s2" {
		t.Fatalf("want one alert for the twice-scraped s2, got %+v", alerts)
	}
}

// TestFleetWideRulesAlertAsFleet: a fleet-wide rule is evaluated once
// more over the merged snapshot and alerts as site "fleet" — except a
// rate rule, for which the merged snapshot has no baseline.
func TestFleetWideRulesAlertAsFleet(t *testing.T) {
	snap := &telemetry.FleetSnapshot{
		Sites:   []telemetry.SiteObservation{{Site: "s1"}}, // no metrics: skipped
		Metrics: snapshotAt(RuleGauge, 5),
	}
	gauge := Rule{Name: "stale", Kind: RuleGauge, Metric: "m", Threshold: 1, FleetWide: true}
	alerts := evaluate([]Rule{gauge}, snap, nil, 0)
	if len(alerts) != 1 || alerts[0].Site != "fleet" {
		t.Fatalf("fleet-wide gauge: want one alert as site fleet, got %+v", alerts)
	}

	snap.Metrics = snapshotAt(RuleRate, 1000)
	rate := Rule{Name: "churn", Kind: RuleRate, Metric: "m", Threshold: 1, FleetWide: true}
	if alerts := evaluate([]Rule{rate}, snap, nil, 0); len(alerts) != 0 {
		t.Fatalf("fleet-wide rate rule alerted: %+v", alerts)
	}
}

// TestAlertsInRuleThenSiteOrder: alerts come out grouped by rule, in rule
// order, and within a rule in the snapshot's site order, the fleet-wide
// alert last.
func TestAlertsInRuleThenSiteOrder(t *testing.T) {
	m := &telemetry.MetricsSnapshot{
		Counters: []telemetry.CounterValue{{Name: "lead", Value: 50}, {Name: "trail", Value: 10}},
		Gauges:   []telemetry.GaugeValue{{Name: "g", Value: 9}},
	}
	snap := &telemetry.FleetSnapshot{
		Sites:   []telemetry.SiteObservation{{Site: "a", Metrics: m}, {Site: "b", Metrics: m}},
		Metrics: m,
	}
	rules := []Rule{
		{Name: "gauge", Kind: RuleGauge, Metric: "g", Threshold: 1, FleetWide: true},
		{Name: "lag", Kind: RuleLag, Metric: "lead", Minus: "trail", Threshold: 1},
	}
	var got []string
	for _, a := range evaluate(rules, snap, nil, 0) {
		got = append(got, a.Rule+"/"+a.Site)
	}
	want := []string{"gauge/a", "gauge/b", "gauge/fleet", "lag/a", "lag/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alert order %v, want %v", got, want)
	}
}
