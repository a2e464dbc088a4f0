package swarm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
)

// TestChurnThousandSites is the harness's acceptance bar: 1,000 leaf
// sites, 60 simulated seconds of scheduled traffic under continuous
// kill/restart churn, with every fleet invariant intact. How long that
// takes on the wall is the runner's business: CI caps the job, the test
// asserts simulated time only.
func TestChurnThousandSites(t *testing.T) {
	o := Defaults(1)
	o.Sites = 1000
	o.Duration = 60 * time.Second
	o.MeanOpGap = 6 * time.Second
	o.KillEvery = 2 * time.Second

	report, _, err := Churn(o)
	if err != nil {
		t.Fatalf("churn: %v", err)
	}
	t.Log(report.Summary())
	if report.SimSeconds < 60 {
		t.Fatalf("simulated only %.1fs, want >= 60s", report.SimSeconds)
	}
	if report.Kills == 0 || report.Spawns != report.Kills {
		t.Fatalf("churn kills=%d spawns=%d, want equal and > 0", report.Kills, report.Spawns)
	}
	if report.PutsAcked == 0 {
		t.Fatal("no puts acked — the fleet did no work")
	}
}

// TestScenariosDeterministic is the determinism regression: each scenario
// run twice from the same seed yields byte-identical event streams (op log
// plus hub telemetry spans) and the same failover latency, and a different
// seed yields a different stream.
func TestScenariosDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) (*Report, []string, error)
		seed int64
		tune func(*Options)
	}{
		{"churn", Churn, 9, func(o *Options) {
			o.Sites, o.Duration, o.MeanOpGap, o.KillEvery = 500, 30*time.Second, 6*time.Second, 3*time.Second
		}},
		{"roam", Roam, 7, func(o *Options) {
			o.Sites, o.Duration, o.DisturbEvery, o.DisturbWindow = 120, 20*time.Second, 400*time.Millisecond, 1500*time.Millisecond
		}},
		{"rolling-partitions", RollingPartitions, 11, func(o *Options) {
			o.Sites, o.Duration, o.DisturbEvery, o.DisturbWindow = 200, 20*time.Second, 2*time.Second, 1200*time.Millisecond
		}},
		{"leader-failover", LeaderFailover, 17, func(o *Options) {
			o.Sites, o.DisturbEvery = 60, 3*time.Second
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamOf := func(seed int64) ([]string, float64) {
				t.Helper()
				o := Defaults(seed)
				tc.tune(&o)
				r, stream, err := tc.run(o)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(stream) == 0 {
					t.Fatal("empty event stream")
				}
				return stream, r.FailoverMS
			}
			stream1, failover1 := streamOf(tc.seed)
			stream2, failover2 := streamOf(tc.seed)
			if d := divergence(stream1, stream2); d != "" {
				t.Fatalf("same seed, streams diverge: %s", d)
			}
			if failover1 != failover2 {
				t.Fatalf("failover latency diverged: %.3fms vs %.3fms", failover1, failover2)
			}
			if stream3, _ := streamOf(tc.seed + 1); divergence(stream1, stream3) == "" {
				t.Fatal("different seeds produced identical streams — the seed is not reaching the scenario")
			}
		})
	}
}

// divergence describes where two streams first differ, or is "" when
// they are equal.
func divergence(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("at line %d:\nrun1: %s\nrun2: %s", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
	}
	return ""
}

// TestFlashCrowdCapacityReport: every leaf demands the same hot document
// at nearly the same instant; the capacity report is written as a JSON
// artifact and must rank the shared chain as the hottest objects.
func TestFlashCrowdCapacityReport(t *testing.T) {
	o := Defaults(5)
	o.Sites = 300
	o.Duration = 5 * time.Second
	o.MeanOpGap = time.Second

	report, _, err := FlashCrowd(o)
	if err != nil {
		t.Fatalf("flash crowd: %v", err)
	}
	t.Log(report.Summary())
	if len(report.HotObjects) == 0 {
		t.Fatal("capacity report has no hot objects")
	}
	if report.RMI.CallsServed == 0 || report.Links.Messages == 0 {
		t.Fatalf("capacity report shows no traffic: %+v", report.RMI)
	}

	dir := ReportDir(t.TempDir())
	path := filepath.Join(dir, "flash_crowd.json")
	if err := report.WriteJSON(path); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("artifact unreadable: %v", err)
	}
}

// TestRoamMobileFleet: leaves roam (disconnect, then come back on a
// degraded wireless link). Outage windows must produce typed
// unavailability only, and the fleet converges afterwards.
func TestRoamMobileFleet(t *testing.T) {
	o := Defaults(7)
	o.Sites = 120
	o.Duration = 20 * time.Second
	o.MeanOpGap = 2 * time.Second
	o.DisturbEvery = 400 * time.Millisecond
	o.DisturbWindow = 1500 * time.Millisecond

	report, _, err := Roam(o)
	if err != nil {
		t.Fatalf("roam: %v", err)
	}
	t.Log(report.Summary())
	if report.Links.Disconnected == 0 {
		t.Fatal("no sends were rejected while down — the roam windows never bit")
	}
}

// TestRollingPartitions: waves of partitions sweep residue classes of
// the fleet; the healthy remainder keeps working, and after the last
// heal everything converges.
func TestRollingPartitions(t *testing.T) {
	o := Defaults(11)
	o.Sites = 200
	o.Duration = 20 * time.Second
	o.MeanOpGap = 2 * time.Second
	o.DisturbEvery = 2 * time.Second
	o.DisturbWindow = 1200 * time.Millisecond

	report, _, err := RollingPartitions(o)
	if err != nil {
		t.Fatalf("rolling partitions: %v", err)
	}
	t.Log(report.Summary())
	if report.Links.Disconnected == 0 && report.Unavailable == 0 {
		t.Fatal("partitions never bit: no rejected sends and no unavailable ops")
	}
}

// TestLeaderFailoverFleet: the fleet runs against a 3-member hub master
// group whose leader is permanently killed mid-run. The survivors elect a
// successor within a bounded window, leaf traffic fails over
// transparently, and every invariant (exactly-once by agreed version,
// convergence, staleness bound) holds. The capacity report — with the
// measured failover latency — is written as a JSON artifact.
func TestLeaderFailoverFleet(t *testing.T) {
	o := Defaults(13)
	o.Sites = 120
	o.Duration = 12 * time.Second
	o.MeanOpGap = 2 * time.Second
	o.DisturbEvery = 3 * time.Second

	report, _, err := LeaderFailover(o)
	if err != nil {
		t.Fatalf("leader failover: %v", err)
	}
	t.Log(report.Summary())
	if report.HubGroup != 3 {
		t.Fatalf("hub group size %d, want 3", report.HubGroup)
	}
	if report.Kills != 1 {
		t.Fatalf("kills=%d, want exactly the hub leader", report.Kills)
	}
	if report.FailoverMS <= 0 || report.FailoverMS > 2000 {
		t.Fatalf("failover latency %.1fms, want bounded in (0, 2000]", report.FailoverMS)
	}
	if report.PutsAcked == 0 {
		t.Fatal("no puts acked across the failover")
	}

	dir := ReportDir(t.TempDir())
	path := filepath.Join(dir, "leader_failover.json")
	if err := report.WriteJSON(path); err != nil {
		t.Fatalf("write artifact: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("artifact unreadable: %v", err)
	}
}

// TestReportSpeedup runs two simulated minutes on a tiny fleet and checks
// the report accounts for them; the speedup over wall time is logged, not
// asserted.
func TestReportSpeedup(t *testing.T) {
	o := Defaults(3)
	o.Sites = 20
	o.Duration = 2 * time.Minute
	o.MeanOpGap = 10 * time.Second

	report, _, err := FlashCrowd(o)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	t.Log(report.Summary())
	if report.SimSeconds < 120 {
		t.Fatalf("simulated only %.1fs, want >= 120s", report.SimSeconds)
	}
	if report.Events == 0 {
		t.Fatal("no clock events recorded")
	}
	_ = netsim.VirtualBase // keep the import honest if asserts change
}

// TestReplicableMethodsCallDirect: every method of Doc takes invoke's typed
// call, registration having planned it; one that falls back to reflection
// is named.
func TestReplicableMethodsCallDirect(t *testing.T) {
	p, err := invoke.PlanOf(reflect.TypeFor[*Doc]())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Reflective(); len(r) > 0 {
		t.Fatalf("methods on the reflective path: %v", r)
	}
}
