package bench

import (
	"reflect"
	"testing"
	"time"

	"obiwan/internal/netsim"
)

// failoverTinyConfig is one seed at minimal scale; the worlds run on the
// virtual clock, so this is fast regardless of the simulated profile.
func failoverTinyConfig() Config {
	return Config{
		Profile:       netsim.LAN10,
		FailoverSeeds: []int64{11},
		FailoverChain: 8,
		FailoverPuts:  4,
	}
}

func TestRunFailoverShape(t *testing.T) {
	cfg := failoverTinyConfig()
	points, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One elect point per seed plus the four steady-state means.
	if want := len(cfg.FailoverSeeds) + 4; len(points) != want {
		t.Fatalf("got %d points, want %d: %+v", len(points), want, points)
	}
	bySeries := map[string]Point{}
	for _, p := range points {
		bySeries[p.Series] = p
	}
	const electBound = 10 * time.Second
	if elect := bySeries["elect"]; elect.TotalMS <= 0 || elect.TotalMS > ms(electBound) {
		t.Fatalf("elect latency %vms outside (0, %v]", elect.TotalMS, electBound)
	}
	// The group's put pays a quorum round the single master doesn't:
	// strictly more simulated time and strictly more bytes on the wire.
	if g, s := bySeries["put group3"], bySeries["put single"]; g.TotalMS <= s.TotalMS || g.BytesSent <= s.BytesSent {
		t.Fatalf("group put (%vms, %dB) not dearer than single (%vms, %dB)",
			g.TotalMS, g.BytesSent, s.TotalMS, s.BytesSent)
	}
	for _, series := range []string{"demand single", "demand group3"} {
		if p := bySeries[series]; p.TotalMS <= 0 || p.RMICalls == 0 {
			t.Fatalf("%s: empty measurement %+v", series, p)
		}
	}
}

func TestRunFailoverDeterministic(t *testing.T) {
	cfg := failoverTinyConfig()
	run1, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1, run2) {
		t.Fatalf("same-seed rerun diverged:\nrun1: %+v\nrun2: %+v", run1, run2)
	}
}
