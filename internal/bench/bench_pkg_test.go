package bench

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/replication"
)

// tinyConfig keeps the unit tests fast: loopback link, short lists.
func tinyConfig() Config {
	return Config{
		Profile:     netsim.Loopback,
		ListLen:     20,
		Sizes:       []int{64},
		Steps:       []int{1, 5, 20},
		Fig4Sizes:   []int{64},
		Invocations: []int{1, 10},
		TreeDepth:   3,
	}
}

func TestRunTable1Shape(t *testing.T) {
	points, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	var lmi, rmiSmall, rmiBig float64
	for _, p := range points {
		switch p.Series {
		case "LMI":
			lmi = p.PerOpUS
		case "RMI 64B":
			rmiSmall = p.PerOpUS
		case "RMI 64KB":
			rmiBig = p.PerOpUS
		}
	}
	if lmi <= 0 || rmiSmall <= 0 || rmiBig <= 0 {
		t.Fatalf("missing series: %+v", points)
	}
	// LMI per call must be far below RMI per call even on loopback.
	if lmi >= rmiSmall {
		t.Fatalf("LMI %.1fus should beat RMI %.1fus", lmi, rmiSmall)
	}
	// RMI must be independent of object size (well within 10x even with
	// scheduler noise; the paper reports exactly equal).
	if rmiBig > rmiSmall*10 || rmiSmall > rmiBig*10 {
		t.Fatalf("RMI size dependence: 64B=%.1fus 64KB=%.1fus", rmiSmall, rmiBig)
	}
}

func TestRunFig4Shape(t *testing.T) {
	points, err := RunFig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 RMI points (1, 10 invocations) + 2 LMI points.
	if len(points) != 4 {
		t.Fatalf("points: %d: %+v", len(points), points)
	}
	// RMI total must grow with invocation count.
	var rmi1, rmi10 float64
	for _, p := range points {
		if p.Series == "RMI" {
			if p.X == 1 {
				rmi1 = p.TotalMS
			} else {
				rmi10 = p.TotalMS
			}
		}
	}
	if rmi10 <= rmi1 {
		t.Fatalf("RMI not growing: 1→%.3fms 10→%.3fms", rmi1, rmi10)
	}
}

func TestRunFig5AndFig6Shape(t *testing.T) {
	cfg := tinyConfig()
	f5, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != len(cfg.Sizes)*len(cfg.Steps) || len(f6) != len(f5) {
		t.Fatalf("point counts: %d %d", len(f5), len(f6))
	}
	for i := range f5 {
		if f5[i].Step != f6[i].Step {
			t.Fatalf("step mismatch at %d", i)
		}
		// Non-clustered exports one proxy-in per object; clustered one per
		// cluster plus nothing extra.
		if f5[i].ProxyPairs != uint64(cfg.ListLen) {
			t.Fatalf("fig5 step=%d proxy pairs %d, want %d", f5[i].Step, f5[i].ProxyPairs, cfg.ListLen)
		}
		wantClusters := uint64((cfg.ListLen + f6[i].Step - 1) / f6[i].Step)
		if f6[i].ProxyPairs != wantClusters {
			t.Fatalf("fig6 step=%d proxy pairs %d, want %d", f6[i].Step, f6[i].ProxyPairs, wantClusters)
		}
		// Clustering must not send more bytes than per-object proxies.
		if f6[i].BytesSent > f5[i].BytesSent {
			t.Fatalf("step=%d clustered bytes %d > per-object %d",
				f5[i].Step, f6[i].BytesSent, f5[i].BytesSent)
		}
	}
	// RMI call count halves as the step doubles: walk/step demands.
	for _, p := range f5 {
		want := uint64(cfg.ListLen / p.Step)
		if p.RMICalls != want {
			t.Fatalf("step=%d rmi calls %d, want %d", p.Step, p.RMICalls, want)
		}
	}
}

func TestRunFig5Curve(t *testing.T) {
	cfg := tinyConfig()
	points, err := RunFig5Curve(cfg, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 20 { // a sample every twentieth of the list
		t.Fatalf("curve points: %d", len(points))
	}
	// Cumulative time is non-decreasing.
	for i := 1; i < len(points); i++ {
		if points[i].TotalMS < points[i-1].TotalMS {
			t.Fatalf("cumulative time regressed at %d", i)
		}
	}
}

func TestRunAblations(t *testing.T) {
	cfg := tinyConfig()
	mode, err := RunAblationMode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mode) != 8 { // 4 strategies × (first use, full walk)
		t.Fatalf("mode points: %d", len(mode))
	}
	depth, err := RunAblationDepth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(depth) != 6 {
		t.Fatalf("depth points: %d", len(depth))
	}
	v, err := RunFig5v6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 4 { // steps {5,20} × {per-object, clustered}
		t.Fatalf("fig5v6 points: %d", len(v))
	}
	auto, err := RunAutoCrossover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != 3 {
		t.Fatalf("auto points: %d", len(auto))
	}
	// Auto must replicate after the crossover: strictly fewer RMI calls
	// than pure remote.
	var remote, autoCalls uint64
	for _, p := range auto {
		switch p.Series {
		case "remote":
			remote = p.RMICalls
		case "auto":
			autoCalls = p.RMICalls
		}
	}
	if autoCalls >= remote {
		t.Fatalf("auto rmi calls %d, remote %d", autoCalls, remote)
	}
}

func TestWalkListTooShort(t *testing.T) {
	err := deploy(netsim.Loopback, false, func(e *env) error {
		ref, err := e.list(3, 8, replication.DefaultSpec)
		if err != nil {
			t.Fatal(err)
		}
		return walkList(ref, 10, nil)
	})
	if err == nil {
		t.Fatal("walk past the end must error")
	}
}

func TestOutputRendering(t *testing.T) {
	points := []Point{{
		Experiment: "fig5", Series: "64B step=1", Size: 64, Step: 1,
		X: 1, TotalMS: 12.5, PerOpUS: 12.5, RMICalls: 3, BytesSent: 100, ProxyPairs: 5,
	}}
	var buf bytes.Buffer
	WritePoints(&buf, points)
	out := buf.String()
	if !strings.Contains(out, "fig5") || !strings.Contains(out, "64B step=1") {
		t.Fatalf("table output: %q", out)
	}
	buf.Reset()
	WriteCSV(&buf, points)
	if !strings.Contains(buf.String(), "fig5,64B step=1,64,1") {
		t.Fatalf("csv output: %q", buf.String())
	}
}

func TestSizeLabel(t *testing.T) {
	for size, want := range map[int]string{
		64:        "64B",
		1024:      "1KB",
		16 * 1024: "16KB",
		1500:      "1500B",
	} {
		if got := sizeLabel(size); got != want {
			t.Fatalf("%d: %q want %q", size, got, want)
		}
	}
}

func TestBuildTreeCounts(t *testing.T) {
	var n int
	err := deploy(netsim.Loopback, false, func(e *env) (err error) {
		_, n, err = e.buildTree(4, 8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 { // complete binary tree of depth 4
		t.Fatalf("tree nodes: %d", n)
	}
}

func TestRunPrefetchShape(t *testing.T) {
	cfg := tinyConfig()
	points, err := RunPrefetch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	var walk, prefetched float64
	for _, p := range points {
		switch p.Series {
		case "walk":
			walk = p.TotalMS
		case "walk+prefetch":
			prefetched = p.TotalMS
		}
		if p.RMICalls != uint64(cfg.ListLen) {
			t.Fatalf("rmi calls: %d", p.RMICalls)
		}
	}
	if walk <= 0 || prefetched <= 0 {
		t.Fatalf("series missing: %+v", points)
	}
}

// TestReplicableMethodsCallDirect: every method of Node takes invoke's typed
// call, registration having planned it; one that falls back to reflection
// is named.
func TestReplicableMethodsCallDirect(t *testing.T) {
	p, err := invoke.PlanOf(reflect.TypeFor[*Node]())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Reflective(); len(r) > 0 {
		t.Fatalf("methods on the reflective path: %v", r)
	}
}

// TestPaperBaselineHolds: the paper's figures run on the virtual clock, so
// a full-scale rerun reproduces every figure of the checked-in
// BENCH_paper.json exactly.
func TestPaperBaselineHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale rerun of the paper's figures")
	}
	baseline, err := LoadBaseline("../../BENCH_paper.json")
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Check(baseline, DefaultConfig(), 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		t.Error(r)
	}
}
