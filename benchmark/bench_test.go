package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obiwan/internal/codec"
	"obiwan/internal/wire"
)

// The suite runs every workload, the traced run and the probes at the small
// size of table(true). It asserts counts, names and arithmetic; it never
// asserts a time.

func TestMain(m *testing.M) {
	if err := pinFrameSizes(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestQuartilesMatchPythonAndSummarisePicksTheQuietOne(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
	// extrapolates, cut stays inside the values.
	if q1, q2, q3 = quartiles([]float64{2, 1}); q1 != 1 || q2 != 1.5 || q3 != 2 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles(4) = %v %v %v", q1, q2, q3)
	}
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(20 - i)
	}
	if e := summarise(twenty, "1", middle); e.Value != 10.5 || e.Median != 10.5 || e.Q1 != 5.25 || e.Q3 != 15.75 || e.Blocks != 20 {
		t.Errorf("summarise(1..20, middle) = %+v, want the median 10.5 between 5.25 and 15.75", e)
	}
	// statistics.quantiles(range(1, 21), n=10) == [2.1, ..., 18.9]
	if e := summarise(twenty, "us", low); e.Value != 2.1 || e.Median != 10.5 || e.Q1 != 5.25 {
		t.Errorf("summarise(1..20, low) = %+v, want the lower decile 2.1 beside the median 10.5", e)
	}
	if e := summarise(twenty, "1/s", high); e.Value != 18.9 || e.Median != 10.5 || e.Q3 != 15.75 {
		t.Errorf("summarise(1..20, high) = %+v, want the upper decile 18.9 beside the median 10.5", e)
	}
	if e := summarise([]float64{7, 5, 6, 8}, "us", low); e.Value != 5 {
		t.Errorf("lower decile of four blocks = %v, want the lowest block, 5", e.Value)
	}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := spread(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	if got := percentile(hundred, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if got := percentile([]int64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v", got)
	}
}

func TestFrameHeaderMatchesWire(t *testing.T) {
	reg := codec.DefaultRegistry()
	call, err := wire.EncodeCall(reg, &wire.Call{ID: 300, Target: 77, Method: "Touch", Client: "c#1"})
	if err != nil {
		t.Fatal(err)
	}
	if ev := frameHeader(call); ev.kind != wire.KindCall || ev.id != 300 || ev.target != 77 || ev.bytes != len(call) {
		t.Errorf("call header = %+v", ev)
	}
	reply, err := wire.EncodeReply(reg, &wire.Reply{ID: 70000})
	if err != nil {
		t.Fatal(err)
	}
	if ev := frameHeader(reply); ev.kind != wire.KindReply || ev.id != 70000 {
		t.Errorf("reply header = %+v", ev)
	}
	if ev := frameHeader(wire.EncodeFault(&wire.Fault{ID: 9, Code: wire.FaultApp})); ev.kind != wire.KindFault || ev.id != 9 {
		t.Errorf("fault header = %+v", ev)
	}
	if ev := frameHeader(wire.EncodeHello()); ev.kind != wire.KindHello || ev.id != 0 {
		t.Errorf("hello header = %+v", ev)
	}
}

func TestSpecNamesTheProgramsWorkloadsAndLayerMetrics(t *testing.T) {
	spec := readSpec(t)
	ws := table(false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the program", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	spec := readSpec(t)
	for _, w := range table(true) {
		t.Run(w.name, func(t *testing.T) {
			first, err := endToEnd(w, newConfig(w, 7), 0)
			if err != nil {
				t.Fatal(err)
			}
			second, err := endToEnd(w, newConfig(w, 7), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 || first.Attempted == 0 || first.exitCode() != 0 {
				t.Fatalf("attempted %d, failed %d, correct %v", first.Attempted, first.Failed, first.Correct)
			}
			if len(first.Metrics) != len(spec.EndToEnd) {
				t.Errorf("the run printed %d metrics, BENCHMARK.json lists %d", len(first.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				e, ok := first.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s is not printed", m.Name)
				case e.Unit != m.Unit:
					t.Errorf("%s is in %q, BENCHMARK.json says %q", m.Name, e.Unit, m.Unit)
				case math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || e.Value <= 0:
					t.Errorf("%s = %v", m.Name, e.Value)
				}
			}
			for _, name := range []string{"op_p99_us", "failed_ops_pct", "peak_rss_mb"} {
				if e, ok := first.Info[name]; !ok || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
					t.Errorf("%s = %+v (printed: %v)", name, e, ok)
				}
			}
			if _, ok := first.Info["payload_MBps"]; ok != (w.payloadPerOp() > 0) {
				t.Errorf("payload_MBps printed: %v, payload per op %d B", ok, w.payloadPerOp())
			}
			a, b := first.Metrics["wire_bytes_per_op"].Value, second.Metrics["wire_bytes_per_op"].Value
			if a != b {
				t.Errorf("wire_bytes_per_op differs between two runs with one seed: %v and %v", a, b)
			}
			a, b = first.Metrics["allocs_per_op"].Value, second.Metrics["allocs_per_op"].Value
			if math.Abs(a-b)/a > 0.01 {
				t.Errorf("allocs_per_op differs by more than 1 %% between two runs with one seed: %v and %v", a, b)
			}

			var out bytes.Buffer
			printResult(&out, first)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("the last line is not a JSON object: %v", err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("the last line's keys are not correct, attempted, failed, metrics: %s", lines[len(lines)-1])
			}
		})
	}
}

func TestTracedWindowsSumToTheOpsSpan(t *testing.T) {
	for _, w := range table(true) {
		t.Run(w.name, func(t *testing.T) {
			cfg := newConfig(w, 7)
			cfg.traced = true
			b, err := runBlock(w, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if b.failed != 0 {
				t.Fatalf("%d ops failed", b.failed)
			}
			if 50*b.unmatched > b.ops {
				t.Errorf("%d of %d ops unmatched: more than 2 %%", b.unmatched, b.ops)
			}
			if len(b.matched)+b.unmatched != b.ops {
				t.Errorf("%d matched + %d unmatched ops, %d run", len(b.matched), b.unmatched, b.ops)
			}
			if len(b.callFrame) == 0 || len(b.replyFrame) == 0 {
				t.Error("no frames captured for the probes")
			}
			for _, m := range b.matched {
				o := m.windows()
				sum := o.pre + o.sendC + o.flightCS + o.server + o.sendS + o.flightSC + o.mid + o.post
				if sum != o.total || o.total != m.op.end-m.op.start {
					t.Fatalf("windows sum to %d ns, the op took %d ns", sum, o.total)
				}
				if o.frames != 2*len(m.calls) || o.bytes <= 0 {
					t.Fatalf("%d frames and %d bytes for %d calls", o.frames, o.bytes, len(m.calls))
				}
				children := m.spans(0, w.name)
				if len(children) != 1+5*len(m.calls) || children[0].Parent != "" || children[1].Parent != w.name {
					t.Fatalf("spans of an op with %d calls: %+v", len(m.calls), children)
				}
			}
		})
	}
}

func TestEveryWorkloadPerLayer(t *testing.T) {
	for _, w := range table(true) {
		t.Run(w.name, func(t *testing.T) {
			var spans bytes.Buffer
			res, err := perLayer(w, 7, 0, &spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, m := range perLayerMetrics {
				e, ok := res.Metrics[m.name]
				if !ok || e.Unit != m.unit || math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
					t.Errorf("%s = %+v (printed: %v)", m.name, e, ok)
				}
			}
			if got := res.Metrics["transport.frames_per_op"].Value; got != 2 {
				t.Errorf("transport.frames_per_op = %v, want one call and one reply", got)
			}
			var first outSpan
			if err := json.NewDecoder(&spans).Decode(&first); err != nil || first.Name != w.name || first.End <= first.Start {
				t.Errorf("first span written = %+v, %v", first, err)
			}
		})
	}
}

func TestCorruptedPutFailsTheRun(t *testing.T) {
	w := findWorkload(table(true), "edit_put4k")
	cfg := newConfig(w, 7)
	cfg.corruptPut = true
	res, err := endToEnd(w, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct || !(res.Info["failed_ops_pct"].Value > 0) {
		t.Errorf("failed %d, correct %v, failed_ops_pct %v", res.Failed, res.Correct, res.Info["failed_ops_pct"].Value)
	}
	if res.exitCode() == 0 {
		t.Error("a run with failed ops exits 0")
	}
}

func TestCompareJudgesAgainstTheBounds(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1},{"name":"rate","unit":"1/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"layer.x","unit":"ns"}]}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// run is one run's figures: lat and rate as BENCHMARK.json-listed
	// metrics (a zero leaves the metric out), mbps and failed as Info.
	type run struct {
		lat, rate, mbps float64
		failed          int
	}
	write := func(name, workload string, runs ...run) string {
		path := filepath.Join(dir, name)
		for _, r := range runs {
			res := &result{Workload: workload, Failed: r.failed, Metrics: map[string]estimate{}, Info: map[string]estimate{}}
			if r.lat != 0 {
				res.Metrics["lat"] = single(r.lat, "us")
			}
			if r.rate != 0 {
				res.Metrics["rate"] = single(r.rate, "1/s")
			}
			if r.mbps != 0 {
				res.Info["payload_MBps"] = single(r.mbps, "MB/s")
			}
			res.Info["failed_ops_pct"] = single(float64(r.failed), "%")
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base", "w", run{lat: 100, rate: 50, mbps: 10}, run{lat: 101, rate: 50, mbps: 10}, run{lat: 102, rate: 51, mbps: 10})
	for _, c := range []struct {
		name string
		b    string
		code int
		want string // a row that must be printed, as "metric ... verdict"
	}{
		{"within the bounds", write("same", "w", run{lat: 104, rate: 49, mbps: 10}, run{lat: 105, rate: 48, mbps: 10}, run{lat: 106, rate: 49, mbps: 10}), 0, "lat PASS"},
		{"slower", write("slow", "w", run{lat: 120, rate: 50, mbps: 10}, run{lat: 121, rate: 50, mbps: 10}), 1, "lat FAIL"},
		{"lower rate", write("fewer", "w", run{lat: 100, rate: 40, mbps: 10}, run{lat: 101, rate: 41, mbps: 10}), 1, "rate FAIL"},
		{"noisy", write("noisy", "w", run{lat: 80, rate: 50, mbps: 10}, run{lat: 100, rate: 50, mbps: 10}, run{lat: 130, rate: 51, mbps: 10}), 1, "lat NOISY"},
		{"a listed metric is missing", write("nolat", "w", run{rate: 50, mbps: 10}), 1, "lat FAIL"},
		{"the workload is missing", write("other", "v", run{lat: 100, rate: 50, mbps: 10}), 1, "rate FAIL"},
		{"payload_MBps fell", write("mbps", "w", run{lat: 100, rate: 50, mbps: 7}), 1, "payload_MBps FAIL"},
		{"payload_MBps is gone", write("nombps", "w", run{lat: 100, rate: 50}), 1, "payload_MBps FAIL"},
		{"ops failed", write("failed", "w", run{lat: 100, rate: 50, mbps: 10, failed: 3}), 1, "failed_ops_pct FAIL"},
	} {
		var out, errs bytes.Buffer
		code := compareFiles(&out, &errs, spec, base, c.b)
		metric, verdict, _ := strings.Cut(c.want, " ")
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric && f[len(f)-1] == verdict {
				found = true
			}
		}
		if code != c.code || !found {
			t.Errorf("%s: exit %d, want %d and a %q row\n%s%s", c.name, code, c.code, c.want, out.String(), errs.String())
		}
	}
}
