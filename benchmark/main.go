// Command benchmark is the repository's wall-clock benchmark: a master site
// and mobile sites built through the obiwan facade over real TCP on
// 127.0.0.1, driven by five closed-loop workloads, measured end to end
// (-trace 0) and layer by layer (-trace 1). README.md defines every
// workload and metric; BENCHMARK.json, at the repository root, fixes their
// names, units and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"obiwan"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is one workload's run. The last line of standard output is its
// four contract keys; -out files carry the rest too.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     int                 `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]estimate `json:"metrics"`
	// Info holds the figures BENCHMARK.json does not list: op_p99_us,
	// payload_MBps and failed_ops_pct, which -compare still judges (see
	// alsoGated), and peak_rss_mb.
	Info map[string]estimate `json:"info,omitempty"`
}

// exitCode is the process status the run earns: 1 when an op failed or a
// check found wrong bytes.
func (r *result) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all five, one after another")
	seed := fs.Int64("seed", 1, "seed of the payload bytes and edit offsets")
	seconds := fs.Float64("seconds", 10, "how long each workload measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run and the layer probes")
	traceOut := fs.String("trace-out", "", "with -trace 1: write every span as a JSON line to this file")
	out := fs.String("out", "", "append each workload's result as a JSON line to this file, the input of -compare")
	compare := fs.Bool("compare", false, "compare two -out files against the bounds in ./BENCHMARK.json: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	workloads := table(false)
	if *name != "" {
		w := findWorkload(workloads, *name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		workloads = []*workload{w}
	}
	var spans io.Writer
	if *traceOut != "" && *trace == 1 {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		spans = f
	}
	if err := pinFrameSizes(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	runtime.GOMAXPROCS(procs)
	code := 0
	for _, w := range workloads {
		var res *result
		var err error
		if *trace == 1 {
			res, err = perLayer(w, *seed, *seconds, spans)
		} else {
			res, err = endToEnd(w, newConfig(w, *seed), *seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if c := res.exitCode(); c != 0 {
			code = c
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		printResult(stdout, res)
	}
	return code
}

// pinFrameSizes makes every call frame of a run the same size. A frame
// carries its client's identity, which ends in a process-wide count of the
// runtimes started so far, so frames would grow by a byte at a run's 10th
// and 100th site, and wire_bytes_per_op would depend on how many blocks the
// run had time for. Starting the count at four digits keeps it at four.
func pinFrameSizes() error {
	network := obiwan.NewMemNetwork(obiwan.LinkProfile{Name: "zero"})
	for i := 0; i < 1000; i++ {
		rt, err := obiwan.NewRuntime(network, "pin")
		if err != nil {
			return err
		}
		if err := rt.Close(); err != nil {
			return err
		}
	}
	return nil
}

// procs is the GOMAXPROCS of every run. With one P a call's goroutines hand
// over to each other inside the Go scheduler; with two, every hop parks and
// wakes an OS thread, which on the 2-vCPU reference host makes the ops of a
// single caller 1.2 to 2.4 times slower and the spread over ten runs 15 to
// 35 % (README.md has the measurements). The two callers of rmi_null_x2
// therefore interleave on one P: they contend for the client's locks but
// cannot run in parallel.
const procs = 1

// minBlocks is the fewest blocks a run measures, however short -seconds is:
// quartiles across blocks need a few.
const minBlocks = 4

// measureBlocks runs blocks of w until the time is up, discards the first
// as warm-up, and returns the rest. Failures in the warm-up block count.
func measureBlocks(w *workload, cfg *config, seconds float64) (blocks []*blockResult, attempted, failed int, err error) {
	deadline := now() + int64(seconds*1e9)
	for i := 0; i <= minBlocks || now() < deadline; i++ {
		b, err := runBlock(w, cfg, i)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted += b.ops
		failed += b.failed
		if i > 0 {
			blocks = append(blocks, b)
		}
	}
	return blocks, attempted, failed, nil
}

// perBlock maps every block to one figure.
func perBlock(blocks []*blockResult, f func(*blockResult) float64) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = f(b)
	}
	return out
}

func (b *blockResult) perOp(total float64) float64 { return total / float64(b.ops) }

// endToEnd is the -trace 0 run: the workload's blocks on bare TCP. Every
// metric is computed per block; a time reports the lower decile across
// blocks, a rate the upper one, a count and the set-up time the median.
func endToEnd(w *workload, cfg *config, seconds float64) (*result, error) {
	blocks, attempted, failed, err := measureBlocks(w, cfg, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]estimate{}, Info: map[string]estimate{}}
	metric := func(unit string, p pick, f func(*blockResult) float64) estimate {
		return summarise(perBlock(blocks, f), unit, p)
	}
	opsPerS := func(b *blockResult) float64 { return float64(b.ops) / (float64(b.delta.t) / 1e9) }
	m := res.Metrics
	m["setup_s"] = metric("s", middle, func(b *blockResult) float64 { return float64(b.setupNS) / 1e9 })
	m["op_p50_us"] = metric("us", low, func(b *blockResult) float64 { return b.p50NS / 1e3 })
	m["ops_per_s"] = metric("1/s", high, opsPerS)
	m["cpu_us_per_op"] = metric("us", low, func(b *blockResult) float64 { return b.perOp(float64(b.delta.cpu) / 1e3) })
	m["lmi_ns"] = metric("ns", low, func(b *blockResult) float64 { return b.lmiNS })
	m["allocs_per_op"] = metric("1", middle, func(b *blockResult) float64 { return b.perOp(float64(b.delta.mallocs)) })
	m["alloc_bytes_per_op"] = metric("B", middle, func(b *blockResult) float64 { return b.perOp(float64(b.delta.allocBytes)) })
	m["wire_bytes_per_op"] = metric("B", middle, func(b *blockResult) float64 { return b.perOp(float64(b.wireBytes)) })
	m["live_heap_mb"] = metric("MB", middle, func(b *blockResult) float64 { return b.liveHeapMB })

	res.Info["op_p99_us"] = metric("us", low, func(b *blockResult) float64 { return b.p99NS / 1e3 })
	if blocks[0].lat != nil {
		// Too few ops in a block to have ten beyond its p99: take the
		// percentile over the whole run's ops.
		var pooled []int64
		for _, b := range blocks {
			pooled = append(pooled, b.lat...)
		}
		sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
		res.Info["op_p99_us"] = single(percentile(pooled, 99)/1e3, "us")
	}
	if per := w.payloadPerOp(); per > 0 {
		res.Info["payload_MBps"] = metric("MB/s", high, func(b *blockResult) float64 { return opsPerS(b) * float64(per) / 1e6 })
	}
	res.Info["failed_ops_pct"] = single(100*float64(failed)/float64(attempted), "%")
	res.Info["peak_rss_mb"] = single(peakRSSMB(), "MB")
	return res, nil
}

// perLayer is the -trace 1 run. Its first part interleaves three variants
// of the workload's block: bare (as the end-to-end run), without telemetry,
// and traced; the differences between them are the telemetry's and the
// trace's own cost. Its second part runs the layer probes on the frames the
// traced blocks captured.
func perLayer(w *workload, seed int64, seconds float64, spans io.Writer) (*result, error) {
	bare := newConfig(w, seed)
	bare.retention = true
	notel := *bare
	notel.siteOpts = []obiwan.SiteOption{obiwan.WithoutTelemetry()}
	traced := *bare
	traced.traced = true
	variants := []*config{bare, &notel, &traced}
	blocks := make([][]*blockResult, len(variants))

	res := &result{Workload: w.name, Seed: seed, Trace: 1, Metrics: map[string]estimate{}}
	// Three quarters of the time go to the blocks; the probes, whose length
	// is fixed by their iteration counts, fit in the rest.
	deadline := now() + int64(seconds*1e9*3/4)
	for round := 0; round < 2 || now() < deadline; round++ {
		for v, cfg := range variants {
			b, err := runBlock(w, cfg, round)
			if err != nil {
				return nil, err
			}
			res.Attempted += b.ops
			res.Failed += b.failed
			if round > 0 {
				blocks[v] = append(blocks[v], b)
			}
		}
	}
	res.Correct = res.Failed == 0

	m := map[string]float64{}
	// Block medians are compared across the variants as the end-to-end run
	// reports them: by their quiet decile.
	p50 := func(bs []*blockResult) float64 {
		return summarise(perBlock(bs, func(b *blockResult) float64 { return b.p50NS / 1e3 }), "us", low).Value
	}
	allocs := func(bs []*blockResult) float64 {
		return median(perBlock(bs, func(b *blockResult) float64 { return b.perOp(float64(b.delta.mallocs)) }))
	}
	barePerOp := func(f func(*blockResult) float64) float64 {
		return median(perBlock(blocks[0], func(b *blockResult) float64 { return b.perOp(f(b)) }))
	}
	bareP50 := p50(blocks[0])
	m["site.trace_overhead_pct"] = 100 * (p50(blocks[2])/bareP50 - 1)
	m["telemetry.overhead_us"] = bareP50 - p50(blocks[1])
	m["telemetry.allocs_per_op"] = allocs(blocks[0]) - allocs(blocks[1])
	m["replication.proxy_pairs_per_op"] = barePerOp(func(b *blockResult) float64 { return float64(b.proxyPairs) })
	m["transport.write_syscalls_per_op"] = barePerOp(func(b *blockResult) float64 { return float64(b.delta.syscw) })
	m["transport.read_syscalls_per_op"] = barePerOp(func(b *blockResult) float64 { return float64(b.delta.syscr) })
	m["rmi.retained_mb_per_client"] = median(perBlock(blocks[0], func(b *blockResult) float64 { return b.retainedMB }))

	var windows []opWindows
	var callFrame, replyFrame []byte
	unmatched, opID := 0, 0
	var enc *json.Encoder
	if spans != nil {
		enc = json.NewEncoder(spans)
	}
	for _, b := range blocks[2] {
		unmatched += b.unmatched
		if b.callFrame != nil {
			callFrame, replyFrame = b.callFrame, b.replyFrame
		}
		for _, op := range b.matched {
			windows = append(windows, op.windows())
			if enc != nil {
				for _, s := range op.spans(opID, w.name) {
					if err := enc.Encode(s); err != nil {
						return nil, err
					}
				}
			}
			opID++
		}
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("the trace matched none of %d ops", unmatched)
	}
	win := func(f func(opWindows) int64) float64 {
		vals := make([]float64, len(windows))
		for i, ow := range windows {
			vals[i] = float64(f(ow))
		}
		return median(vals)
	}
	us := func(f func(opWindows) int64) float64 { return win(f) / 1e3 }
	m["trace.unmatched_ops"] = float64(unmatched)
	m["site.op_us"] = us(func(o opWindows) int64 { return o.total })
	m["replication.client_pre_us"] = us(func(o opWindows) int64 { return o.pre })
	m["replication.client_post_us"] = us(func(o opWindows) int64 { return o.mid + o.post })
	m["rmi.server_window_us"] = us(func(o opWindows) int64 { return o.server })
	m["transport.send_us"] = us(func(o opWindows) int64 { return o.sendC + o.sendS })
	m["transport.flight_us"] = us(func(o opWindows) int64 { return o.flightCS + o.flightSC })
	m["transport.frames_per_op"] = win(func(o opWindows) int64 { return int64(o.frames) })
	m["transport.bytes_per_op"] = win(func(o opWindows) int64 { return int64(o.bytes) })

	probes, err := runProbes(w, bare, callFrame, replyFrame)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	m["site.facade_overhead_us"] = bareP50 - m["rmi.call_tcp_us"]

	for _, pm := range perLayerMetrics {
		v, ok := m[pm.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
		res.Metrics[pm.name] = single(v, pm.unit)
	}
	return res, nil
}

// layerMetric names one per-layer metric, as BENCHMARK.json lists it.
type layerMetric struct{ name, unit string }

// perLayerMetrics is every metric of a -trace 1 run, in report order.
var perLayerMetrics = []layerMetric{
	{"site.op_us", "us"}, {"site.trace_overhead_pct", "%"}, {"site.facade_overhead_us", "us"},
	{"telemetry.overhead_us", "us"}, {"telemetry.allocs_per_op", "1"},
	{"replication.client_pre_us", "us"}, {"replication.client_post_us", "us"}, {"replication.proxy_pairs_per_op", "1"},
	{"replication.capture_us", "us"}, {"replication.restore_us", "us"},
	{"replication.demand_mem_us", "us"}, {"replication.put_mem_us", "us"},
	{"heap.add_replica_ns", "ns"}, {"heap.traverse_ns_per_obj", "ns"},
	{"objmodel.lmi_ns", "ns"}, {"objmodel.lmi_allocs", "1"},
	{"invoke.call_ns", "ns"}, {"invoke.call_allocs", "1"},
	{"rmi.server_window_us", "us"}, {"rmi.call_tcp_us", "us"}, {"rmi.call_mem_us", "us"}, {"rmi.call_allocs", "1"},
	{"rmi.retained_mb_per_client", "MB"},
	{"wire.encode_call_ns", "ns"}, {"wire.decode_call_ns", "ns"}, {"wire.encode_reply_ns", "ns"}, {"wire.decode_reply_ns", "ns"},
	{"wire.allocs_per_frame", "1"}, {"wire.alloc_bytes_per_byte", "1"},
	{"codec.encode_struct_ns", "ns"}, {"codec.decode_struct_ns", "ns"}, {"codec.encode_allocs", "1"}, {"codec.decode_allocs", "1"},
	{"codec.alloc_bytes_per_byte", "1"},
	{"transport.send_us", "us"}, {"transport.flight_us", "us"}, {"transport.frames_per_op", "1"}, {"transport.bytes_per_op", "B"},
	{"transport.write_syscalls_per_op", "1"}, {"transport.read_syscalls_per_op", "1"},
	{"transport.tcp_echo_us", "us"}, {"transport.mem_echo_us", "us"}, {"transport.allocs_per_frame", "1"},
	{"trace.unmatched_ops", "count"},
}

// printResult writes the workload's metrics as a table for the reader and,
// as the last line, the JSON object the driver reads.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  attempted %d  failed %d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	table := func(ms map[string]estimate) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			e := ms[k]
			fmt.Fprintf(w, "  %-34s %14.4f %-5s", k, e.Value, e.Unit)
			if e.Blocks > 1 {
				fmt.Fprintf(w, "  median %.4f  quartiles %.4f .. %.4f  blocks %d", e.Median, e.Q1, e.Q3, e.Blocks)
			}
			fmt.Fprintln(w)
		}
	}
	table(res.Metrics)
	table(res.Info)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for k, e := range res.Metrics {
		last.Metrics[k] = metric{e.Value, e.Unit}
	}
	line, _ := json.Marshal(last) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
