package obiwan

// Benchmarks regenerating the paper's evaluation (§4) under testing.B.
// Each benchmark corresponds to one table or figure; the full paper-scale
// sweeps (1000-object lists, all sizes and steps) are produced by
// cmd/obiwan-bench — these testing.B variants run the same code paths at
// reduced scale so `go test -bench=.` finishes in minutes on the
// calibrated LAN profile.
//
// Reported custom metrics: ms/walk (wall time per full experiment unit),
// rmi/op (remote calls), proxypairs (proxy-ins exported at the master).

import (
	"fmt"
	"testing"

	"obiwan/internal/bench"
	"obiwan/internal/netsim"
	"obiwan/internal/raceflag"
	"obiwan/internal/replication"
)

// benchCfg is the reduced-scale configuration used by all testing.B runs.
func benchCfg() bench.Config {
	cfg := bench.QuickConfig()
	cfg.Profile = netsim.LAN10
	return cfg
}

// BenchmarkTable1_LMI measures the per-invocation cost of a local method
// invocation on a replica (paper: ≈2 µs on a Pentium II JVM).
func BenchmarkTable1_LMI(b *testing.B) {
	network := NewMemNetwork(LAN10)
	server, err := NewSite("s2", network)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := NewSite("s1", network)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	obj := &benchDoc{Payload: make([]byte, 64)}
	d, err := server.Export(obj)
	if err != nil {
		b.Fatal(err)
	}
	ref := client.Engine().RefFromDescriptor(d, DefaultSpec)
	if _, err := ref.Resolve(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("Touch"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_RMI measures the per-invocation cost of a remote method
// invocation on the calibrated 10 Mb/s LAN (paper: ≈2.8 ms).
func BenchmarkTable1_RMI(b *testing.B) {
	network := NewMemNetwork(LAN10)
	server, err := NewSite("s2", network)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := NewSite("s1", network)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	obj := &benchDoc{Payload: make([]byte, 64)}
	d, err := server.Export(obj)
	if err != nil {
		b.Fatal(err)
	}
	ref := client.Engine().RefFromDescriptor(d, DefaultSpec)
	ref.SetMode(ModeRemote)
	if _, err := ref.Invoke("Touch"); err != nil { // connection warm-up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("Touch"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDoc is the root-level benchmark object.
type benchDoc struct {
	Payload []byte
}

func (d *benchDoc) Touch() int { return len(d.Payload) }

func init() {
	MustRegisterType("obiwan.bench.doc", (*benchDoc)(nil))
}

// BenchmarkFig4_RMI regenerates the figure-4 RMI series: total cost of n
// invocations, independent of object size.
func BenchmarkFig4_RMI(b *testing.B) {
	cfg := benchCfg()
	for _, n := range cfg.Invocations {
		b.Run(fmt.Sprintf("inv=%d", n), func(b *testing.B) {
			cfgN := cfg
			cfgN.Invocations = []int{n}
			cfgN.Fig4Sizes = nil // RMI series only
			for i := 0; i < b.N; i++ {
				points, err := bench.RunFig4(cfgN)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].TotalMS, "ms/total")
			}
		})
	}
}

// BenchmarkFig4_LMI regenerates the figure-4 LMI series: replica creation
// + n local invocations + put-back, per object size.
func BenchmarkFig4_LMI(b *testing.B) {
	cfg := benchCfg()
	for _, size := range cfg.Fig4Sizes {
		for _, n := range cfg.Invocations {
			b.Run(fmt.Sprintf("size=%d/inv=%d", size, n), func(b *testing.B) {
				cfgN := cfg
				cfgN.Fig4Sizes = []int{size}
				cfgN.Invocations = []int{n}
				for i := 0; i < b.N; i++ {
					points, err := bench.RunFig4(cfgN)
					if err != nil {
						b.Fatal(err)
					}
					// points[0] is the RMI baseline, points[1] the LMI run.
					b.ReportMetric(points[len(points)-1].TotalMS, "ms/total")
				}
			})
		}
	}
}

// BenchmarkFig5_Incremental regenerates figure 5: walking the list with
// per-object proxy pairs, one sub-benchmark per (size, step).
func BenchmarkFig5_Incremental(b *testing.B) {
	benchmarkListWalk(b, false)
}

// BenchmarkFig6_Clustered regenerates figure 6: the same walk with one
// proxy pair per cluster.
func BenchmarkFig6_Clustered(b *testing.B) {
	benchmarkListWalk(b, true)
}

func benchmarkListWalk(b *testing.B, clustered bool) {
	cfg := benchCfg()
	runner := bench.RunFig5
	if clustered {
		runner = bench.RunFig6
	}
	for _, size := range cfg.Sizes {
		for _, step := range cfg.Steps {
			b.Run(fmt.Sprintf("size=%d/step=%d", size, step), func(b *testing.B) {
				cfgN := cfg
				cfgN.Sizes = []int{size}
				cfgN.Steps = []int{step}
				for i := 0; i < b.N; i++ {
					points, err := runner(cfgN)
					if err != nil {
						b.Fatal(err)
					}
					p := points[0]
					b.ReportMetric(p.TotalMS, "ms/walk")
					b.ReportMetric(float64(p.RMICalls), "rmi/walk")
					b.ReportMetric(float64(p.ProxyPairs), "proxypairs")
				}
			})
		}
	}
}

// BenchmarkAblationMode regenerates the incremental-vs-transitive ablation
// (latency to first use vs total walk).
func BenchmarkAblationMode(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunAblationMode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Series == "transitive (first use)" {
				b.ReportMetric(p.TotalMS, "ms/transitive-first-use")
			}
			if p.Series == "incremental batch=1 (first use)" {
				b.ReportMetric(p.TotalMS, "ms/incremental-first-use")
			}
		}
	}
}

// BenchmarkAblationDepth regenerates the count- vs depth-bounded cluster
// ablation on the tree workload.
func BenchmarkAblationDepth(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblationDepth(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoCrossover measures the three invocation policies (remote /
// local / auto) over a fixed invocation budget.
func BenchmarkAutoCrossover(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunAutoCrossover(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.TotalMS, "ms/"+p.Series)
		}
	}
}

// BenchmarkReplicationPayload measures raw payload assembly +
// materialization throughput without network delays (loopback), isolating
// the serialization substrate.
func BenchmarkReplicationPayload(b *testing.B) {
	for _, size := range []int{64, 1024, 16 * 1024} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchReplicationPayload(b, size) })
	}
}

// replicationPayload16kBytes pins what BenchmarkReplicationPayload/size=16384
// allocates per op (50 x 16 KiB, transitive, both sites): 8.5 MB before
// frames were sized, decode borrowed and CaptureState stopped copying out,
// 3.46 MB before the reply frame referenced the captured states in place,
// 2.64 MB now. It only ever goes down. A transitive payload of several
// objects is restored by copy on purpose (its replicas are evicted one at
// a time, and one adopted state would pin the whole frame), so adoption
// does not move it.
const replicationPayload16kBytes = 2_700_000

func TestReplicationPayloadAllocationPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not repeatable under the race detector")
	}
	res := testing.Benchmark(func(b *testing.B) { benchReplicationPayload(b, 16<<10) })
	if got := res.AllocedBytesPerOp(); got > replicationPayload16kBytes {
		t.Fatalf("BenchmarkReplicationPayload/size=16384 allocates %d B/op, pinned at %d", got, replicationPayload16kBytes)
	}
	t.Logf("BenchmarkReplicationPayload/size=16384: %s %s", res, res.MemString())
}

func benchReplicationPayload(b *testing.B, size int) {
	network := NewMemNetwork(Loopback)
	server, err := NewSite("s2", network)
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	client, err := NewSite("s1", network)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	// A fresh 50-object chain per iteration would distort timing;
	// instead replicate the same chain transitively into fresh
	// client sites.
	docs := make([]*benchDoc2, 50)
	for i := range docs {
		docs[i] = &benchDoc2{Payload: make([]byte, size)}
		if err := server.Register(docs[i]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(docs)-1; i++ {
		r, err := server.NewRef(docs[i+1])
		if err != nil {
			b.Fatal(err)
		}
		docs[i].Next = r
	}
	d, err := server.Export(docs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := NewSite(fmt.Sprintf("c%d", i), network)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ref := fresh.Engine().RefFromDescriptor(d, GetSpec{Mode: replication.Transitive})
		if _, err := ref.Resolve(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_ = fresh.Close()
		b.StartTimer()
	}
}

type benchDoc2 struct {
	Payload []byte
	Next    *Ref
}

func (d *benchDoc2) Touch() int { return len(d.Payload) }

func init() {
	MustRegisterType("obiwan.bench.doc2", (*benchDoc2)(nil))
}
