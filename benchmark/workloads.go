package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"

	"obiwan"
)

// Node is the benchmark's one object type: a seeded payload and a next
// pointer, the list element of the paper's §4 experiments.
type Node struct {
	Payload []byte
	Next    *obiwan.Ref
}

// Touch is the null method every workload invokes. Its result depends on
// the payload's size and first byte, so a replica holding the wrong bytes
// answers wrongly.
func (n *Node) Touch() int { return touchOf(n.Payload) }

// CRC lets a check read the master's bytes through the protocol.
func (n *Node) CRC() uint32 { return crc32.ChecksumIEEE(n.Payload) }

func touchOf(p []byte) int { return len(p)<<8 | int(p[0]) }

func init() { obiwan.MustRegisterType("benchmark.Node", (*Node)(nil)) }

type opKind int

const (
	opRMI  opKind = iota // ModeRemote Ref.Invoke
	opWalk               // invoke on an unresolved ref: demand, materialize, splice
	opPut                // mutate one byte of a replica, Site.Put
)

// workload is one set of inputs. A block builds a fresh master with objects
// nodes of size bytes, then runs clients mobile sites one after another,
// each making ops operations from callers goroutines.
type workload struct {
	name    string
	kind    opKind
	objects int
	size    int
	spec    obiwan.GetSpec
	clients int
	callers int
	ops     int // per mobile site
	lmi     int // local invocations in a block's LMI phase
	probes  int // divisor of the probes' iteration counts: 1, or more for the test suite
}

// payloadPerOp is the user payload one op delivers, in bytes.
func (w *workload) payloadPerOp() int {
	switch w.kind {
	case opWalk:
		return w.size * w.objects / w.ops
	case opPut:
		return w.size
	}
	return 0
}

// table returns the five workloads; BENCHMARK.json and README.md say why each
// is there. small shrinks every count so that the test suite can run them all
// in a few seconds; the shapes stay the same.
func table(small bool) []*workload {
	list, calls, puts, lmi, probes := 1000, 4000, 2000, 50000, 1
	if small {
		list, calls, puts, lmi, probes = 200, 200, 100, 1000, 50
	}
	step := obiwan.GetSpec{Mode: obiwan.Incremental, Batch: 1}
	cluster := obiwan.GetSpec{Mode: obiwan.Incremental, Batch: 100, Clustered: true}
	return []*workload{
		{name: "rmi_null", kind: opRMI, objects: 1, size: 64, clients: 1, callers: 1, ops: calls, lmi: lmi, probes: probes},
		{name: "rmi_null_x2", kind: opRMI, objects: 2, size: 64, clients: 1, callers: 2, ops: calls, lmi: lmi, probes: probes},
		{name: "walk_step1", kind: opWalk, objects: list, size: 64, spec: step, clients: 2, callers: 1, ops: list, lmi: lmi, probes: probes},
		{name: "walk_cluster16k", kind: opWalk, objects: list, size: 16 << 10, spec: cluster, clients: 4, callers: 1, ops: list / 100, lmi: lmi, probes: probes},
		{name: "edit_put4k", kind: opPut, objects: 1, size: 4 << 10, clients: 1, callers: 1, ops: puts, lmi: lmi, probes: probes},
	}
}

func findWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is what one run's blocks share.
type config struct {
	seed       int64
	payload    []byte              // seeded bytes, objects x size, copied into every fresh master
	siteOpts   []obiwan.SiteOption // none: the default site
	traced     bool                // build the block's sites over a traceNet
	retention  bool                // measure live heap before the clients and after they closed
	corruptPut bool                // test hook: break the replica after its last put, so the check must fail
}

func newConfig(w *workload, seed int64) *config {
	c := &config{seed: seed, payload: make([]byte, w.objects*w.size)}
	rand.New(rand.NewSource(seed)).Read(c.payload)
	return c
}

// span is one op on the process clock.
type span struct {
	start, end int64
	caller     int
}

// blockResult is everything one block measured. Counts cover the timed
// segments only; set-up, checks and the LMI phase are outside them.
type blockResult struct {
	setupNS    int64
	delta      counters // the timed segments' wall time (t), cpu, mallocs, allocBytes, syscr and syscw
	wireBytes  uint64
	ops        int
	failed     int
	spans      []span  // dropped once reduced to p50NS, p99NS and lat
	p50NS      float64 // median op latency
	p99NS      float64
	lat        []int64 // sorted op latencies, kept only where a block is too short for its own p99
	lmiNS      float64 // per local invocation on a spliced replica
	liveHeapMB float64
	retainedMB float64 // live heap left per closed client (config.retention)
	proxyPairs uint64
	matched    []matchedOp // config.traced
	unmatched  int
	callFrame  []byte // config.traced: one op's frames, for the probes
	replyFrame []byte
}

// block is one block in flight.
type block struct {
	w      *workload
	cfg    *config
	res    *blockResult
	rng    *rand.Rand
	tn     *traceNet
	master *obiwan.Site
	nodes  []*Node
	sites  []*obiwan.Site
	named  int // sites named so far on an in-memory network
	// local and want feed the LMI phase: a replica the last client spliced
	// in, and the value its Touch must return.
	local *obiwan.Ref
	want  int
}

// runBlock builds a fresh world, runs the workload's ops on it, checks the
// results, and tears the world down. An error means the world could not be
// built or driven at all; a wrong or failed op is counted in the result.
func runBlock(w *workload, cfg *config, index int) (*blockResult, error) {
	b := &block{w: w, cfg: cfg, res: &blockResult{}, rng: rand.New(rand.NewSource(cfg.seed<<16 + int64(index)))}
	defer b.close()
	begin := now()
	var network obiwan.Network = obiwan.NewTCPNetwork()
	if cfg.traced {
		b.tn = newTraceNet(network, w.ops*2+64)
		network = b.tn
	}
	heads, err := b.buildMaster(network)
	if err != nil {
		return nil, err
	}
	var base float64
	if cfg.retention {
		base = liveHeapMB()
	}
	b.res.setupNS += now() - begin

	for c := 0; c < w.clients; c++ {
		if err := b.runClient(network, heads); err != nil {
			return nil, err
		}
	}
	if err := b.lmiPhase(); err != nil {
		return nil, err
	}
	b.res.liveHeapMB = liveHeapMB()
	b.res.proxyPairs = b.master.Engine().GC().Snapshot().ProxyInsExported
	// Close the mobile sites and let go of them and their replicas, so that
	// what the live heap still holds afterwards is held by the master.
	for i, s := range b.sites[1:] {
		_ = s.Close()
		b.sites[1+i] = nil
	}
	b.sites, b.local = b.sites[:1], nil
	if cfg.retention {
		b.res.retainedMB = (liveHeapMB() - base) / float64(w.clients)
	}
	b.close()
	if b.tn != nil {
		targets := map[uint64]int{}
		if w.callers > 1 {
			for i, d := range heads {
				targets[uint64(d.Provider.ID)] = i
			}
		}
		b.res.matched, b.res.unmatched = b.tn.assemble(b.res.spans, targets)
		b.res.callFrame, b.res.replyFrame = b.tn.captured()
	}
	b.res.reduce()
	return b.res, nil
}

// fewOps is the op count below which a block has fewer than ten ops beyond
// its p99, so that percentile is taken over the whole run instead.
const fewOps = 1000

// reduce replaces the block's spans by the latency figures read from them,
// so that a run's finished blocks do not weigh on the next block's live
// heap.
func (r *blockResult) reduce() {
	lat := make([]int64, len(r.spans))
	for i, s := range r.spans {
		lat[i] = s.end - s.start
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.p50NS, r.p99NS = percentile(lat, 50), percentile(lat, 99)
	if len(lat) < fewOps {
		r.lat = lat
	}
	r.spans = nil
}

func (b *block) close() {
	for i := len(b.sites) - 1; i >= 0; i-- {
		_ = b.sites[i].Close()
	}
	b.sites = nil
}

// newSite starts a site on network. Over TCP every site listens on a
// loopback port the kernel picks; the in-memory network of the probes wants
// distinct names.
func (b *block) newSite(network obiwan.Network) (*obiwan.Site, error) {
	name := "127.0.0.1:0"
	if _, mem := network.(*obiwan.MemNetwork); mem {
		name = fmt.Sprintf("site%d", b.named)
		b.named++
	}
	s, err := obiwan.NewSite(name, network, b.cfg.siteOpts...)
	if err != nil {
		return nil, err
	}
	b.sites = append(b.sites, s)
	return s, nil
}

// buildMaster starts the master site, builds its chain of nodes from the
// seeded payload and exports the heads: the chain's first node, or for the
// RMI workloads one node per caller.
func (b *block) buildMaster(network obiwan.Network) ([]obiwan.Descriptor, error) {
	w := b.w
	master, err := b.newSite(network)
	if err != nil {
		return nil, err
	}
	b.master = master
	b.nodes = make([]*Node, w.objects)
	for i := range b.nodes {
		p := make([]byte, w.size)
		copy(p, b.cfg.payload[i*w.size:])
		b.nodes[i] = &Node{Payload: p}
		if err := master.Register(b.nodes[i]); err != nil {
			return nil, err
		}
	}
	exported := b.nodes[:1]
	if w.kind == opRMI {
		exported = b.nodes
	} else {
		for i := 0; i < len(b.nodes)-1; i++ {
			if b.nodes[i].Next, err = master.NewRef(b.nodes[i+1]); err != nil {
				return nil, err
			}
		}
	}
	heads := make([]obiwan.Descriptor, len(exported))
	for i, n := range exported {
		if heads[i], err = master.Export(n); err != nil {
			return nil, err
		}
	}
	return heads, nil
}

// runClient starts one mobile site, dials the master with one
// master-directed call, and runs the workload's timed segment on it.
func (b *block) runClient(network obiwan.Network, heads []obiwan.Descriptor) error {
	w := b.w
	begin := now()
	mobile, err := b.newSite(network)
	if err != nil {
		return err
	}
	refs := make([]*obiwan.Ref, len(heads))
	for i, d := range heads {
		refs[i] = mobile.Engine().RefFromDescriptor(d, w.spec)
		if _, err := refs[i].Remote().RemoteInvoke("Touch", nil); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
	}
	var replica *Node    // opPut: the one replica edited
	var replicas []*Node // opWalk: every node the walk spliced in
	switch w.kind {
	case opRMI:
		// The LMI phase needs a replica; the timed calls go to the master.
		local := mobile.Engine().RefFromDescriptor(heads[0], obiwan.DefaultSpec)
		if _, err := local.Resolve(); err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
		b.local, b.want = local, touchOf(b.nodes[0].Payload)
		for _, r := range refs {
			r.SetMode(obiwan.ModeRemote)
		}
	case opPut:
		if replica, err = obiwan.Deref[*Node](refs[0]); err != nil {
			return fmt.Errorf("replicate: %w", err)
		}
	case opWalk:
		replicas = make([]*Node, 0, w.objects)
	}
	b.res.setupNS += now() - begin

	switch w.kind {
	case opRMI:
		b.timed(mobile, func(caller int, rec []span) ([]span, int) { return b.rmiOps(refs[caller], caller, rec) })
	case opWalk:
		b.timed(mobile, func(_ int, rec []span) (out []span, failed int) {
			out, replicas, failed = b.walkOps(refs[0], rec, replicas)
			return out, failed
		})
		crc := crc32.NewIEEE()
		for _, n := range replicas {
			crc.Write(n.Payload)
		}
		if crc.Sum32() != crc32.ChecksumIEEE(b.cfg.payload) {
			b.res.failed++
		}
		b.local, b.want = refs[0], touchOf(b.nodes[0].Payload)
	case opPut:
		b.timed(mobile, func(_ int, rec []span) ([]span, int) { return b.putOps(mobile, replica, rec) })
		if b.cfg.corruptPut {
			replica.Payload[0] ^= 0xff
		}
		out, err := refs[0].Remote().RemoteInvoke("CRC", nil)
		if err != nil || len(out) != 1 || asInt(out[0]) != int(crc32.ChecksumIEEE(replica.Payload)) {
			b.res.failed++
		}
		b.local, b.want = refs[0], touchOf(replica.Payload)
	}
	return nil
}

// timed runs body on every caller goroutine between two counter snapshots
// and adds the interval to the block's totals. body appends one span per op
// to rec and returns it with the number of ops that failed.
func (b *block) timed(mobile *obiwan.Site, body func(caller int, rec []span) ([]span, int)) {
	w := b.w
	per := w.ops / w.callers
	recs := make([][]span, w.callers)
	fails := make([]int, w.callers)
	for i := range recs {
		recs[i] = make([]span, 0, per)
	}
	// Both directions are read at the mobile site: it has counted a reply
	// before the op that waited for it returns, while the master counts a
	// reply only after its Send, which the caller can outrun.
	wire := func() uint64 {
		st := mobile.Runtime().Stats()
		return st.BytesSent + st.BytesReceived
	}
	wire0 := wire()
	c0 := readCounters(true)
	if w.callers == 1 {
		recs[0], fails[0] = body(0, recs[0])
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w.callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				recs[i], fails[i] = body(i, recs[i])
			}(i)
		}
		wg.Wait()
	}
	c1 := readCounters(false)
	r := b.res
	r.delta.add(c0, c1)
	r.wireBytes += wire() - wire0
	for i := range recs {
		r.spans = append(r.spans, recs[i]...)
		r.ops += len(recs[i])
		r.failed += fails[i]
	}
}

// arm asks the trace, if there is one, to keep the frames of the op about
// to start: the second op of a segment, which is past the first-use costs.
func (b *block) arm(caller, op int) {
	if b.tn != nil && caller == 0 && op == 1 {
		b.tn.arm()
	}
}

func (b *block) rmiOps(ref *obiwan.Ref, caller int, rec []span) ([]span, int) {
	want, failed := touchOf(b.nodes[caller].Payload), 0
	for i := 0; i < cap(rec); i++ {
		b.arm(caller, i)
		start := now()
		out, err := ref.Invoke("Touch")
		rec = append(rec, span{start, now(), caller})
		if err != nil || len(out) != 1 || asInt(out[0]) != want {
			failed++
		}
	}
	return rec, failed
}

// walkOps walks the chain from head. Every invocation on an unresolved ref
// is one op: with step 1 that is every node, with clusters of 100 every
// hundredth; the invocations in between are local and only add to the
// segment's wall time.
func (b *block) walkOps(head *obiwan.Ref, rec []span, replicas []*Node) ([]span, []*Node, int) {
	w, failed := b.w, 0
	per := w.objects / w.ops
	cur := head
	for i := 0; i < w.objects && cur != nil; i++ {
		fault := i%per == 0
		if fault {
			b.arm(0, i/per)
		}
		start := now()
		out, err := cur.Invoke("Touch")
		node, derr := obiwan.Deref[*Node](cur)
		end := now()
		if fault {
			rec = append(rec, span{start, end, 0})
		}
		want := touchOf(b.nodes[i].Payload)
		if err != nil || derr != nil || len(out) != 1 || asInt(out[0]) != want {
			failed++
		}
		if derr != nil {
			break
		}
		replicas = append(replicas, node)
		cur = node.Next
	}
	failed += cap(rec) - len(rec) // faults the walk never reached
	return rec, replicas, failed
}

func (b *block) putOps(mobile *obiwan.Site, replica *Node, rec []span) ([]span, int) {
	failed := 0
	for i := 0; i < cap(rec); i++ {
		b.arm(0, i)
		off, flip := b.rng.Intn(len(replica.Payload)), byte(1+b.rng.Intn(255))
		start := now()
		replica.Payload[off] ^= flip
		err := mobile.Put(replica)
		rec = append(rec, span{start, now(), 0})
		if err != nil {
			failed++
		}
	}
	return rec, failed
}

// lmiPhase times local invocations on one spliced replica of the block's
// last client and checks every answer.
func (b *block) lmiPhase() error {
	if b.local == nil {
		return fmt.Errorf("%s: no replica to invoke locally", b.w.name)
	}
	wrong := 0
	start := now()
	for i := 0; i < b.w.lmi; i++ {
		out, err := b.local.Invoke("Touch")
		if err != nil || len(out) != 1 || asInt(out[0]) != b.want {
			wrong++
		}
	}
	elapsed := now() - start
	if wrong > 0 {
		b.res.failed++
	}
	b.res.lmiNS = float64(elapsed) / float64(b.w.lmi)
	return nil
}

// asInt reads an invocation result: a native int from a local invocation,
// a wire integer from a remote one.
func asInt(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case int64:
		return int(x)
	case uint64:
		return int(x)
	case uint32:
		return int(x)
	}
	return -1
}
