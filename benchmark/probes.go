package main

import (
	"errors"
	"fmt"
	"runtime"

	"obiwan"
	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/invoke"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// The probes time each layer from outside, through its public functions,
// on the object and the frames of the workload being traced. Every probe
// runs a fixed number of iterations, so its counts repeat from run to run.

// perCall is what one probed call cost.
type perCall struct{ ns, allocs, bytes float64 }

// probe warms fn up, then runs it n times between two counter snapshots and
// returns the means. It suits calls that cost nanoseconds and never block.
func probe(n int, fn func() error) (perCall, error) {
	return probeCalls(n, fn, false)
}

// probeEach is probe for calls that cross a connection: it reads the clock
// around every call and returns the median time, so that the figure stands
// beside op_p50_us and the stragglers that lift a mean stay out of it.
func probeEach(n int, fn func() error) (perCall, error) {
	return probeCalls(n, fn, true)
}

func probeCalls(n int, fn func() error, each bool) (perCall, error) {
	for i := 0; i < n/10+1; i++ {
		if err := fn(); err != nil {
			return perCall{}, err
		}
	}
	var times []float64
	if each {
		times = make([]float64, n)
	}
	runtime.GC()
	c0 := readCounters(true)
	for i := 0; i < n; i++ {
		var start int64
		if each {
			start = now()
		}
		if err := fn(); err != nil {
			return perCall{}, err
		}
		if each {
			times[i] = float64(now() - start)
		}
	}
	var d counters
	d.add(c0, readCounters(false))
	f := float64(n)
	c := perCall{ns: float64(d.t) / f, allocs: float64(d.mallocs) / f, bytes: float64(d.allocBytes) / f}
	if each {
		c.ns = median(times)
	}
	return c, nil
}

// Iteration counts. Calls that cost nanoseconds run fastIters times; calls
// that move the op's payload run fewer the bigger the payload, about 32 MB
// in all, and at least 32.
func (w *workload) fastIters() int { return 100000 / w.probes }

func (w *workload) probeIters() int {
	n := (32 << 20) / (w.payloadPerOp() + 4096) / w.probes
	if n < 32 {
		n = 32
	}
	return n
}

// blob is the bare RMI probe's remote object: it takes and returns the
// op's payload as plain bytes, so the call crosses rmi, wire, codec's byte
// path and the transport, and nothing above them.
type blob struct{ reply []byte }

func (b *blob) Fetch(arg []byte) []byte { return b.reply }

// prober holds one workload's probe inputs and collects its metrics.
type prober struct {
	w          *workload
	cfg        *config
	callFrame  []byte
	replyFrame []byte
	out        map[string]float64
}

// runProbes returns every probe metric of w. callFrame and replyFrame are
// one op's frames as the traced run captured them.
func runProbes(w *workload, cfg *config, callFrame, replyFrame []byte) (map[string]float64, error) {
	if len(callFrame) == 0 || len(replyFrame) == 0 {
		return nil, errors.New("probes: the traced run captured no frames")
	}
	p := &prober{w: w, cfg: cfg, callFrame: callFrame, replyFrame: replyFrame, out: map[string]float64{}}
	for _, step := range []func() error{p.object, p.wire, p.transport, p.rmi, p.replication} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// memWorld builds the workload's master on a zero-latency in-memory
// network.
func (p *prober) memWorld() (*block, obiwan.Network, []obiwan.Descriptor, error) {
	b := &block{w: p.w, cfg: &config{seed: p.cfg.seed, payload: p.cfg.payload}, res: &blockResult{}}
	network := obiwan.NewMemNetwork(obiwan.LinkProfile{Name: "zero"})
	heads, err := b.buildMaster(network)
	if err != nil {
		b.close()
		return nil, nil, nil, err
	}
	return b, network, heads, nil
}

// object probes the layers that work on one object in memory: invoke,
// objmodel, heap, codec, and replication's capture and restore.
func (p *prober) object() error {
	b, network, heads, err := p.memWorld()
	if err != nil {
		return err
	}
	defer b.close()
	node := b.nodes[0]
	reg := b.master.Runtime().Registry()

	c, err := probe(p.w.fastIters(), func() error { _, err := invoke.Call(node, "Touch", nil); return err })
	if err != nil {
		return err
	}
	p.set("invoke.call_ns", c.ns)
	p.set("invoke.call_allocs", c.allocs)

	mobile, err := b.newSite(network)
	if err != nil {
		return err
	}
	ref := mobile.Engine().RefFromDescriptor(heads[0], obiwan.DefaultSpec)
	if _, err := ref.Resolve(); err != nil {
		return err
	}
	c, err = probe(p.w.fastIters(), func() error { _, err := ref.Invoke("Touch"); return err })
	if err != nil {
		return err
	}
	p.set("objmodel.lmi_ns", c.ns)
	p.set("objmodel.lmi_allocs", c.allocs)

	adds := p.w.fastIters() / 5
	h, fresh, next := heap.New(7), make([]*Node, adds+adds/10+1), 0
	for i := range fresh {
		fresh[i] = &Node{}
	}
	c, err = probe(adds, func() error {
		h.AddReplica(fresh[next], objmodel.OID(next+1), "benchmark.Node", 1)
		next++
		return nil
	})
	if err != nil {
		return err
	}
	p.set("heap.add_replica_ns", c.ns)

	batch := p.w.spec.Batch
	if batch < 1 {
		batch = 1
	}
	visited := 0
	c, err = probe(p.w.fastIters()/batch, func() error {
		entries, err := b.master.Heap().Traverse(node, heap.TraverseLimit{MaxObjects: batch})
		visited = len(entries)
		return err
	})
	if err != nil {
		return err
	}
	p.set("heap.traverse_ns_per_obj", c.ns/float64(visited))

	n := p.w.probeIters()
	var state []byte
	enc, err := probe(n, func() error {
		e := codec.NewEncoder(128)
		err := e.EncodeStruct(reg, node)
		state = e.Bytes()
		return err
	})
	if err != nil {
		return err
	}
	dec, err := probe(n, func() error { return codec.NewDecoder(state).DecodeStruct(reg, &Node{}) })
	if err != nil {
		return err
	}
	p.set("codec.encode_struct_ns", enc.ns)
	p.set("codec.decode_struct_ns", dec.ns)
	p.set("codec.encode_allocs", enc.allocs)
	p.set("codec.decode_allocs", dec.allocs)
	p.set("codec.alloc_bytes_per_byte", (enc.bytes+dec.bytes)/float64(len(state)))

	eng := b.master.Engine()
	c, err = probe(n, func() error {
		var err error
		state, err = eng.CaptureSnapshot(node)
		return err
	})
	if err != nil {
		return err
	}
	p.set("replication.capture_us", c.ns/1e3)
	c, err = probe(n, func() error { return eng.RestoreSnapshot(node, state) })
	if err != nil {
		return err
	}
	p.set("replication.restore_us", c.ns/1e3)
	return nil
}

// wire replays the captured frames through package wire's decoder and
// encoders.
func (p *prober) wire() error {
	reg := codec.DefaultRegistry()
	msg, err := wire.Decode(reg, p.callFrame)
	if err != nil {
		return err
	}
	call, ok := msg.(*wire.Call)
	if !ok {
		return fmt.Errorf("probes: captured call frame holds %T", msg)
	}
	if msg, err = wire.Decode(reg, p.replyFrame); err != nil {
		return err
	}
	reply, ok := msg.(*wire.Reply)
	if !ok {
		return fmt.Errorf("probes: captured reply frame holds %T", msg)
	}
	n := p.w.probeIters()
	steps := []struct {
		name string
		fn   func() error
	}{
		{"wire.encode_call_ns", func() error { _, err := wire.EncodeCall(reg, call); return err }},
		{"wire.decode_call_ns", func() error { _, err := wire.Decode(reg, p.callFrame); return err }},
		{"wire.encode_reply_ns", func() error { _, err := wire.EncodeReply(reg, reply); return err }},
		{"wire.decode_reply_ns", func() error { _, err := wire.Decode(reg, p.replyFrame); return err }},
	}
	var allocs, bytes float64
	for _, s := range steps {
		c, err := probe(n, s.fn)
		if err != nil {
			return err
		}
		p.set(s.name, c.ns)
		allocs += c.allocs
		bytes += c.bytes
	}
	// Each of the two frames was encoded once and decoded once.
	p.set("wire.allocs_per_frame", allocs/2)
	p.set("wire.alloc_bytes_per_byte", bytes/float64(2*(len(p.callFrame)+len(p.replyFrame))))
	return nil
}

// echo times a bare Conn round trip: a frame of the call's size out, a
// frame of the reply's size back.
func (p *prober) echo(network transport.Network, addr transport.Addr) (perCall, error) {
	ln, err := network.Listen(addr)
	if err != nil {
		return perCall{}, err
	}
	defer ln.Close()
	out, back := make([]byte, len(p.callFrame)), make([]byte, len(p.replyFrame))
	served := make(chan error, 1) // the one send of the echo goroutine
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		for {
			if _, err := conn.Recv(); err != nil {
				served <- nil // the client closed: the probe is over
				return
			}
			if err := conn.Send(back); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := network.Dial("probe", ln.Addr())
	if err != nil {
		return perCall{}, err
	}
	c, err := probeEach(p.w.probeIters(), func() error {
		if err := conn.Send(out); err != nil {
			return err
		}
		_, err := conn.Recv()
		return err
	})
	_ = conn.Close()
	if serr := <-served; err == nil {
		err = serr
	}
	return c, err
}

func (p *prober) transport() error {
	tcp, err := p.echo(transport.NewTCPNetwork(), "127.0.0.1:0")
	if err != nil {
		return err
	}
	mem, err := p.echo(transport.NewMemNetwork(obiwan.LinkProfile{Name: "zero"}), "echo")
	if err != nil {
		return err
	}
	p.set("transport.tcp_echo_us", tcp.ns/1e3)
	p.set("transport.mem_echo_us", mem.ns/1e3)
	p.set("transport.allocs_per_frame", tcp.allocs/2)
	return nil
}

// bareCall times Runtime.Call between two runtimes with no site on top,
// carrying the op's payload as plain bytes each way.
func (p *prober) bareCall(network transport.Network, server, client transport.Addr) (perCall, error) {
	srv, err := rmi.NewRuntime(network, server)
	if err != nil {
		return perCall{}, err
	}
	defer srv.Close()
	cli, err := rmi.NewRuntime(network, client)
	if err != nil {
		return perCall{}, err
	}
	defer cli.Close()
	var arg, reply []byte
	switch p.w.kind {
	case opWalk:
		reply = p.cfg.payload[:p.w.payloadPerOp()]
	case opPut:
		arg = p.cfg.payload[:p.w.payloadPerOp()]
	}
	ref, err := srv.Export(&blob{reply: reply}, "benchmark.Blob")
	if err != nil {
		return perCall{}, err
	}
	return probeEach(p.w.probeIters(), func() error { _, err := cli.Call(ref, "Fetch", arg); return err })
}

func (p *prober) rmi() error {
	tcp, err := p.bareCall(transport.NewTCPNetwork(), "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mem, err := p.bareCall(transport.NewMemNetwork(obiwan.LinkProfile{Name: "zero"}), "server", "client")
	if err != nil {
		return err
	}
	p.set("rmi.call_tcp_us", tcp.ns/1e3)
	p.set("rmi.call_mem_us", mem.ns/1e3)
	p.set("rmi.call_allocs", tcp.allocs)
	return nil
}

// replication times a demand and a put with the network taken out: sites
// as in the workload, over a zero-latency in-memory network. A demand is one
// fault of the workload's walk; the workloads that do not walk get a
// step-1 walk over 300 objects of their size. A put ships the head replica
// back, as a cluster where it arrived in one.
func (p *prober) replication() error {
	walk := *p.w
	if walk.kind != opWalk {
		walk.kind, walk.objects, walk.ops, walk.spec = opWalk, 300, 300, obiwan.DefaultSpec
	}
	q := &prober{w: &walk, cfg: newConfig(&walk, p.cfg.seed)}
	b, network, heads, err := q.memWorld()
	if err != nil {
		return err
	}
	defer b.close()
	mobile, err := b.newSite(network)
	if err != nil {
		return err
	}
	ref := mobile.Engine().RefFromDescriptor(heads[0], walk.spec)
	if _, err := ref.Remote().RemoteInvoke("Touch", nil); err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	faults, _, failed := b.walkOps(ref, make([]span, 0, walk.ops), make([]*Node, 0, walk.objects))
	if failed > 0 {
		return fmt.Errorf("probes: %d ops of the in-memory walk failed", failed)
	}
	times := make([]float64, len(faults))
	for i, s := range faults {
		times[i] = float64(s.end - s.start)
	}
	p.set("replication.demand_mem_us", median(times)/1e3)

	replica, err := ref.Resolve()
	if err != nil {
		return err
	}
	put := mobile.Put
	if walk.spec.Clustered {
		put = mobile.PutCluster
	}
	c, err := probeEach(p.w.probeIters(), func() error { return put(replica) })
	if err != nil {
		return err
	}
	p.set("replication.put_mem_us", c.ns/1e3)
	return nil
}
