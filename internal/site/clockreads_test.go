package site

import (
	"sync/atomic"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/replication"
	"obiwan/internal/transport"
)

// countingClock counts the reads of the clock it wraps. It embeds the
// clock, so it schedules as the clock it wraps (netsim.Virtual).
type countingClock struct {
	netsim.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

// countingNet is a virtual network whose runtimes take the counting clock
// (netsim.ClockProvider), while the network's own reads (link delivery)
// go to the clock itself: what is counted is what the sites read.
type countingNet struct {
	*transport.MemNetwork
	clock *countingClock
}

func (n countingNet) Clock() netsim.Clock { return n.clock }

// clockReads runs each operation of the benchmark's shapes once, warm, on
// a fresh virtual world of two sites, and returns the clock reads each
// made, both sites together.
func clockReads(t *testing.T, opts ...Option) map[string]int64 {
	t.Helper()
	vc := netsim.NewVirtualClock()
	defer vc.Stop()
	net := countingNet{
		MemNetwork: transport.NewMemNetworkClock(netsim.Profile{Name: "zero"}, 1, vc),
		clock:      &countingClock{Clock: vc},
	}
	got := map[string]int64{}
	var failed error
	vc.Run(func() {
		failed = func() error {
			opts := append([]Option{WithoutRuntimeSampler()}, opts...)
			master, err := New("master", net, opts...)
			if err != nil {
				return err
			}
			defer master.Close()
			mobile, err := New("mobile", net, opts...)
			if err != nil {
				return err
			}
			defer mobile.Close()
			ops, err := clockReadOps(t, master, mobile)
			if err != nil {
				return err
			}
			for _, op := range ops {
				if err := op.run(); err != nil { // warm: plans, the connection
					return err
				}
				before := net.clock.reads.Load()
				if err := op.run(); err != nil {
					return err
				}
				got[op.name] = net.clock.reads.Load() - before
			}
			return nil
		}()
	})
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// clockReadOps builds the four measured operations on the benchmark's
// shapes: a one-object fault (walk_step1), a 100-member cluster fault
// (walk_cluster16k), a one-byte edit of a 4 KiB replica put back
// (edit_put4k) and a null call, an invocation at the master through the
// proxy pair (rmi_null).
func clockReadOps(t *testing.T, master, mobile *Site) ([]struct {
	name string
	run  func() error
}, error) {
	step := mobile.Engine().RefFromDescriptor(exportChain(t, master, 4, 64),
		replication.GetSpec{Mode: replication.Incremental, Batch: 1})
	const members = 100
	cluster := mobile.Engine().RefFromDescriptor(exportChain(t, master, 2*members+1, 64),
		replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true})
	d, err := master.Export(&blob{Data: make([]byte, 4<<10)})
	if err != nil {
		return nil, err
	}
	root, err := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec).Resolve()
	if err != nil {
		return nil, err
	}
	replica := root.(*blob)
	nd, err := master.Export(&note{Text: "null"})
	if err != nil {
		return nil, err
	}
	remote := mobile.Engine().RefFromDescriptor(nd, replication.DefaultSpec).Remote()
	return []struct {
		name string
		run  func() error
	}{
		{"fault", func() error {
			obj, err := step.Resolve()
			if err == nil {
				step = obj.(*blob).Next
			}
			return err
		}},
		{"cluster fault", func() error {
			obj, err := cluster.Resolve()
			for i := 1; err == nil && i < members; i++ { // the rest of the cluster is here
				obj, err = obj.(*blob).Next.Resolve()
			}
			if err == nil {
				cluster = obj.(*blob).Next
			}
			return err
		}},
		{"put", func() error {
			replica.Data[0]++
			return mobile.Put(replica)
		}},
		{"null call", func() error {
			_, err := remote.RemoteInvoke("Read", nil)
			return err
		}},
	}, nil
}

// TestTelemetryClockReadsPinned: what an operation reads of its site's
// clock, both sites together, is exact. A call takes one reading per
// boundary (DESIGN.md §7): at its start, when it arms its timer (the same
// reading unless it dialed), and when its reply arrives; the caller's
// spans, deadline and Elapsed start at the first and the reply's work is
// stamped with the last. A served call with a serve span reads at receipt,
// at dispatch (handed to the handler's span) and at its end; one without
// reads nothing. Telemetry reads no clock of its own. Counted on a virtual
// world whose network hands its runtimes a counter wrapped round the
// world's clock. Each figure only ever goes down; the rows read as a
// ledger's: layer, operation, counter, setting.
func TestTelemetryClockReadsPinned(t *testing.T) {
	rows := []struct {
		layer, op, counter string
		telemetry          bool
		want               int64
	}{
		// Before one reading per boundary: 27, 27, 23 and 4 with telemetry
		// on, 6, 6, 3 and 3 with it off. Then 8, 8 and 9 on, until a fault
		// ended at materialize's end and a put at its reply (or its
		// journal write).
		{"site", "fault", "clock reads", true, 7},
		{"site", "cluster fault", "clock reads", true, 7},
		{"site", "put", "clock reads", true, 7},
		{"site", "null call", "clock reads", true, 2},
		{"site", "fault", "clock reads", false, 3},
		{"site", "cluster fault", "clock reads", false, 3},
		{"site", "put", "clock reads", false, 2},
		{"site", "null call", "clock reads", false, 2},
	}
	on, off := clockReads(t), clockReads(t, WithoutTelemetry())
	for _, r := range rows {
		got := off[r.op]
		if r.telemetry {
			got = on[r.op]
		}
		if got != r.want {
			t.Errorf("%s %s with telemetry %v: %d %s, pinned at %d", r.layer, r.op, r.telemetry, got, r.counter, r.want)
		}
	}
}
