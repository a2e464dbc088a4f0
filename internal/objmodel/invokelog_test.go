package objmodel

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"obiwan/internal/telemetry"
)

// pulled returns a profiler that pulls the LMIs of refs observed by the
// returned log, as a site's engine wires them.
func pulled(capacity int) (*telemetry.Profiler, *InvokeLog) {
	p := telemetry.NewProfiler(capacity)
	l := NewInvokeLog(p)
	p.PullFrom(l)
	return p, l
}

// TestInvokeCountsExactUnderRace: eight goroutines invoke refs that share
// OIDs while another rebinds refs and snapshots the profile. Refs rebound
// only to their own OID, and the rebinder's own ref, end with exact
// per-OID counts; refs flipped between two OIDs under the invokers end
// with an exact sum (go test -race).
func TestInvokeCountsExactUnderRace(t *testing.T) {
	p, l := pulled(1024)
	fixed := make([]*Ref, 8) // OIDs 1..4, two refs each
	for i := range fixed {
		fixed[i] = NewLocalRef(&tree{}, OID(1+i%4))
		l.Observe(fixed[i])
	}
	flip := make([]*Ref, 4) // OIDs 100 and 101
	for i := range flip {
		flip[i] = NewLocalRef(&bush{}, 100)
		l.Observe(flip[i])
	}
	own := NewLocalRef(&tree{}, 200) // OIDs 200..203, the rebinder's
	l.Observe(own)

	const workers, calls = 8, 10000
	want := map[uint64]uint64{}
	var wg sync.WaitGroup
	for w := range workers {
		for i := 0; i < calls; i += 2 {
			want[uint64(1+(w+i)%len(fixed)%4)]++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				r := fixed[(w+i)%len(fixed)]
				if i%2 == 1 {
					r = flip[(w+i)%len(flip)]
				}
				if _, err := r.Invoke("Kind"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for j := 0; ; j++ {
		select {
		case <-done:
		default:
			oid := OID(200 + j%4)
			own.BindLocal(&tree{}, oid)
			for range 3 {
				if _, err := own.Invoke("Kind"); err != nil {
					t.Fatal(err)
				}
			}
			want[uint64(oid)] += 3
			flip[j%len(flip)].BindLocal(&bush{}, OID(100+j%2))
			fixed[j%len(fixed)].BindLocal(&tree{}, OID(1+j%len(fixed)%4))
			p.Snapshot("s", 0, 0)
			continue
		}
		break
	}

	snap := p.Snapshot("s", 0, 0)
	for oid, n := range want {
		if o, _ := snap.Get(oid); o.LMICalls != n {
			t.Errorf("oid %d: %d LMIs counted, %d made", oid, o.LMICalls, n)
		}
	}
	a, _ := snap.Get(100)
	b, _ := snap.Get(101)
	if got := a.LMICalls + b.LMICalls; got != workers*calls/2 {
		t.Errorf("flipped refs: %d LMIs counted, %d made", got, workers*calls/2)
	}
}

// TestInvokeLogBoundedAndPinsNoRef: LMIs through 10⁴ distinct refs with no
// snapshot keep the log at or under its bound and are all counted, and
// once the log is drained a dropped ref is collected.
func TestInvokeLogBoundedAndPinsNoRef(t *testing.T) {
	p, l := pulled(0)
	const refs = 10_000
	for i := range refs {
		r := NewLocalRef(&tree{}, OID(i+1))
		l.Observe(r)
		if _, err := r.Invoke("Kind"); err != nil {
			t.Fatal(err)
		}
		if n := len(l.pending); n > invokeLogBound {
			t.Fatalf("after %d refs the log holds %d entries, bound %d", i+1, n, invokeLogBound)
		}
	}
	// Every OID had one LMI: the profiler tracks its capacity and evicted
	// the rest, so every LMI reached it.
	if snap := p.Snapshot("s", 0, 0); snap.Tracked+snap.Evicted != refs {
		t.Fatalf("tracked %d + evicted %d, want %d", snap.Tracked, snap.Evicted, refs)
	}

	collected := make(chan struct{})
	func() {
		r := NewLocalRef(&tree{}, 1)
		l.Observe(r)
		runtime.SetFinalizer(r, func(*Ref) { close(collected) })
		if _, err := r.Invoke("Kind"); err != nil {
			t.Fatal(err)
		}
	}()
	p.Len() // drains the log
	for range 50 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped ref is still reachable after the log was drained")
}

// TestLMICountFlushesAtItsMaximum: a ref whose count reaches its maximum
// before a drain hands it to the log and counts on.
func TestLMICountFlushesAtItsMaximum(t *testing.T) {
	p, l := pulled(0)
	r := NewLocalRef(&tree{}, 7)
	l.Observe(r)
	call := func() {
		if _, err := r.Invoke("Kind"); err != nil {
			t.Fatal(err)
		}
	}
	call()
	r.mu.Lock()
	r.lmis = math.MaxUint32 - 2 // as if that many LMIs had been counted
	r.mu.Unlock()
	call()
	call()
	call()
	if o, _ := p.Snapshot("s", 0, 0).Get(7); o.LMICalls != math.MaxUint32+1 {
		t.Fatalf("%d LMIs counted, want %d", o.LMICalls, uint64(math.MaxUint32)+1)
	}
}
