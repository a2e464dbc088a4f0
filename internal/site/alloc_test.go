package site

import (
	"runtime"
	"testing"

	"obiwan/internal/netsim"
	"obiwan/internal/transport"
)

// TestSiteStartAllocationPinned bounds what an idle site costs: starting
// and closing one allocates at most 200 KB. The span ring used to be
// 4096 eager records (545 KB, scanned whole by every GC cycle); it now
// holds pointers to the records spans already allocate. Heap bytes are
// a deterministic count, not a timing.
func TestSiteStartAllocationPinned(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	start := func(name string) {
		s, err := New(name, net)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	start("warm") // one-time registrations and lazy package state
	// TotalAlloc is process-wide, so a straggler goroutine of an earlier
	// test can add to one reading; the minimum of three cannot be inflated.
	best := ^uint64(0)
	for _, name := range []string{"pin1", "pin2", "pin3"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start(name)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	const limit = 200 << 10
	if best > limit {
		t.Fatalf("site start+close allocated %d bytes, limit %d", best, limit)
	}
	t.Logf("site start+close allocated %d bytes", best)
}
