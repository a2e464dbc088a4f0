package telemetry

import (
	"runtime"
	"sync"
	"time"
)

// SampleRuntime takes one reading of the Go runtime — goroutine count,
// heap occupancy, GC activity — into the metrics registry as go.* gauges.
// Nil-safe; a disabled hub samples nothing.
func (h *Hub) SampleRuntime() {
	if h == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := h.metrics
	m.Gauge("go.goroutines").Set(int64(runtime.NumGoroutine()))
	m.Gauge("go.heap.alloc_bytes").Set(int64(ms.HeapAlloc))
	m.Gauge("go.heap.objects").Set(int64(ms.HeapObjects))
	m.Gauge("go.heap.sys_bytes").Set(int64(ms.HeapSys))
	m.Gauge("go.gc.cycles").Set(int64(ms.NumGC))
	m.Gauge("go.gc.pause_total_ns").Set(int64(ms.PauseTotalNs))
}

// StartRuntimeSampler samples the Go runtime immediately and then every
// interval (default 10s when interval <= 0) until the returned stop
// function is called. Stop is idempotent. A disabled hub starts nothing
// and returns a no-op stop.
func (h *Hub) StartRuntimeSampler(interval time.Duration) (stop func()) {
	if h == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	h.SampleRuntime()
	// The ticker is made here, not in the goroutine: what starting the
	// sampler allocates is the caller's, not whatever runs when the
	// goroutine is first scheduled.
	t := time.NewTicker(interval)
	done := make(chan struct{})
	go func() {
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.SampleRuntime()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
