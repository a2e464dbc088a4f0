package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"obiwan/internal/netsim"
)

// epoch anchors every timestamp the benchmark takes. The wall clock is read
// once, through netsim.Real(); everything after is time.Since(epoch), which
// Go serves from the monotonic clock.
var epoch = netsim.Real().Now()

// now returns nanoseconds since the process epoch.
func now() int64 { return int64(time.Since(epoch)) }

// counters is a snapshot of every process-wide count a timed segment is
// charged with.
type counters struct {
	t          int64 // ns since epoch
	cpu        int64 // user+sys ns, whole process
	mallocs    uint64
	allocBytes uint64
	syscr      uint64 // read syscalls, from /proc/self/io
	syscw      uint64 // write syscalls
}

// add adds to c what the counters grew by between two snapshots.
func (c *counters) add(from, to counters) {
	c.t += to.t - from.t
	c.cpu += to.cpu - from.cpu
	c.mallocs += to.mallocs - from.mallocs
	c.allocBytes += to.allocBytes - from.allocBytes
	c.syscr += to.syscr - from.syscr
	c.syscw += to.syscw - from.syscw
}

// readCounters snapshots the process counters. begin=true reads the clock
// last and begin=false reads it first, so the interval between a begin and
// an end snapshot holds only the measured work.
func readCounters(begin bool) counters {
	var c counters
	if !begin {
		c.t = now()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	c.syscr, c.syscw = procIO()
	if begin {
		c.t = now()
	}
	return c
}

// procIO returns the process's read and write syscall counts. Where
// /proc/self/io is missing both are zero and the syscall metrics read zero.
func procIO() (syscr, syscw uint64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(val, 10, 64)
		switch name {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cut returns the i-th of the n-1 points that cut values into n groups of
// equal probability, as Python's statistics.quantiles(values, n=n)[i-1]
// computes it (the "exclusive" method), so spreads computed here match the
// ones the driver computes. Where Python would extrapolate beyond the
// smallest or largest value, for want of values, cut returns that value: a
// time no block took is not a reading.
func cut(values []float64, n, i int) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		return s[0]
	}
	if j > len(s)-1 {
		return s[len(s)-1]
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
}

// quartiles returns the three quartiles of values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	return cut(values, 4, 1), cut(values, 4, 2), cut(values, 4, 3)
}

// median is the middle cut point of values.
func median(values []float64) float64 { return cut(values, 2, 1) }

// percentile returns the p-th percentile (0 < p < 100) of sorted ns samples
// by the nearest-rank method.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// estimate summarises one metric's per-block values. Value is the figure the
// benchmark reports; the median and quartiles are shown beside it.
type estimate struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Blocks int     `json:"blocks"`
}

// pick says which cut point across blocks a metric reports.
type pick int

const (
	// middle, for counts and for setup_s: the median across blocks.
	middle pick = iota
	// low, for times: the lower decile across blocks. The shared host only
	// ever adds to a time, for spells of seconds, so the blocks it disturbed
	// least read lowest; a tenth of a 12 s run's blocks is still three to nine.
	low
	// high, for rates: the upper decile, quiet for the same reason.
	high
)

// summarise reports the chosen cut point of values, as the clock or the
// counter read them, with the median and the quartiles beside it.
func summarise(values []float64, unit string, p pick) estimate {
	q1, q2, q3 := quartiles(values)
	e := estimate{Value: q2, Unit: unit, Median: q2, Q1: q1, Q3: q3, Blocks: len(values)}
	switch p {
	case low:
		e.Value = cut(values, 10, 1)
	case high:
		e.Value = cut(values, 10, 9)
	}
	return e
}

// single is the estimate of a figure a run has one value of.
func single(v float64, unit string) estimate {
	return estimate{Value: v, Unit: unit, Median: v, Q1: v, Q3: v, Blocks: 1}
}
