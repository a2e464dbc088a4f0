// Package netsim models the network links between OBIWAN sites.
//
// The paper's evaluation ran on a 10 Mb/s LAN connecting Pentium II/III
// machines, where a null remote method invocation cost about 2.8 ms. We do
// not have that testbed, so this package provides its synthetic equivalent:
// a serial link with configurable propagation latency, transmission
// bandwidth, jitter, and loss, plus explicit disconnection — the defining
// event of the paper's mobile scenario.
//
// A Link converts a message size into a delivery delay using the classic
// store-and-forward model: a message departs when the link is next free
// (messages serialize on the wire), occupies the link for size/bandwidth,
// and arrives one propagation latency (plus jitter) later. Arrival times are
// clamped monotonic so FIFO ordering is preserved even with jitter, matching
// TCP semantics.
//
// Delays are realized as real sleeps by the transport layer, so benchmark
// wall-clock numbers are directly comparable to the paper's milliseconds.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// ErrDisconnected is returned for sends over a link that is administratively
// down. In the paper's terms this is a (voluntary or involuntary) network
// disconnection that the application must survive.
var ErrDisconnected = errors.New("netsim: link disconnected")

// ErrDropped is returned when the loss model drops a message. The transport
// maps this to a transmission failure.
var ErrDropped = errors.New("netsim: message dropped")

// Profile describes the static quality of service of a link.
type Profile struct {
	// Name identifies the profile in logs and benchmark rows.
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter is the maximum extra random delay added per message.
	Jitter time.Duration
	// BandwidthBps is the transmission rate in bytes per second.
	// Zero means infinite bandwidth (no transmission delay).
	BandwidthBps int64
	// LossRate is the probability in [0,1) that a message is dropped.
	LossRate float64
	// PerMessageOverhead is a fixed per-message cost modelling framing,
	// kernel crossings, and protocol processing at both ends.
	PerMessageOverhead time.Duration
}

// String returns a compact human-readable description of the profile.
func (p Profile) String() string {
	return fmt.Sprintf("%s(lat=%v bw=%dB/s jit=%v loss=%.2g)",
		p.Name, p.Latency, p.BandwidthBps, p.Jitter, p.LossRate)
}

// TransmitTime returns how long the link is occupied sending size bytes.
func (p Profile) TransmitTime(size int) time.Duration {
	if p.BandwidthBps <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(p.BandwidthBps) * float64(time.Second))
}

// Predefined profiles. LAN10 is calibrated to the paper's testbed: the
// round trip of a small RMI lands at ≈2.8 ms (2×1.25 ms propagation plus
// per-message overhead and the frame's transmission time at 10 Mbit/s).
var (
	// Loopback models two processes on one machine: negligible latency,
	// effectively infinite bandwidth.
	Loopback = Profile{Name: "loopback", Latency: 5 * time.Microsecond, BandwidthBps: 0}

	// LAN10 is the paper's 10 Mb/s Ethernet regime.
	LAN10 = Profile{
		Name:               "lan10",
		Latency:            1250 * time.Microsecond,
		BandwidthBps:       10_000_000 / 8, // 10 Mbit/s
		PerMessageOverhead: 100 * time.Microsecond,
	}

	// WAN models a wide-area Internet path of the era: higher latency,
	// moderate bandwidth, a little jitter.
	WAN = Profile{
		Name:               "wan",
		Latency:            40 * time.Millisecond,
		Jitter:             5 * time.Millisecond,
		BandwidthBps:       1_000_000 / 8, // 1 Mbit/s
		PerMessageOverhead: 200 * time.Microsecond,
	}

	// Wireless models the info-appliance link the paper motivates (GPRS-era
	// wireless): high latency, thin, lossy.
	Wireless = Profile{
		Name:               "wireless",
		Latency:            150 * time.Millisecond,
		Jitter:             30 * time.Millisecond,
		BandwidthBps:       56_000 / 8,
		LossRate:           0.01,
		PerMessageOverhead: 1 * time.Millisecond,
	}
)

// Stats accumulates per-link traffic counters.
type Stats struct {
	Messages     uint64
	Bytes        uint64
	Dropped      uint64
	Disconnected uint64 // sends rejected while down
}

// Link is one direction of a point-to-point connection between two sites.
// The zero value is not usable; create links with NewLink. Link is safe for
// concurrent use.
type Link struct {
	mu       sync.Mutex
	clock    Clock
	profile  Profile
	rng      *rand.Rand
	down     bool
	sched    *FaultSchedule
	nextFree time.Time // when the wire finishes the current transmission
	lastArr  time.Time // monotonic arrival clamp (FIFO)
	stats    Stats
}

// NewLink returns a link with the given profile on the real clock. Seed
// makes the loss and jitter stream deterministic for reproducible
// experiments.
func NewLink(p Profile, seed int64) *Link {
	return NewLinkClock(p, seed, Real())
}

// NewLinkClock is NewLink on an explicit clock: the occupancy model reads
// "now" from it, so under a VirtualClock the link serializes messages on
// the virtual timeline.
func NewLinkClock(p Profile, seed int64, c Clock) *Link {
	return &Link{clock: c, profile: p, rng: rand.New(rand.NewSource(seed))}
}

// Profile returns the link's current profile.
func (l *Link) Profile() Profile {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.profile
}

// SetProfile switches the link's quality of service at run time — the
// "significant and rapid changes in the quality of service of the underlying
// network" the paper targets.
func (l *Link) SetProfile(p Profile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.profile = p
}

// SetDown marks the link administratively down (true) or up (false).
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = down
}

// Down reports whether the link is disconnected.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// SetSchedule attaches a fault schedule to the link (nil detaches). The
// schedule is consulted on every subsequent send attempt, before the loss
// model, and may take the link down, bring it back, drop the message, or
// delay it. A schedule must be attached to at most one link.
func (l *Link) SetSchedule(s *FaultSchedule) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sched = s
}

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Plan computes the delivery delay for a message of size bytes sent now.
// It updates the link occupancy model, so each call represents one real
// transmission. Plan returns ErrDisconnected while the link is down and
// ErrDropped when the loss model discards the message.
func (l *Link) Plan(size int) (time.Duration, error) {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var extra time.Duration
	if l.sched != nil {
		d := l.sched.step(now, l.down)
		if d.setDown {
			l.down = d.down
		}
		if d.reject {
			l.stats.Disconnected++
			return 0, ErrDisconnected
		}
		if d.drop {
			l.stats.Dropped++
			return 0, ErrDropped
		}
		extra = d.extra
	}
	if l.down {
		l.stats.Disconnected++
		return 0, ErrDisconnected
	}
	if l.profile.LossRate > 0 && l.rng.Float64() < l.profile.LossRate {
		l.stats.Dropped++
		return 0, ErrDropped
	}
	depart := now
	if l.nextFree.After(depart) {
		depart = l.nextFree
	}
	depart = depart.Add(l.profile.TransmitTime(size))
	l.nextFree = depart

	arrive := depart.Add(l.profile.Latency + l.profile.PerMessageOverhead + extra)
	if j := l.profile.Jitter; j > 0 {
		arrive = arrive.Add(time.Duration(l.rng.Int63n(int64(j) + 1)))
	}
	// FIFO clamp: never deliver before a previously planned message.
	if arrive.Before(l.lastArr) {
		arrive = l.lastArr
	}
	l.lastArr = arrive

	l.stats.Messages++
	l.stats.Bytes += uint64(size)
	return arrive.Sub(now), nil
}

// sleepSlack is how far ahead of a deadline SleepUntil switches from the
// kernel sleep (which overshoots by roughly a timer tick on coarse-clock
// hosts) to a yield loop. Two milliseconds covers the worst observed
// overshoot while bounding the spin cost per message.
const sleepSlack = 2 * time.Millisecond

// napGranularity is a conservative bound on the true cost of a short
// kernel sleep: a coarse-timer host rounds any nap up to roughly one
// tick (≈1 ms observed). While more than this remains until the
// deadline, SleepUntil can nap without risk of overshooting; the final
// stretch below it must be yield-spun, because no kernel sleep can land
// inside a tick. The spin is thereby time-capped at about one tick per
// message — a coarse host cannot spin longer, and a fine-grained host
// exits the loop almost immediately. A VirtualClock bypasses this path
// entirely: its wakeups are exact events with no spin at all.
const napGranularity = 1500 * time.Microsecond

// spinFallbackSleep is the nap requested while napGranularity still
// remains; the kernel rounds it up, which is fine from that distance.
const spinFallbackSleep = 50 * time.Microsecond

// SleepUntil blocks until the deadline with sub-tick precision: a kernel
// sleep for the bulk of the wait, naps while a safe margin remains, then
// a yield loop for the final sub-tick stretch. The simulated link model
// depends on this precision — a plain time.Sleep overshoots by a kernel
// timer tick (≈1 ms), which would double a 2.8 ms RPC round trip.
func SleepUntil(deadline time.Time) {
	if d := time.Until(deadline); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > napGranularity {
			// Even rounded up to a whole tick, the nap cannot carry us
			// past the deadline from this far out.
			time.Sleep(spinFallbackSleep)
		} else {
			runtime.Gosched()
		}
	}
}
