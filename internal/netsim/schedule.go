package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// FaultSchedule scripts the failures of one link so that failure tests are
// reproducible instead of probabilistic. The paper's defining scenario —
// a mobile host disconnecting mid-session and reconnecting later — becomes
// a deterministic event list: "go down on the 5th send, come back on the
// 9th", rather than a loss rate that may or may not strike during a run.
//
// Events are keyed primarily by the link's send-attempt count (every Plan
// call, including ones rejected while down, advances the count), which is
// fully deterministic: the same sequence of sends fires the same events at
// the same points regardless of wall-clock scheduling. Events may instead
// be keyed by time elapsed on the link's clock since the schedule's first
// send; on a VirtualClock those are as deterministic as send counts, on
// the real clock only as deterministic as the host.
//
// A schedule records every event it fires. Comparing Trace outputs across
// runs is how the chaos suite asserts "same seed ⇒ same failure history".

// FaultAction is what a fired event does to the link.
type FaultAction uint8

const (
	// ActDisconnect takes the link down; subsequent sends (including the
	// triggering one) fail with ErrDisconnected until a reconnect.
	ActDisconnect FaultAction = iota + 1
	// ActReconnect brings the link back up.
	ActReconnect
	// ActDrop silently discards the triggering message (ErrDropped), like
	// a one-off loss event.
	ActDrop
	// ActDelay adds Extra to the triggering message's delivery time — a
	// transient congestion spike.
	ActDelay
)

func (a FaultAction) String() string {
	switch a {
	case ActDisconnect:
		return "disconnect"
	case ActReconnect:
		return "reconnect"
	case ActDrop:
		return "drop"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// FaultEvent is one scripted failure.
type FaultEvent struct {
	// AtSend fires the event when the link's send-attempt count reaches
	// this value (1-based: AtSend 1 affects the first send after attach).
	// Zero means the event is keyed by AtElapsed instead.
	AtSend uint64
	// AtElapsed fires the event once this much time has passed on the
	// link's clock since the schedule's first send (checked on each send
	// attempt).
	AtElapsed time.Duration
	// Action is what happens.
	Action FaultAction
	// Extra is the added delivery delay for ActDelay.
	Extra time.Duration
}

// FiredEvent is one entry of a schedule's trace: which event fired and at
// which send-attempt count.
type FiredEvent struct {
	Action FaultAction
	AtSend uint64
}

func (f FiredEvent) String() string {
	return fmt.Sprintf("%s@%d", f.Action, f.AtSend)
}

// FaultSchedule holds scripted events for one link. Attach it with
// Link.SetSchedule (or transport.MemNetwork.SetFaultSchedule). A schedule
// must not be shared between links. FaultSchedule is safe for concurrent
// use.
type FaultSchedule struct {
	mu     sync.Mutex
	events []FaultEvent
	fired  []bool
	armed  bool
	start  time.Time // set on first send after attach
	sends  uint64
	trace  []FiredEvent
}

// NewFaultSchedule builds a schedule from scripted events. Send-keyed
// events are sorted by trigger point; ties fire in the given order.
func NewFaultSchedule(events ...FaultEvent) *FaultSchedule {
	evs := append([]FaultEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		// Elapsed-keyed events (AtSend 0) sort by elapsed time among
		// themselves and after send-keyed events with equal triggers.
		if evs[i].AtSend != evs[j].AtSend {
			if evs[i].AtSend == 0 || evs[j].AtSend == 0 {
				return evs[j].AtSend == 0
			}
			return evs[i].AtSend < evs[j].AtSend
		}
		return evs[i].AtElapsed < evs[j].AtElapsed
	})
	return &FaultSchedule{events: evs, fired: make([]bool, len(evs))}
}

// RandomSchedule generates a reproducible schedule from a seed: outages
// disconnect/reconnect pairs and drops single-message losses, all keyed by
// send count within [1, horizon]. Each outage lasts between 1 and maxOutage
// send attempts; the link is always reconnected by the end, so a persistent
// retrier is guaranteed to get through once the script runs out.
func RandomSchedule(seed int64, horizon uint64, outages, drops int, maxOutage uint64) *FaultSchedule {
	if horizon == 0 {
		horizon = 1
	}
	if maxOutage == 0 {
		maxOutage = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var events []FaultEvent
	for i := 0; i < outages; i++ {
		at := 1 + uint64(rng.Int63n(int64(horizon)))
		length := 1 + uint64(rng.Int63n(int64(maxOutage)))
		events = append(events,
			FaultEvent{AtSend: at, Action: ActDisconnect},
			FaultEvent{AtSend: at + length, Action: ActReconnect},
		)
	}
	for i := 0; i < drops; i++ {
		events = append(events, FaultEvent{
			AtSend: 1 + uint64(rng.Int63n(int64(horizon))), Action: ActDrop,
		})
	}
	return NewFaultSchedule(events...)
}

// Events returns a copy of the scripted events in firing order.
func (s *FaultSchedule) Events() []FaultEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FaultEvent(nil), s.events...)
}

// Trace returns the events fired so far, in firing order. Two runs of the
// same scenario with the same seed must produce equal traces.
func (s *FaultSchedule) Trace() []FiredEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]FiredEvent(nil), s.trace...)
}

// Sends returns how many send attempts the schedule has observed.
func (s *FaultSchedule) Sends() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sends
}

// Exhausted reports whether every scripted event has fired.
func (s *FaultSchedule) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.fired {
		if !f {
			return false
		}
	}
	return true
}

// decision is the aggregate effect of the events fired by one send attempt.
type decision struct {
	setDown  bool
	down     bool
	drop     bool
	extra    time.Duration
	reject   bool // link is down after applying events
	linkDown bool
}

// step advances the schedule by one send attempt made at now (on the
// link's clock) and returns what should happen to the triggering message.
// linkDown is the link's current administrative state; the returned
// decision reports the new state.
func (s *FaultSchedule) step(now time.Time, linkDown bool) decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		s.armed = true
		s.start = now
	}
	s.sends++
	d := decision{linkDown: linkDown}
	for i, ev := range s.events {
		if s.fired[i] {
			continue
		}
		triggered := false
		if ev.AtSend > 0 {
			triggered = s.sends >= ev.AtSend
		} else {
			triggered = now.Sub(s.start) >= ev.AtElapsed
		}
		if !triggered {
			continue
		}
		s.fired[i] = true
		s.trace = append(s.trace, FiredEvent{Action: ev.Action, AtSend: s.sends})
		switch ev.Action {
		case ActDisconnect:
			d.setDown, d.down = true, true
			d.linkDown = true
		case ActReconnect:
			d.setDown, d.down = true, false
			d.linkDown = false
		case ActDrop:
			d.drop = true
		case ActDelay:
			d.extra += ev.Extra
		}
	}
	d.reject = d.linkDown
	return d
}
