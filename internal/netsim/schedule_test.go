package netsim

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// plan sends n messages of one byte and returns the per-send errors.
func plan(l *Link, n int) []error {
	errs := make([]error, n)
	for i := range errs {
		_, errs[i] = l.Plan(1)
	}
	return errs
}

func TestScheduleDisconnectReconnectWindow(t *testing.T) {
	l := NewLink(Loopback, 1)
	s := NewFaultSchedule(
		FaultEvent{AtSend: 3, Action: ActDisconnect},
		FaultEvent{AtSend: 6, Action: ActReconnect},
	)
	l.SetSchedule(s)
	errs := plan(l, 8)
	for i, err := range errs {
		send := i + 1
		wantDown := send >= 3 && send < 6
		if wantDown && !errors.Is(err, ErrDisconnected) {
			t.Fatalf("send %d: want disconnected, got %v", send, err)
		}
		if !wantDown && err != nil {
			t.Fatalf("send %d: want success, got %v", send, err)
		}
	}
	if !s.Exhausted() {
		t.Fatal("schedule should be exhausted")
	}
	want := []FiredEvent{{ActDisconnect, 3}, {ActReconnect, 6}}
	if got := s.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %v want %v", got, want)
	}
}

func TestScheduleDropIsOneShot(t *testing.T) {
	l := NewLink(Loopback, 1)
	l.SetSchedule(NewFaultSchedule(FaultEvent{AtSend: 2, Action: ActDrop}))
	errs := plan(l, 4)
	if errs[0] != nil || errs[2] != nil || errs[3] != nil {
		t.Fatalf("only send 2 may fail: %v", errs)
	}
	if !errors.Is(errs[1], ErrDropped) {
		t.Fatalf("send 2: want dropped, got %v", errs[1])
	}
	if st := l.Stats(); st.Dropped != 1 || st.Messages != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestScheduleDelayExtendsDelivery(t *testing.T) {
	base := Profile{Name: "flat", Latency: time.Millisecond}
	l := NewLink(base, 1)
	l.SetSchedule(NewFaultSchedule(
		FaultEvent{AtSend: 1, Action: ActDelay, Extra: 50 * time.Millisecond},
	))
	d1, err := l.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 < 51*time.Millisecond {
		t.Fatalf("delayed send took %v, want >= 51ms", d1)
	}
}

// TestScheduleRejectedSendsAdvanceTheClock: send attempts made while the
// link is down still count, so a reconnect keyed by send count is reachable
// by a retrying caller.
func TestScheduleRejectedSendsAdvanceTheClock(t *testing.T) {
	l := NewLink(Loopback, 1)
	s := NewFaultSchedule(
		FaultEvent{AtSend: 1, Action: ActDisconnect},
		FaultEvent{AtSend: 4, Action: ActReconnect},
	)
	l.SetSchedule(s)
	for i := 0; i < 3; i++ {
		if _, err := l.Plan(1); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("send %d: want disconnected, got %v", i+1, err)
		}
	}
	if _, err := l.Plan(1); err != nil {
		t.Fatalf("send 4 after scripted reconnect: %v", err)
	}
	if s.Sends() != 4 {
		t.Fatalf("sends %d want 4", s.Sends())
	}
}

// TestScheduleElapsedKeyedEvent: an elapsed-keyed event fires by the
// link's clock. On a virtual clock, 15 ms of virtual time pass in no real
// time, and the event must fire all the same.
func TestScheduleElapsedKeyedEvent(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	l := NewLinkClock(Loopback, 1, c)
	l.SetSchedule(NewFaultSchedule(
		FaultEvent{AtElapsed: 10 * time.Millisecond, Action: ActDisconnect},
	))
	var before, after error
	c.Run(func() {
		_, before = l.Plan(1)
		c.Sleep(15 * time.Millisecond)
		_, after = l.Plan(1)
	})
	if before != nil {
		t.Fatalf("before deadline: %v", before)
	}
	if !errors.Is(after, ErrDisconnected) {
		t.Fatalf("after deadline: want disconnected, got %v", after)
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(42, 100, 3, 5, 4)
	b := RandomSchedule(42, 100, 3, 5, 4)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a.Events(), b.Events())
	}
	c := RandomSchedule(43, 100, 3, 5, 4)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every disconnect is paired with a later reconnect, so the link always
	// comes back.
	depth := 0
	for _, ev := range a.Events() {
		switch ev.Action {
		case ActDisconnect:
			depth++
		case ActReconnect:
			depth--
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced outage events: depth %d", depth)
	}
}

// TestRandomScheduleTraceReplays: driving two identically seeded links with
// the same send sequence yields identical traces — the determinism contract
// the chaos suite relies on.
func TestRandomScheduleTraceReplays(t *testing.T) {
	run := func() []FiredEvent {
		l := NewLink(Loopback, 7)
		s := RandomSchedule(99, 30, 2, 4, 3)
		l.SetSchedule(s)
		for i := 0; i < 40; i++ {
			_, _ = l.Plan(16)
		}
		return s.Trace()
	}
	t1, t2 := run(), run()
	if len(t1) == 0 {
		t.Fatal("schedule never fired")
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("traces differ:\n%v\n%v", t1, t2)
	}
}
