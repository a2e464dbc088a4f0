package rmi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// fastRetry is a test policy: quick deterministic backoff, no jitter.
func fastRetry(attempts int, perTry time.Duration) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:   attempts,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
		Multiplier:    2,
		Jitter:        0,
		PerTryTimeout: perTry,
	}
}

// newRetryPair is newPair with an explicit client-side retry policy.
func newRetryPair(t *testing.T, p RetryPolicy) (server, client *Runtime, net *transport.MemNetwork) {
	t.Helper()
	net = transport.NewMemNetwork(netsim.Loopback)
	var err error
	server, err = newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err = newRuntime(net, "client", WithRetryPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client, net
}

func TestBackoffTable(t *testing.T) {
	base := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Multiplier: 2}
	for _, tc := range []struct {
		policy RetryPolicy
		retry  int
		want   time.Duration
	}{
		{base, 1, 10 * time.Millisecond},
		{base, 2, 20 * time.Millisecond},
		{base, 3, 40 * time.Millisecond},
		{base, 4, 80 * time.Millisecond}, // reaches the ceiling
		{base, 5, 80 * time.Millisecond}, // stays clamped
		{base, 9, 80 * time.Millisecond},
		{base, 0, 10 * time.Millisecond},                                     // degenerate retry numbers clamp to 1
		{RetryPolicy{}, 1, 2 * time.Millisecond},                             // defaults
		{RetryPolicy{Multiplier: 1}, 3, 2 * time.Millisecond},                // no growth
		{RetryPolicy{BaseBackoff: time.Second}, 2, time.Second},              // base above default cap
		{RetryPolicy{BaseBackoff: time.Second}, 9, time.Second},              // cap lifts to base
		{RetryPolicy{MaxBackoff: time.Millisecond}, 5, 2 * time.Millisecond}, // cap below default base lifts to base
	} {
		if got := tc.policy.Backoff(tc.retry); got != tc.want {
			t.Errorf("Backoff(%d) on %+v = %v, want %v", tc.retry, tc.policy, got, tc.want)
		}
	}
}

func TestRetryAfterDroppedRequest(t *testing.T) {
	server, client, net := newRetryPair(t, fastRetry(4, 0))
	calc := &calculator{}
	ref, _ := server.Export(calc)
	if _, err := client.Call(ref, "Accumulate", int64(7)); err != nil { // warm the connection
		t.Fatal(err)
	}
	// Drop the next frame the client sends (the call itself); the retry's
	// resend passes.
	net.SetFaultSchedule("client", "server", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
	))
	if _, err := client.Call(ref, "Accumulate", int64(5)); err != nil {
		t.Fatalf("call with dropped request: %v", err)
	}
	if got := calc.Total(); got != 12 {
		t.Fatalf("accumulated %d, want 12 (exactly-once)", got)
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.Retries != 1 {
		t.Fatalf("client retries = %d, want 1", cs.Retries)
	}
	if ss.CallsServed != 2 || ss.DupsSuppressed != 0 {
		t.Fatalf("server stats: %+v", ss)
	}
}

func TestRetryAfterDroppedReply(t *testing.T) {
	// The request executes but its reply is lost; the client re-sends the
	// same call id and the server answers from the dedupe table without
	// executing again.
	server, client, net := newRetryPair(t, fastRetry(4, 30*time.Millisecond))
	calc := &calculator{}
	ref, _ := server.Export(calc)
	if _, err := client.Call(ref, "Accumulate", int64(7)); err != nil { // warm the connection
		t.Fatal(err)
	}
	net.SetFaultSchedule("server", "client", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
	))
	if _, err := client.Call(ref, "Accumulate", int64(5)); err != nil {
		t.Fatalf("call with dropped reply: %v", err)
	}
	if got := calc.Total(); got != 12 {
		t.Fatalf("accumulated %d, want 12 (dropped reply must not re-execute)", got)
	}
	ss := server.Stats()
	if ss.CallsServed != 2 {
		t.Fatalf("server executed %d calls, want 2 (exactly-once)", ss.CallsServed)
	}
	if ss.DupsSuppressed != 1 {
		t.Fatalf("duplicates suppressed = %d, want 1", ss.DupsSuppressed)
	}
	if cs := client.Stats(); cs.Retries != 1 {
		t.Fatalf("client retries = %d, want 1", cs.Retries)
	}
}

// onceCounter records how many times Hit actually ran.
type onceCounter struct {
	n int64
}

func (o *onceCounter) Hit(sleepMs int64) int64 {
	n := atomic.AddInt64(&o.n, 1)
	time.Sleep(time.Duration(sleepMs) * time.Millisecond)
	return n
}

func TestTimeoutThenLateReply(t *testing.T) {
	// The per-try timeout expires while the first execution is still
	// running. Each resend parks on the in-flight dedupe entry instead of
	// starting a second execution; when the slow call finishes, its recorded
	// reply answers every arrival and the client call succeeds.
	server, client, _ := newRetryPair(t, fastRetry(8, 30*time.Millisecond))
	counter := &onceCounter{}
	ref, _ := server.Export(counter)
	res, _, err := client.CallWithin(telemetry.SpanContext{}, time.Time{}, ref, 2*time.Second, "Hit", int64(100))
	if err != nil {
		t.Fatalf("slow call: %v", err)
	}
	if res[0] != int64(1) {
		t.Fatalf("result %v, want 1", res[0])
	}
	if got := atomic.LoadInt64(&counter.n); got != 1 {
		t.Fatalf("method executed %d times, want exactly 1", got)
	}
	if cs := client.Stats(); cs.Retries == 0 {
		t.Fatal("expected at least one per-try timeout resend")
	}
	// The duplicate handlers unblock at the same instant the real reply
	// does, so give their counters a moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for server.Stats().DupsSuppressed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ss := server.Stats()
	if ss.DupsSuppressed == 0 {
		t.Fatal("expected resends to be suppressed by the dedupe table")
	}
	if ss.CallsServed != 1 {
		t.Fatalf("server executed %d calls, want 1", ss.CallsServed)
	}
}

func TestRetryExhaustion(t *testing.T) {
	server, client, net := newRetryPair(t, fastRetry(3, 0))
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil { // warm the connection
		t.Fatal(err)
	}
	// Every attempt's frame is dropped; the call must fail with the last
	// transport error after exactly MaxAttempts tries.
	net.SetFaultSchedule("client", "server", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
		netsim.FaultEvent{AtSend: 2, Action: netsim.ActDrop},
		netsim.FaultEvent{AtSend: 3, Action: netsim.ActDrop},
	))
	_, err := client.Call(ref, "Total")
	if err == nil {
		t.Fatal("call must fail when every attempt is dropped")
	}
	if !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("exhaustion error must wrap the last transport error, got %v", err)
	}
	if want := "after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q must mention %q", err, want)
	}
	if cs := client.Stats(); cs.Retries != 2 {
		t.Fatalf("client retries = %d, want 2", cs.Retries)
	}
	if ss := server.Stats(); ss.CallsServed != 1 {
		t.Fatalf("server executed %d calls, want 1 (warm only)", ss.CallsServed)
	}
}

func TestOverallDeadlineCapsBackoff(t *testing.T) {
	// The overall call timeout is a hard deadline: when it cannot fit the
	// next backoff the call fails with ErrTimeout immediately instead of
	// sleeping past it, and the last transport error stays inspectable.
	server, client, net := newRetryPair(t, RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 300 * time.Millisecond,
		MaxBackoff:  300 * time.Millisecond,
		Multiplier:  1,
	})
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil { // warm the connection
		t.Fatal(err)
	}
	net.Disconnect("client", "server")
	start := time.Now()
	_, _, err := client.CallWithin(telemetry.SpanContext{}, time.Time{}, ref, 50*time.Millisecond, "Total")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("timeout must preserve the last transport error, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bound call took %v, must not sleep the full backoff ladder", elapsed)
	}
}

func TestNoRetryFailsFast(t *testing.T) {
	server, client, net := newRetryPair(t, RetryPolicy{MaxAttempts: 1})
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	net.SetFaultSchedule("client", "server", netsim.NewFaultSchedule(
		netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
	))
	if _, err := client.Call(ref, "Total"); !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("one attempt must surface the first failure, got %v", err)
	}
	if cs := client.Stats(); cs.Retries != 0 {
		t.Fatalf("one attempt made %d retries", cs.Retries)
	}
}

func TestApplicationFaultsNeverRetry(t *testing.T) {
	server, client, _ := newRetryPair(t, fastRetry(5, 0))
	ref, _ := server.Export(&calculator{})
	if _, err := client.Call(ref, "Div", int64(1), int64(0)); err == nil {
		t.Fatal("want application fault")
	}
	if cs := client.Stats(); cs.Retries != 0 {
		t.Fatalf("application fault triggered %d retries, want 0", cs.Retries)
	}
	if ss := server.Stats(); ss.CallsServed != 1 {
		t.Fatalf("server executed %d calls, want 1", ss.CallsServed)
	}
}
