package rmi

import (
	"time"
)

// RetryPolicy controls how a Runtime retries failed outbound calls.
//
// A call is retried only on transient transport failures (see
// transport.IsTransient): dropped messages, link disconnections, dead
// connections, unreachable peers. Application faults and protocol errors
// never retry. Every resend reuses the call's id, and the server suppresses
// duplicate executions, so a retried call is exactly-once from the
// application's point of view even when a reply was lost rather than the
// request.
//
// The per-call timeout passed to Call/CallTimeout is the overall deadline:
// backoff waits and resends all fit inside it, and when it expires the call
// fails with ErrTimeout no matter how many attempts remain.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 are treated as 1: a single attempt, no retries.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 250ms).
	MaxBackoff time.Duration
	// Multiplier is the backoff growth factor per retry (default 2).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 →
	// ±20%), decorrelating retry storms from concurrent callers. Zero
	// disables jitter, which keeps retry timing reproducible in tests.
	Jitter float64
	// PerTryTimeout bounds the wait for a single attempt's reply. When it
	// elapses the call is re-sent (same id — the server deduplicates) with
	// backoff, until MaxAttempts or the overall deadline is exhausted.
	// Zero waits the full remaining deadline, so a lost reply is only
	// recovered by the connection failing, not by resending.
	PerTryTimeout time.Duration
}

// DefaultRetryPolicy is the runtime default: a handful of quick retries
// with exponential backoff, no per-try resends.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// normalized fills zero fields with defaults so arithmetic is safe.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Backoff returns the nominal (jitter-free) wait before retry number retry
// (1-based: retry 1 follows the first failed attempt). The wait grows
// geometrically from BaseBackoff and saturates at MaxBackoff.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	p = p.normalized()
	if retry < 1 {
		retry = 1
	}
	d := float64(p.BaseBackoff)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxBackoff) {
			return p.MaxBackoff
		}
	}
	if d > float64(p.MaxBackoff) {
		return p.MaxBackoff
	}
	return time.Duration(d)
}

// jittered applies the policy's jitter to a nominal backoff using the
// runtime's RNG.
func (rt *Runtime) jittered(d time.Duration) time.Duration {
	if rt.retry.Jitter <= 0 || d <= 0 {
		return d
	}
	rt.rngMu.Lock()
	f := 1 + rt.retry.Jitter*(2*rt.rng.Float64()-1)
	rt.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepBackoff waits the jittered backoff for retry number retry, bounded
// by the overall deadline. It returns false when the deadline leaves no
// room for the wait (the call must time out instead of sleeping past it)
// or the runtime closes mid-wait. The sleep runs on the runtime's clock,
// so under a virtual clock backoff costs no wall time.
func (rt *Runtime) sleepBackoff(retry int, deadline time.Time) bool {
	d := rt.jittered(rt.retry.Backoff(retry))
	now := rt.clock.Now()
	if deadline.Sub(now) <= d {
		return false
	}
	return rt.clock.SleepUntilCancel(now.Add(d), rt.closed)
}
