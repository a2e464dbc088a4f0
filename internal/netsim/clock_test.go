package netsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestVirtualClockFiresInTimeOrder checks that sleepers wake in deadline
// order regardless of the order they went to sleep in, and that virtual
// time lands exactly on each deadline (no tick overshoot).
func TestVirtualClockFiresInTimeOrder(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	var order []string
	delays := map[string]time.Duration{
		"c": 30 * time.Millisecond,
		"a": 10 * time.Millisecond,
		"b": 20 * time.Millisecond,
	}
	c.Run(func() {
		// The spawner must not hold its token while the sleepers park, or
		// time could never advance: it waits through the clock-aware group.
		done := NewWaitGroup(c)
		for name, d := range delays {
			done.Add(1)
			name, d := name, d
			c.Go(func() {
				defer done.Done()
				c.Sleep(d)
				mu.Lock()
				order = append(order, fmt.Sprintf("%s@%v", name, c.Now().Sub(VirtualBase)))
				mu.Unlock()
			})
		}
		done.Wait()
	})

	got := strings.Join(order, " ")
	want := "a@10ms b@20ms c@30ms"
	if got != want {
		t.Fatalf("wake order %q, want %q", got, want)
	}
	if e := c.Elapsed(); e != 30*time.Millisecond {
		t.Fatalf("elapsed %v, want 30ms", e)
	}
}

// TestVirtualClockWallClockIndependent proves minutes of virtual time cost
// almost no wall time.
func TestVirtualClockWallClockIndependent(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	start := time.Now()
	c.Run(func() { c.Sleep(10 * time.Minute) })
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("10 virtual minutes took %v of wall time", wall)
	}
	if e := c.Elapsed(); e != 10*time.Minute {
		t.Fatalf("elapsed %v, want 10m", e)
	}
}

func TestVirtualAfterFunc(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	var mu sync.Mutex
	var fired []time.Duration
	c.Run(func() {
		done := NewWaitGroup(c)
		done.Add(1)
		c.AfterFunc(5*time.Millisecond, func() {
			mu.Lock()
			fired = append(fired, c.Now().Sub(VirtualBase))
			mu.Unlock()
			done.Done()
		})
		stopped := c.AfterFunc(time.Millisecond, func() {
			t.Error("stopped timer fired")
		})
		if !stopped.Stop() {
			t.Error("Stop on pending timer reported not pending")
		}
		if stopped.Stop() {
			t.Error("second Stop reported pending")
		}
		done.Wait()
	})
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Fatalf("AfterFunc fired at %v, want [5ms]", fired)
	}
}

func TestVirtualSleepUntilCancel(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	c.Run(func() {
		// Uncancelled: deadline reached.
		if !c.SleepUntilCancel(c.Now().Add(time.Millisecond), nil) {
			t.Error("uncancelled sleep reported cancellation")
		}
		// Pre-cancelled: returns false without advancing time.
		cancel := make(chan struct{})
		close(cancel)
		before := c.Now()
		if c.SleepUntilCancel(c.Now().Add(time.Hour), cancel) {
			t.Error("cancelled sleep reported deadline")
		}
		if !c.Now().Equal(before) {
			t.Errorf("cancelled sleep advanced time by %v", c.Now().Sub(before))
		}
	})
}

// TestCondTransfersToken runs a producer/consumer pair over a clock-aware
// Cond: the consumer blocks on the queue (not the clock) while the producer
// sleeps virtual time between items. Without token transfer the clock would
// either wedge (consumer counted busy) or advance past a runnable consumer.
func TestCondTransfersToken(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	var cond Cond
	cond.Init(c, &mu)
	var queue []int
	var got []int

	c.Run(func() {
		inner := NewWaitGroup(c)
		inner.Add(2)
		c.Go(func() { // consumer
			defer inner.Done()
			for i := 0; i < 3; i++ {
				mu.Lock()
				for len(queue) == 0 {
					cond.Wait()
				}
				v := queue[0]
				queue = queue[1:]
				mu.Unlock()
				got = append(got, v)
			}
		})
		c.Go(func() { // producer
			defer inner.Done()
			for i := 1; i <= 3; i++ {
				c.Sleep(time.Millisecond)
				mu.Lock()
				queue = append(queue, i)
				cond.Signal()
				mu.Unlock()
			}
		})
		inner.Wait()
	})

	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("consumed %v, want [1 2 3]", got)
	}
	if e := c.Elapsed(); e != 3*time.Millisecond {
		t.Fatalf("elapsed %v, want 3ms", e)
	}
}

func TestUntrackedGoroutinePanics(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("SleepUntil from an untracked goroutine must panic")
		}
	}()
	c.Sleep(time.Millisecond) // not inside Run/Go
}

// TestVirtualDeterministicInterleaving runs a jittery fan-out twice and
// expects the exact same wakeup sequence: same-instant events must fire in
// schedule order, not goroutine-scheduler order.
func TestVirtualDeterministicInterleaving(t *testing.T) {
	run := func() string {
		c := NewVirtualClock()
		defer c.Stop()
		var mu sync.Mutex
		var log []string
		c.Run(func() {
			inner := NewWaitGroup(c)
			for i := 0; i < 16; i++ {
				inner.Add(1)
				i := i
				c.Go(func() {
					defer inner.Done()
					// Half the goroutines collide on the same deadlines.
					c.Sleep(time.Duration(i%8) * time.Millisecond)
					mu.Lock()
					log = append(log, fmt.Sprintf("%d@%v", i, c.Now().Sub(VirtualBase)))
					mu.Unlock()
				})
			}
			inner.Wait()
		})
		return strings.Join(log, " ")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

// TestRealClockImplementsClock exercises the real implementation through
// the interface so both paths share coverage.
func TestRealClockImplementsClock(t *testing.T) {
	c := Real()
	before := c.Now()
	c.Sleep(time.Millisecond)
	if c.Now().Sub(before) < time.Millisecond {
		t.Fatal("real Sleep returned early")
	}
	if !c.SleepUntilCancel(c.Now().Add(time.Millisecond), nil) {
		t.Fatal("real SleepUntilCancel missed its deadline")
	}
	cancel := make(chan struct{})
	close(cancel)
	if c.SleepUntilCancel(c.Now().Add(time.Hour), cancel) {
		t.Fatal("real SleepUntilCancel ignored cancellation")
	}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc never fired")
	}
}
