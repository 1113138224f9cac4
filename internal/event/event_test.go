package event

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestEveryFiresOnFakeClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	h := New(fake)
	var fired atomic.Int64
	cancel := h.Every(time.Minute, func(now time.Time) { fired.Add(1) })
	defer cancel()

	waitFor := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for fired.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("fired = %d, want %d", fired.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Wait until the schedule goroutine has registered its waiter.
	deadline := time.Now().Add(5 * time.Second)
	for fake.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("schedule never armed")
		}
		time.Sleep(time.Millisecond)
	}
	fake.Advance(time.Minute)
	waitFor(1)
	for fake.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	fake.Advance(time.Minute)
	waitFor(2)
	cancel()
	// After cancel, advancing must not fire again.
	time.Sleep(10 * time.Millisecond)
	fake.Advance(10 * time.Minute)
	time.Sleep(10 * time.Millisecond)
	if fired.Load() > 3 { // allow one in-flight tick
		t.Fatalf("fired after cancel: %d", fired.Load())
	}
	h.Close()
	if n := fake.PendingWaiters(); n != 0 {
		t.Fatalf("stopped schedule left %d waiters", n)
	}

	// The same schedule on a resumed clock: the body pauses the clock at
	// the second tick, so exactly two fire, and closing the handler
	// withdraws the schedule's pending waiter.
	auto := clock.NewFake(time.Unix(0, 0))
	defer auto.Stop()
	h = New(auto)
	var ticks []time.Duration
	second := make(chan struct{})
	h.Every(time.Minute, func(now time.Time) {
		ticks = append(ticks, now.Sub(time.Unix(0, 0)))
		if len(ticks) == 2 {
			auto.Pause()
			close(second)
		}
	})
	auto.Resume()
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("schedule never ticked twice on the resumed clock")
	}
	h.Close()
	if len(ticks) != 2 || ticks[0] != time.Minute || ticks[1] != 2*time.Minute {
		t.Fatalf("ticks at %v, want [1m0s 2m0s]", ticks)
	}
	if n := auto.PendingWaiters(); n != 0 {
		t.Fatalf("stopped schedule left %d waiters", n)
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	h := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Every(0, func(time.Time) {})
}

func TestCloseStopsSchedules(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	h := New(fake)
	var fired atomic.Int64
	h.Every(time.Minute, func(time.Time) { fired.Add(1) })
	h.Every(time.Second, func(time.Time) { fired.Add(1) })

	done := make(chan struct{})
	go func() { h.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	// Every after Close is a no-op.
	cancel := h.Every(time.Second, func(time.Time) { fired.Add(1) })
	cancel()
	h.Close() // idempotent
}
