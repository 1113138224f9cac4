package clock

import (
	"context"
	"sync"
	"testing"
	"time"
)

var autoStart = time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC)

// TestFakeAutoSingleSleeper: one registered goroutine sleeping an hour
// wakes immediately in wall time with virtual time advanced.
func TestFakeAutoSingleSleeper(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	done := make(chan time.Time, 1)
	clk.RegisterGoroutine()
	go func() {
		defer clk.UnregisterGoroutine()
		clk.Sleep(time.Hour)
		done <- clk.Now()
	}()
	clk.Resume()
	select {
	case woke := <-done:
		if want := autoStart.Add(time.Hour); !woke.Equal(want) {
			t.Fatalf("woke at %v, want %v", woke, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleeper never woke: auto-advance did not fire")
	}
}

// TestFakeAutoDeadlineOrder: waiters fire strictly in deadline order,
// one at a time, regardless of the order the sleeps were issued.
func TestFakeAutoDeadlineOrder(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	var mu sync.Mutex
	var order []time.Duration
	var wg sync.WaitGroup
	durations := []time.Duration{5 * time.Minute, time.Minute, 3 * time.Minute, 10 * time.Minute}
	ready := make(chan struct{}, len(durations))
	for _, d := range durations {
		wg.Add(1)
		clk.RegisterGoroutine()
		go func(d time.Duration) {
			defer wg.Done()
			defer clk.UnregisterGoroutine()
			ready <- struct{}{}
			clk.Sleep(d)
			mu.Lock()
			order = append(order, d)
			mu.Unlock()
		}(d)
	}
	for range durations {
		<-ready
	}
	clk.Resume()
	wg.Wait()
	want := []time.Duration{time.Minute, 3 * time.Minute, 5 * time.Minute, 10 * time.Minute}
	for i, d := range want {
		if order[i] != d {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
	if now, want := clk.Now(), autoStart.Add(10*time.Minute); !now.Equal(want) {
		t.Fatalf("clock at %v, want %v", now, want)
	}
}

// TestFakeAutoSingleStepping: while a woken goroutine works, the clock
// must not advance past other waiters — only when it parks again.
func TestFakeAutoSingleStepping(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	var mu sync.Mutex
	var events []string
	log := func(s string) { mu.Lock(); events = append(events, s); mu.Unlock() }
	var wg sync.WaitGroup
	wg.Add(2)
	started := make(chan struct{}, 2)
	clk.RegisterGoroutine()
	go func() { // wakes first, then sleeps again before B's deadline
		defer wg.Done()
		defer clk.UnregisterGoroutine()
		started <- struct{}{}
		clk.Sleep(time.Minute)
		log("A1")
		clk.Sleep(time.Minute) // deadline +2m, before B's +3m
		log("A2")
	}()
	clk.RegisterGoroutine()
	go func() {
		defer wg.Done()
		defer clk.UnregisterGoroutine()
		started <- struct{}{}
		clk.Sleep(3 * time.Minute)
		log("B")
	}()
	<-started
	<-started
	clk.Resume()
	wg.Wait()
	want := []string{"A1", "A2", "B"}
	for i, s := range want {
		if events[i] != s {
			t.Fatalf("event order %v, want %v", events, want)
		}
	}
}

// TestFakeAutoPauseResume: a paused clock queues waiters without
// firing them.
func TestFakeAutoPauseResume(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	done := make(chan struct{})
	clk.RegisterGoroutine()
	go func() {
		defer clk.UnregisterGoroutine()
		clk.Sleep(time.Second)
		close(done)
	}()
	for clk.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("waiter fired while paused")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never fired after Resume")
	}
	if clk.Fired() == 0 {
		t.Fatal("Fired() did not count the delivery")
	}
}

// TestFakeAutoUnregisterDropsPending: a goroutine leaving with a
// pending waiter must not wedge the gate for the survivors.
func TestFakeAutoUnregisterDropsPending(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	// Leaver parks a far-future waiter, then abandons it.
	clk.RegisterGoroutine()
	ch := clk.After(100 * time.Hour)
	clk.UnregisterGoroutine(ch)
	if n := clk.PendingWaiters(); n != 0 {
		t.Fatalf("stale waiter not dropped: %d pending", n)
	}
	done := make(chan struct{})
	clk.RegisterGoroutine()
	go func() {
		defer clk.UnregisterGoroutine()
		clk.Sleep(time.Second)
		close(done)
	}()
	clk.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never woke after leaver dropped out")
	}
	if clk.Registered() != 0 {
		t.Fatalf("registered = %d, want 0", clk.Registered())
	}
}

// TestFakeAutoZeroAfter fires immediately without a waiter.
func TestFakeAutoZeroAfter(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	select {
	case now := <-clk.After(0):
		if !now.Equal(autoStart) {
			t.Fatalf("zero After delivered %v, want %v", now, autoStart)
		}
	default:
		t.Fatal("zero-duration After did not fire immediately")
	}
	if clk.PendingWaiters() != 0 {
		t.Fatal("zero After queued a waiter")
	}
}

// TestLoopOnFakeAuto: the LoopGo helper registers at the spawn site —
// before the controller below can possibly open the gate — runs its
// body once per interval in virtual time, and exits on cancel dropping
// its pending waiter.
func TestLoopOnFakeAuto(t *testing.T) {
	clk := NewFakeAuto(autoStart)
	defer clk.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ticks := 0
	loopDone := make(chan struct{})
	LoopGo(ctx, clk, time.Minute, func(context.Context) {
		mu.Lock()
		ticks++
		mu.Unlock()
	}, func() { close(loopDone) })
	// A controller sleeping to a fixed horizon bounds the loop: when it
	// wakes, exactly horizon/interval ticks have fired.
	// Pausing inside the controller, before it unregisters, keeps the
	// gate closed so no sixth tick can sneak in during teardown.
	horizon := make(chan struct{})
	clk.RegisterGoroutine()
	go func() {
		defer clk.UnregisterGoroutine()
		clk.Sleep(5*time.Minute + 30*time.Second)
		clk.Pause()
		close(horizon)
	}()
	clk.Resume()
	<-horizon
	mu.Lock()
	got := ticks
	mu.Unlock()
	if got != 5 {
		t.Fatalf("loop ticked %d times in 5.5 virtual minutes, want 5", got)
	}
	cancel()
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not exit on cancel")
	}
	if n := clk.Registered(); n != 0 {
		t.Fatalf("loop left %d registrations behind", n)
	}
}

// TestLoopOnRealClock exercises the System-clock path.
func TestLoopOnRealClock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	LoopGo(ctx, nil, time.Millisecond, func(context.Context) {
		once.Do(func() { close(fired) })
	}, func() { close(done) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("loop never fired on the real clock")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not exit on cancel")
	}
}
