package clock

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	c := Real{}
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now %v outside [%v, %v]", got, before, after)
	}
}

func TestRealAfterFires(t *testing.T) {
	c := Real{}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("Real.After never fired")
	}
}

func TestFakeNowStable(t *testing.T) {
	start := time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC)
	f := NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", f.Now(), start)
	}
	if !f.Now().Equal(start) {
		t.Fatal("Now drifted without Advance")
	}
}

func TestFakeAdvanceMovesNow(t *testing.T) {
	start := time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC)
	f := NewFake(start)
	f.Advance(90 * time.Minute)
	want := start.Add(90 * time.Minute)
	if !f.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", f.Now(), want)
	}
}

func TestFakeAfterFiresOnAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	ch := f.After(time.Hour)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	f.Advance(59 * time.Minute)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	f.Advance(time.Minute)
	select {
	case got := <-ch:
		if !got.Equal(time.Unix(0, 0).Add(time.Hour)) {
			t.Fatalf("fired with %v", got)
		}
	default:
		t.Fatal("After did not fire at deadline")
	}
}

func TestFakeAfterNonPositiveFiresImmediately(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	select {
	case <-f.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
	select {
	case <-f.After(-time.Second):
	default:
		t.Fatal("After(negative) should fire immediately")
	}
	if f.PendingWaiters() != 0 {
		t.Fatal("an immediate After queued a waiter")
	}
}

func TestFakeSleepUnblocks(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Sleep(time.Minute)
		close(done)
	}()
	// Wait until the sleeper has registered.
	for i := 0; i < 1000 && f.PendingWaiters() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if f.PendingWaiters() != 1 {
		t.Fatal("sleeper never registered")
	}
	f.Advance(time.Minute)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep never returned after Advance")
	}
	wg.Wait()
}

func TestFakeSetForwards(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	target := time.Unix(3600, 0)
	ch := f.After(30 * time.Minute)
	f.Set(target)
	if !f.Now().Equal(target) {
		t.Fatalf("Now = %v, want %v", f.Now(), target)
	}
	select {
	case <-ch:
	default:
		t.Fatal("Set did not fire due waiter")
	}
}

func TestFakeSetBackwardsPanics(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	f.Set(time.Unix(0, 0))
}

var autoStart = time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC)

// registered reads the participant count a test left behind.
func registered(f *Fake) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.registered
}

// firing is one waiter's delivery: the waiter's index in After order and
// the time it fired with.
type firing struct {
	idx int
	at  time.Duration
}

// firePaused queues the script's waiters in order and fires them with
// Advance, one distinct deadline at a time. A single Advance fires a
// tie under the clock's lock, so ties show only as simultaneous
// deliveries; they are listed in After order, the order the resumed run
// must observe for itself.
func firePaused(script []time.Duration) []firing {
	clk := NewFake(autoStart)
	chs := make([]<-chan time.Time, len(script))
	for i, d := range script {
		chs[i] = clk.After(d)
	}
	steps := slices.Clone(script)
	slices.Sort(steps)
	var got []firing
	for _, d := range slices.Compact(steps) {
		clk.Set(autoStart.Add(d))
		for i, ch := range chs {
			select {
			case now := <-ch:
				got = append(got, firing{i, now.Sub(autoStart)})
			default:
			}
		}
	}
	return got
}

// fireResumed queues the same waiters in the same order, hands each to
// its own registered goroutine and resumes: the clock single-steps, so
// the log records the order the waiters really fired in.
func fireResumed(script []time.Duration) []firing {
	clk := NewFake(autoStart)
	defer clk.Stop()
	var mu sync.Mutex
	var got []firing
	var wg sync.WaitGroup
	for i, d := range script {
		ch := clk.After(d)
		clk.register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer clk.unregister(nil)
			now := <-ch
			mu.Lock()
			got = append(got, firing{i, now.Sub(autoStart)})
			mu.Unlock()
		}()
	}
	clk.Resume()
	wg.Wait()
	return got
}

// TestFakeScriptPausedAndResumed: one waiter script fires in the same
// (deadline, After call) order whether Advance drives the clock or it
// auto-advances.
func TestFakeScriptPausedAndResumed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script []time.Duration
		want   []int // waiter indices in fire order
	}{
		{"equal_deadlines", []time.Duration{3 * time.Minute, time.Minute, 3 * time.Minute, 2 * time.Minute}, []int{1, 3, 0, 2}},
		{"deadline_order", []time.Duration{5 * time.Minute, time.Minute, 3 * time.Minute, 10 * time.Minute}, []int{1, 2, 0, 3}},
		{"multiple_waiters", []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}, []int{0, 1, 2}},
	} {
		for mode, fire := range map[string]func([]time.Duration) []firing{"paused": firePaused, "resumed": fireResumed} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				got := fire(tc.script)
				if len(got) != len(tc.want) {
					t.Fatalf("fired %v, want %d waiters", got, len(tc.want))
				}
				for k, f := range got {
					if f.idx != tc.want[k] || f.at != tc.script[f.idx] {
						t.Fatalf("fired %v, want order %v each at its deadline", got, tc.want)
					}
				}
			})
		}
	}
}

// TestFakeStartsNoGoroutineUntilResume: a clock that is only ever
// advanced by hand needs no Stop.
func TestFakeStartsNoGoroutineUntilResume(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := NewFake(autoStart)
	clk.Advance(time.Hour)
	clk.Pause()
	// Only a rise counts: a stopped clock of an earlier test may still be
	// letting its advancer go.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d without Resume", before, after)
	}
}

// TestFakeAutoSingleSleeper: one registered goroutine sleeping an hour
// wakes immediately in wall time with virtual time advanced.
func TestFakeAutoSingleSleeper(t *testing.T) {
	clk := NewFake(autoStart)
	defer clk.Stop()
	done := make(chan time.Time, 1)
	clk.register()
	go func() {
		defer clk.unregister(nil)
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

// TestFakeAutoSingleStepping: while a woken goroutine works, the clock
// must not advance past other waiters — only when it parks again.
func TestFakeAutoSingleStepping(t *testing.T) {
	clk := NewFake(autoStart)
	defer clk.Stop()
	var mu sync.Mutex
	var events []string
	log := func(s string) { mu.Lock(); events = append(events, s); mu.Unlock() }
	var wg sync.WaitGroup
	wg.Add(2)
	started := make(chan struct{}, 2)
	clk.register()
	go func() { // wakes first, then sleeps again before B's deadline
		defer wg.Done()
		defer clk.unregister(nil)
		started <- struct{}{}
		clk.Sleep(time.Minute)
		log("A1")
		clk.Sleep(time.Minute) // deadline +2m, before B's +3m
		log("A2")
	}()
	clk.register()
	go func() {
		defer wg.Done()
		defer clk.unregister(nil)
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
	clk := NewFake(autoStart)
	defer clk.Stop()
	done := make(chan struct{})
	clk.register()
	go func() {
		defer clk.unregister(nil)
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
	clk := NewFake(autoStart)
	defer clk.Stop()
	// Leaver parks a far-future waiter, then abandons it.
	clk.register()
	ch := clk.After(100 * time.Hour)
	clk.unregister(ch)
	if n := clk.PendingWaiters(); n != 0 {
		t.Fatalf("stale waiter not dropped: %d pending", n)
	}
	done := make(chan struct{})
	clk.register()
	go func() {
		defer clk.unregister(nil)
		clk.Sleep(time.Second)
		close(done)
	}()
	clk.Resume()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never woke after leaver dropped out")
	}
	if n := registered(clk); n != 0 {
		t.Fatalf("registered = %d, want 0", n)
	}
}

// TestFakeAutoZeroAfter: on an auto-advancing clock a zero After fires
// immediately at the current time without queueing a waiter.
func TestFakeAutoZeroAfter(t *testing.T) {
	clk := NewFake(autoStart)
	defer clk.Stop()
	clk.Resume()
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
	clk := NewFake(autoStart)
	defer clk.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ticks := 0
	loopDone := make(chan struct{})
	LoopGo(ctx, clk, time.Minute, func(time.Time) {
		mu.Lock()
		ticks++
		mu.Unlock()
	}, func() { close(loopDone) })
	// A controller sleeping to a fixed horizon bounds the loop: when it
	// wakes, exactly horizon/interval ticks have fired.
	// Pausing inside the controller, before it unregisters, keeps the
	// gate closed so no sixth tick can sneak in during teardown.
	horizon := make(chan struct{})
	clk.register()
	go func() {
		defer clk.unregister(nil)
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
	if n := registered(clk); n != 0 {
		t.Fatalf("loop left %d registrations behind", n)
	}
}

// TestLoopOnRealClock exercises the System-clock path.
func TestLoopOnRealClock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	LoopGo(ctx, nil, time.Millisecond, func(time.Time) {
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
