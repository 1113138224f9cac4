// Package clock abstracts time so that link expiry, heartbeats, and the
// benchmark harness can run against either the wall clock or a
// deterministic fake clock.
//
// The SyD event handler (paper §4.2, operation 6) periodically sweeps
// expired links; reproducing that behaviour in tests requires a clock
// that can be advanced manually, which is what Fake provides.
package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Clock is the minimal time surface the SyD kernel needs.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the (then-current) time
	// after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// System is the shared real clock used by default throughout the kernel.
var System Clock = Real{}

// Fake is a deterministic Clock. It starts paused: time moves only when
// Advance or Set moves it. Resume turns on auto-advancing, the scale
// harness's time compressor: the clock jumps straight to the next
// deadline whenever every registered goroutine is blocked on it, so
// simulated hours elapse in wall-clock microseconds. Either way, due
// waiters fire in (deadline, After call) order. The zero value is not
// usable; call NewFake. Fake is safe for concurrent use.
//
// The contract that makes an auto-advancing run reproducible:
//
//   - Every goroutine that blocks on the clock must be registered and
//     must hold at most one outstanding wait at a time. LoopGo does this
//     for periodic loops.
//   - The clock advances one waiter at a time, and only while all
//     registered goroutines are parked on it. A woken goroutine therefore
//     runs alone: no two waiters' work overlaps, so shared state is
//     touched in a deterministic sequence.
//   - Equal deadlines fire in After order, which is only deterministic
//     if those calls were themselves single-stepped. Order-sensitive
//     work must use distinct deadlines (the scale harness offsets every
//     device's schedule by a per-device epsilon for this reason).
//
// Boot a fleet before Resume so virtual time cannot run away, and Pause
// before tearing it down (otherwise the periodic loops left sleeping
// would spin virtual time forever).
type Fake struct {
	mu   sync.Mutex
	cond *sync.Cond

	now        time.Time
	seq        uint64
	wq         waiterHeap
	registered int
	paused     bool
	started    bool // the advancer goroutine is running
	stopped    bool
	fired      uint64
}

// waiter is one pending After/Sleep deadline.
type waiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
}

// waiterHeap orders waiters by (deadline, seq).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// NewFake returns a paused Fake clock starting at start. It starts no
// goroutine until the first Resume.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start, paused: true}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// run is the advancer: it fires exactly one waiter whenever the gate
// holds (not paused, at least one registered goroutine, and every
// registered goroutine parked on the clock), then re-evaluates. The
// fired goroutine's waiter is consumed before delivery, so the gate
// stays closed until it blocks on the clock again — single-stepping.
func (f *Fake) run() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.stopped {
		if !f.paused && f.registered > 0 && f.wq.Len() >= f.registered {
			w := heap.Pop(&f.wq).(*waiter)
			if w.deadline.After(f.now) {
				f.now = w.deadline
			}
			f.fire(w, f.now)
			continue
		}
		f.cond.Wait()
	}
}

// fire delivers t to w. The channel is buffered and fired once, so the
// send never blocks and survives an abandoned waiter. Callers hold f.mu.
func (f *Fake) fire(w *waiter, t time.Time) {
	w.ch <- t
	f.fired++
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After implements Clock. The returned channel fires when the clock
// reaches the deadline (immediately for d <= 0).
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.seq++
	heap.Push(&f.wq, &waiter{deadline: f.now.Add(d), seq: f.seq, ch: ch})
	f.cond.Broadcast()
	return ch
}

// Sleep implements Clock; it blocks until the clock reaches the
// deadline.
func (f *Fake) Sleep(d time.Duration) {
	<-f.After(d)
}

// Advance moves the clock forward by d and fires every waiter whose
// deadline is reached, in (deadline, After call) order. Each receives
// the new time.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	for f.wq.Len() > 0 && !f.wq[0].deadline.After(f.now) {
		f.fire(heap.Pop(&f.wq).(*waiter), f.now)
	}
}

// Set jumps the clock to t (which must not be earlier than the current
// time) and fires due waiters as Advance does.
func (f *Fake) Set(t time.Time) {
	d := t.Sub(f.Now())
	if d < 0 {
		panic("clock: Set would move the fake clock backwards")
	}
	f.Advance(d)
}

// register declares the calling goroutine as a participant: an
// auto-advancing clock will not advance while it is runnable.
func (f *Fake) register() {
	f.mu.Lock()
	f.registered++
	f.cond.Broadcast()
	f.mu.Unlock()
}

// unregister withdraws a participant. A still-pending wait channel it
// created is removed from the queue (a stale waiter would otherwise
// skew the gate); one already fired is simply not found.
func (f *Fake) unregister(pending <-chan time.Time) {
	f.mu.Lock()
	for i, w := range f.wq {
		if w.ch == pending {
			heap.Remove(&f.wq, i)
			break
		}
	}
	f.registered--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Pause halts auto-advancing. Now keeps answering; waiters queue but do
// not fire until Resume or Advance.
func (f *Fake) Pause() {
	f.mu.Lock()
	f.paused = true
	f.mu.Unlock()
}

// Resume turns on auto-advancing, starting the advancer goroutine on
// first use. Call Stop when done with a resumed clock to release it.
func (f *Fake) Resume() {
	f.mu.Lock()
	f.paused = false
	if !f.started {
		f.started = true
		go f.run()
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Stop ends auto-advancing for good and releases the advancer
// goroutine; Resume has no effect afterwards. Advance still works.
func (f *Fake) Stop() {
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// PendingWaiters reports how many After/Sleep callers are queued.
func (f *Fake) PendingWaiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wq.Len()
}

// Fired reports how many queued waiters have been delivered — a cheap
// progress probe for harness diagnostics.
func (f *Fake) Fired() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// LoopGo runs fn every interval until ctx is done, in its own
// goroutine, timing the waits through clk (first run one interval after
// the call) and handing fn the time each wait fired with. It is the one
// clock-timed loop in the tree. On a Fake the loop is registered as a
// participant, and registered before launch: a paused Fake's gate
// counts registered goroutines, and a loop that registered only after
// the scheduler got around to it would let the gate open early — the
// clock could jump past the loop's first interval before the loop even
// queued a waiter. On exit the loop withdraws its pending waiter. done,
// if non-nil, runs when the loop exits (a WaitGroup hook).
func LoopGo(ctx context.Context, clk Clock, interval time.Duration, fn func(now time.Time), done func()) {
	if clk == nil {
		clk = System
	}
	fake, _ := clk.(*Fake)
	if fake != nil {
		fake.register()
	}
	go func() {
		if done != nil {
			defer done()
		}
		var ch <-chan time.Time
		if fake != nil {
			defer func() { fake.unregister(ch) }()
		}
		for {
			ch = clk.After(interval)
			select {
			case <-ctx.Done():
				return
			case now := <-ch:
				if ctx.Err() != nil {
					return
				}
				fn(now)
			}
		}
	}()
}
