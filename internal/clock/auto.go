package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// FakeAuto is a deterministic auto-advancing clock: the scale harness's
// time compressor (the NewFakeClockAuto pattern — a fake clock that
// advances automatically when every registered goroutine is blocked
// waiting on it). Simulated hours elapse in wall-clock microseconds
// because the clock jumps straight to the next deadline instead of
// waiting it out.
//
// The contract that makes runs reproducible:
//
//   - Every goroutine that blocks on the clock (After/Sleep) must be
//     registered via RegisterGoroutine, and must hold at most one
//     outstanding wait at a time. The harness's device drivers and the
//     kernel's periodic loops (event.Handler.Every, clock.LoopGo) do this
//     automatically when they detect an AutoRegistrar clock.
//   - The clock advances one waiter at a time, in (deadline, creation
//     order) order, and only while ALL registered goroutines are parked
//     on it. A woken goroutine therefore runs alone: no two waiters'
//     work ever overlaps, so shared state is touched in a deterministic
//     sequence (single-stepped discrete-event execution).
//   - Waiters with equal deadlines fire in the order their After calls
//     happened, which is only deterministic if those calls were
//     themselves single-stepped. Order-sensitive work must use distinct
//     deadlines (the scale harness offsets every device's schedule by a
//     per-device epsilon for exactly this reason).
//
// A FakeAuto starts paused so a harness can boot a fleet without
// virtual time running away; call Resume once the drivers are
// registered, and Pause again before tearing the fleet down (otherwise
// the periodic loops left sleeping would spin virtual time forever).
type FakeAuto struct {
	mu   sync.Mutex
	cond *sync.Cond

	now        time.Time
	seq        uint64
	wq         waiterHeap
	registered int
	paused     bool
	stopped    bool
	fired      uint64
}

// autoWaiter is one pending After/Sleep deadline.
type autoWaiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
}

// waiterHeap orders waiters by (deadline, seq).
type waiterHeap []*autoWaiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*autoWaiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// AutoRegistrar is implemented by clocks that auto-advance when all
// registered goroutines are blocked on them. Periodic loops check for
// it so a FakeAuto-driven deployment single-steps deterministically.
type AutoRegistrar interface {
	// RegisterGoroutine declares the calling goroutine as a clock
	// participant: the clock will not advance while it is runnable.
	RegisterGoroutine()
	// UnregisterGoroutine withdraws the goroutine. Any still-pending
	// wait channels it created must be passed so the clock can drop
	// them (a stale waiter would otherwise wedge or skew the gate).
	UnregisterGoroutine(pending ...<-chan time.Time)
}

// NewFakeAuto returns a paused auto-advancing clock starting at start.
// Call Resume to let virtual time move; call Stop when done with the
// clock to release its advancer goroutine.
func NewFakeAuto(start time.Time) *FakeAuto {
	f := &FakeAuto{now: start, paused: true}
	f.cond = sync.NewCond(&f.mu)
	go f.run()
	return f
}

// run is the advancer: it fires exactly one waiter whenever the gate
// holds (not paused, at least one registered goroutine, and every
// registered goroutine parked on the clock), then re-evaluates. The
// fired goroutine's waiter is consumed before delivery, so the gate
// stays closed until it blocks on the clock again — single-stepping.
func (f *FakeAuto) run() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.stopped {
			return
		}
		if !f.paused && f.registered > 0 && f.wq.Len() >= f.registered {
			w := heap.Pop(&f.wq).(*autoWaiter)
			if w.deadline.After(f.now) {
				f.now = w.deadline
			}
			w.ch <- f.now // buffered: never blocks, survives an abandoned waiter
			f.fired++
			continue
		}
		f.cond.Wait()
	}
}

// Now implements Clock.
func (f *FakeAuto) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After implements Clock. The returned channel fires when the advancer
// reaches the deadline (immediately for d <= 0).
func (f *FakeAuto) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.seq++
	heap.Push(&f.wq, &autoWaiter{deadline: f.now.Add(d), seq: f.seq, ch: ch})
	f.cond.Broadcast()
	return ch
}

// Sleep implements Clock; it parks the goroutine until the advancer
// reaches the deadline.
func (f *FakeAuto) Sleep(d time.Duration) {
	<-f.After(d)
}

// RegisterGoroutine implements AutoRegistrar.
func (f *FakeAuto) RegisterGoroutine() {
	f.mu.Lock()
	f.registered++
	f.cond.Broadcast()
	f.mu.Unlock()
}

// UnregisterGoroutine implements AutoRegistrar. Pending wait channels
// created by the leaving goroutine are removed from the queue (a
// channel the advancer already fired is simply not found — that is
// fine).
func (f *FakeAuto) UnregisterGoroutine(pending ...<-chan time.Time) {
	f.mu.Lock()
	for _, ch := range pending {
		for i, w := range f.wq {
			if w.ch == ch {
				heap.Remove(&f.wq, i)
				break
			}
		}
	}
	f.registered--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Pause halts auto-advancement (boot and teardown windows). Now keeps
// answering; waiters queue but do not fire.
func (f *FakeAuto) Pause() {
	f.mu.Lock()
	f.paused = true
	f.mu.Unlock()
}

// Resume lets the advancer run.
func (f *FakeAuto) Resume() {
	f.mu.Lock()
	f.paused = false
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Stop terminates the advancer goroutine. The clock is dead afterwards:
// waiters never fire and Resume has no effect.
func (f *FakeAuto) Stop() {
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// PendingWaiters reports how many After/Sleep callers are queued.
func (f *FakeAuto) PendingWaiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wq.Len()
}

// Registered reports how many goroutines are registered.
func (f *FakeAuto) Registered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.registered
}

// Fired reports how many waiters the advancer has delivered — a cheap
// progress probe for harness diagnostics.
func (f *FakeAuto) Fired() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// LoopGo runs fn every interval until ctx is done, in its own
// goroutine, timing the waits through clk (first run one interval after
// the call). It is the clock-aware replacement for a time.NewTicker
// goroutine: on an AutoRegistrar clock the loop is registered so virtual
// time can advance deterministically through its waits, and registered
// *before* launch. Registration must be synchronous with the spawn
// site: a paused FakeAuto gate counts registered goroutines, and a loop
// that registered only after the scheduler got around to it would let
// the gate open early — the clock could jump past the loop's first
// interval before the loop even queued a waiter. done, if non-nil, runs
// when the loop exits (a WaitGroup hook).
func LoopGo(ctx context.Context, clk Clock, interval time.Duration, fn func(context.Context), done func()) {
	if clk == nil {
		clk = System
	}
	ar, auto := clk.(AutoRegistrar)
	if auto {
		ar.RegisterGoroutine()
	}
	go func() {
		if done != nil {
			defer done()
		}
		for {
			ch := clk.After(interval)
			select {
			case <-ctx.Done():
				if auto {
					ar.UnregisterGoroutine(ch)
				}
				return
			case <-ch:
				if ctx.Err() != nil {
					if auto {
						ar.UnregisterGoroutine()
					}
					return
				}
				fn(ctx)
			}
		}
	}()
}
