package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOut: every index runs exactly once, min(n, DefaultGroupLimit)
// of them at once and never more, and fan-outs running at once keep to
// their own indices.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, DefaultGroupLimit, DefaultGroupLimit + 5} {
		runs := make([]atomic.Int64, n)
		var started, inFlight, peak atomic.Int64
		width := int64(min(n, DefaultGroupLimit))
		full := make(chan struct{}) // closed once width calls are running
		FanOut(n, func(i int) {
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			if started.Add(1) == width {
				close(full)
			}
			select {
			case <-full:
			case <-time.After(5 * time.Second):
				t.Errorf("n=%d: index %d waited 5s for %d concurrent calls", n, i, width)
			}
			inFlight.Add(-1)
			runs[i].Add(1)
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times, want once", n, i, got)
			}
		}
		if p := peak.Load(); p != width {
			t.Fatalf("n=%d: peak concurrency %d, want %d", n, p, width)
		}
	}

	// Concurrent fan-outs share the pool of FanOut states: each calls
	// its own f with its own indices only, each once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				n := (g + r) % 9
				runs := make([]atomic.Int64, n)
				FanOut(n, func(i int) {
					if i < 0 || i >= n {
						t.Errorf("a fan-out of %d ran index %d", n, i)
						return
					}
					runtime.Gosched()
					runs[i].Add(1)
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("a fan-out of %d ran index %d %d times, want once", n, i, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanOutOfNoneOrOneStartsNoGoroutine: each go statement FanOut runs
// allocates its closure, so fan-outs of none and of one allocate the
// same (neither starts a goroutine) and one of two allocates more (it
// starts one).
func TestFanOutOfNoneOrOneStartsNoGoroutine(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(200, func() { FanOut(n, func(int) {}) })
	}
	zero, one, two := allocs(0), allocs(1), allocs(2)
	if zero != one || two <= one {
		t.Fatalf("allocs at n=0, 1, 2 = %v, %v, %v: want n=0 equal to n=1 and n=2 above both", zero, one, two)
	}
}
