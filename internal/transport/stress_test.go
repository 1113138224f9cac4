package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestTCPCancelledCallDoesNotLoseLateResponse drives the cancel/deliver
// race: a caller whose context fires while the response is already in
// readLoop's hands must receive that response (the entry left pending)
// rather than dropping it.
func TestTCPCancelledCallDoesNotLoseLateResponse(t *testing.T) {
	h := &echoHandler{delay: 5 * time.Millisecond}
	net, addr := newTCPPair(t, h)

	var lost atomic.Int64
	var got atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deadline tuned to land right around response delivery.
			ctx, cancel := context.WithTimeout(context.Background(), h.delay+time.Duration(i%5)*time.Millisecond)
			defer cancel()
			resp, err := net.Call(ctx, addr, &Request{Service: "echo", Method: "ping", Args: wire.Args{wire.Int("i", i)}})
			switch {
			case err == nil:
				var out map[string]int
				if wire.Unmarshal(resp.Result, &out) != nil || out["i"] != i {
					lost.Add(1) // wrong response would be worse than none
				} else {
					got.Add(1)
				}
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrUnreachable):
				// Acceptable: genuinely timed out before delivery.
			default:
				t.Errorf("call %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if lost.Load() > 0 {
		t.Fatalf("%d cross-wired responses", lost.Load())
	}
}

// TestTCPStress mixes concurrent Calls, Sends, a server restart, and
// Close under the race detector, asserting that every acked response
// was real and that no goroutines leak. Every call brings new names, so
// far more than a name table holds cross each connection.
func TestTCPStress(t *testing.T) {
	baseline := runtime.NumGoroutine()

	h := &echoHandler{}
	cli := NewTCP(WithWireStats(&metrics.WireStats{}))
	srv := NewTCP(WithWireStats(&metrics.WireStats{}))
	ln, err := srv.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()

	const workers = 16
	const callsPerWorker = 50
	var acked atomic.Int64
	var wrong atomic.Int64
	var wg sync.WaitGroup

	stopRestarts := make(chan struct{})
	var restartWG sync.WaitGroup
	restartWG.Add(1)
	go func() {
		defer restartWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopRestarts:
				return
			case <-time.After(30 * time.Millisecond):
			}
			ln.Close()
			nl, err := srv.Listen(addr, h)
			if err != nil {
				// Port momentarily unavailable; retry next tick.
				continue
			}
			ln = nl
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				n := w*callsPerWorker + i
				if n%7 == 0 {
					_, _ = cli.Call(ctx, addr, &Request{Service: "echo", Method: "tick"})
					cancel()
					continue
				}
				// Keys of its own, so that each connection's name
				// tables fill and then carry on with literals.
				args := wire.Args{wire.Int("n", n)}
				for k := 0; k < 4; k++ {
					args = append(args, wire.Int(fmt.Sprintf("w%d-%d-%d", w, i, k), n+k))
				}
				resp, err := cli.Call(ctx, addr, &Request{Service: "echo", Method: "ping", Args: args})
				cancel()
				if err != nil {
					continue // restarts make some failures legitimate
				}
				var out map[string]int
				if wire.Unmarshal(resp.Result, &out) != nil || len(out) != len(args) || out["n"] != n ||
					out[fmt.Sprintf("w%d-%d-3", w, i)] != n+3 {
					wrong.Add(1)
				} else {
					acked.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopRestarts)
	restartWG.Wait()

	if wrong.Load() > 0 {
		t.Fatalf("%d acked responses carried the wrong payload", wrong.Load())
	}
	if acked.Load() == 0 {
		t.Fatal("no call ever succeeded; stress loop is not exercising the path")
	}

	ln.Close()
	cli.Close()
	srv.Close()

	// All readLoops, serve goroutines, and blocked writers must wind
	// down: goroutine count returns to (near) baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPRecycledReplyChannels: calls take their reply channels from a
// pool, and deadlines cut some of them while the reply is on its way. A
// channel put back while a late reply could still land in it would hand
// that reply to a later call, so every result must be its own request's
// echo.
func TestTCPRecycledReplyChannels(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		time.Sleep(time.Duration(req.Args.Int("n")%4) * 100 * time.Microsecond)
		res, _ := wire.Marshal(req.Args)
		return Response{ID: req.ID, OK: true, Result: res}
	})
	cli := NewTCP(WithWireStats(&metrics.WireStats{}))
	defer cli.Close()
	ln, err := NewTCP(WithWireStats(&metrics.WireStats{})).Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const workers, calls = 16, 200
	var acked, cut atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := w*calls + i
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+n%8)*250*time.Microsecond)
				resp, err := cli.Call(ctx, ln.Addr(), &Request{Service: "echo", Method: "ping", Args: wire.Args{wire.Int("n", n)}})
				cancel()
				switch {
				case err == nil:
					var out map[string]int
					if wire.Unmarshal(resp.Result, &out) != nil || out["n"] != n {
						t.Errorf("call %d got the reply %+v", n, resp.Result)
						return
					}
					acked.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					cut.Add(1)
				default:
					t.Errorf("call %d: %v", n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if acked.Load() == 0 {
		t.Fatal("no call returned a reply; the recycled path never ran")
	}
	t.Logf("%d calls answered, %d cut by their deadline", acked.Load(), cut.Load())
}
