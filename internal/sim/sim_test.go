package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

type okHandler struct {
	events atomic.Int64
	calls  atomic.Int64
}

func (h *okHandler) HandleRequest(ctx context.Context, req *transport.Request) *transport.Response {
	h.calls.Add(1)
	return &transport.Response{ID: req.ID, OK: true}
}

func (h *okHandler) HandleEvent(ev *transport.Event) { h.events.Add(1) }

func TestListenAssignsUniqueAddrs(t *testing.T) {
	n := New(Config{})
	a, err := n.Listen("", &okHandler{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen(":0", &okHandler{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("duplicate auto addresses %q", a.Addr())
	}
}

func TestListenDuplicateAddrFails(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("phil", &okHandler{}); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestCallDelivers(t *testing.T) {
	n := New(Config{})
	h := &okHandler{}
	if _, err := n.Listen("phil", h); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || h.calls.Load() != 1 {
		t.Fatalf("resp=%+v calls=%d", resp, h.calls.Load())
	}
}

func TestCallUnknownEndpoint(t *testing.T) {
	n := New(Config{})
	_, err := n.Call(context.Background(), "ghost", &transport.Request{Service: "s", Method: "m"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestSetDownBlocksAndRestores(t *testing.T) {
	n := New(Config{})
	h := &okHandler{}
	if _, err := n.Listen("phil", h); err != nil {
		t.Fatal(err)
	}
	n.SetDown("phil", true)
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("down device reachable: %v", err)
	}
	n.SetDown("phil", false)
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); err != nil {
		t.Fatalf("restored device unreachable: %v", err)
	}
}

func TestPartitionBlocksPairOnly(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("andy", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	n.Partition("phil", "andy")

	// andy -> phil blocked (both orientations of the pair).
	_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("partitioned call went through: %v", err)
	}
	_, err = n.Call(context.Background(), "andy", &transport.Request{Service: "s", Method: "m", Caller: "phil"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("partitioned call (reverse) went through: %v", err)
	}
	// suzy -> phil unaffected.
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "suzy"}); err != nil {
		t.Fatalf("unrelated caller blocked: %v", err)
	}
	n.Heal("andy", "phil") // order-insensitive
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"}); err != nil {
		t.Fatalf("healed partition still blocks: %v", err)
	}
}

func TestPartitionOneWayBlocksSingleDirection(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("andy", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	n.PartitionOneWay("andy", "phil")

	// andy -> phil blocked.
	_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("one-way-partitioned call went through: %v", err)
	}
	// phil -> andy still works (the asymmetric half).
	if _, err := n.Call(context.Background(), "andy", &transport.Request{Service: "s", Method: "m", Caller: "phil"}); err != nil {
		t.Fatalf("reverse direction blocked: %v", err)
	}
	// Heal clears one-way state regardless of argument order.
	n.Heal("phil", "andy")
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"}); err != nil {
		t.Fatalf("healed one-way partition still blocks: %v", err)
	}
}

func TestFlapPartition(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	call := func() error {
		_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"})
		return err
	}
	stop := n.FlapPartition("andy", "phil", 5*time.Millisecond)
	// Starts partitioned.
	if err := call(); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("flap did not start partitioned: %v", err)
	}
	// Over a few periods both states must be observed.
	var sawUp, sawDown bool
	deadline := time.Now().Add(2 * time.Second)
	for (!sawUp || !sawDown) && time.Now().Before(deadline) {
		if call() == nil {
			sawUp = true
		} else {
			sawDown = true
		}
		time.Sleep(time.Millisecond)
	}
	if !sawUp || !sawDown {
		t.Fatalf("flapping not observed: up=%v down=%v", sawUp, sawDown)
	}
	stop()
	stop() // idempotent
	if err := call(); err != nil {
		t.Fatalf("stop did not heal the pair: %v", err)
	}

	// The same schedule on a resumed clock, probed by a loop of its own
	// whose period never coincides with a flap. The probe pauses the
	// clock once it has seen both states; stopping the flapper must then
	// withdraw its pending waiter.
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	defer clk.Stop()
	n = New(Config{Clock: clk})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	stop = n.FlapPartition("andy", "phil", 5*time.Millisecond)
	sawUp, sawDown = false, false
	ctx, cancel := context.WithCancel(context.Background())
	probed := make(chan struct{})
	clock.LoopGo(ctx, clk, 3*time.Millisecond, func(time.Time) {
		if call() == nil {
			sawUp = true
		} else {
			sawDown = true
		}
		if sawUp && sawDown {
			clk.Pause()
			cancel()
		}
	}, func() { close(probed) })
	clk.Resume()
	select {
	case <-probed:
	case <-time.After(5 * time.Second):
		t.Fatal("flapping not observed on the resumed clock")
	}
	stop()
	if n := clk.PendingWaiters(); n != 0 {
		t.Fatalf("stopped flapper left %d waiters", n)
	}
	if err := call(); err != nil {
		t.Fatalf("stop did not heal the pair: %v", err)
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int64 {
		n := New(Config{LossProb: 0.5, Seed: seed})
		if _, err := n.Listen("phil", &okHandler{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			_, _ = n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"})
		}
		return n.Stats().Dropped
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 400 {
		t.Fatalf("LossProb=0.5 dropped %d of 200 calls", a)
	}
}

func TestLatencyApplied(t *testing.T) {
	n := New(Config{BaseLatency: 20 * time.Millisecond})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	// Request + response leg = 2 * BaseLatency.
	if got := time.Since(start); got < 40*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 40ms", got)
	}
}

func TestLatencyRespectsContext(t *testing.T) {
	n := New(Config{BaseLatency: 10 * time.Second})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := n.Call(ctx, "phil", &transport.Request{Service: "s", Method: "m"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestSendEventDelivered(t *testing.T) {
	n := New(Config{})
	h := &okHandler{}
	if _, err := n.Listen("phil", h); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(context.Background(), "phil", &transport.Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.events.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("event not delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsCounting(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(context.Background(), "phil", &transport.Event{Name: "e"}); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Requests != 3 || st.Responses != 3 || st.Events != 1 {
		t.Fatalf("stats = %+v", st)
	}
	n.ResetStats()
	if got := n.Stats(); got != (Stats{}) {
		t.Fatalf("after reset: %+v", got)
	}
}

func TestEndpointCloseUnbinds(t *testing.T) {
	n := New(Config{})
	ln, err := n.Listen("phil", &okHandler{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("closed endpoint still reachable: %v", err)
	}
	// Address can be rebound.
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimCall(b *testing.B) {
	n := New(Config{})
	h := &okHandler{}
	if _, err := n.Listen("phil", h); err != nil {
		b.Fatal(err)
	}
	req := &transport.Request{Service: "s", Method: "m"}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Call(ctx, "phil", req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 5})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	// Round trip = 2 legs; each leg in [1ms, 3ms) -> total in [2ms, 6ms).
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"}); err != nil {
			t.Fatal(err)
		}
		got := time.Since(start)
		if got < 2*time.Millisecond {
			t.Fatalf("round trip %v under the base latency", got)
		}
		if got > 60*time.Millisecond { // generous scheduling slack
			t.Fatalf("round trip %v far above base+jitter", got)
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	// Same seed -> same jitter draws -> byte-identical drop decisions
	// under combined loss+jitter.
	run := func() (int64, int64) {
		n := New(Config{Jitter: time.Microsecond, LossProb: 0.3, Seed: 11})
		if _, err := n.Listen("phil", &okHandler{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			_, _ = n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"})
		}
		st := n.Stats()
		return st.Requests, st.Dropped
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", r1, d1, r2, d2)
	}
}

func TestRuntimeMutableFaults(t *testing.T) {
	n := New(Config{Seed: 7})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	call := func() error {
		_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"})
		return err
	}
	// Loss-free at construction: every call lands.
	for i := 0; i < 50; i++ {
		if err := call(); err != nil {
			t.Fatalf("loss-free call %d failed: %v", i, err)
		}
	}
	// Flip loss on mid-run.
	n.SetLoss(1)
	if err := call(); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("full loss delivered: %v", err)
	}
	// And back off: the same live network heals.
	n.SetLoss(0)
	if err := call(); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
	// Latency is mutable the same way.
	n.SetLatency(15*time.Millisecond, 0)
	start := time.Now()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 30*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 30ms", got)
	}
	n.SetLatency(0, 0)
	start = time.Now()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > 10*time.Millisecond {
		t.Fatalf("latency not removed: round trip %v", got)
	}
}

func TestIsolateCutsBothDirections(t *testing.T) {
	n := New(Config{})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("andy", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	n.Isolate("phil", true)

	// Inbound to the isolated device is blocked, even for
	// infrastructure calls with no caller.
	_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("call into isolated device went through: %v", err)
	}
	_, err = n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("callerless call into isolated device went through: %v", err)
	}
	// Outbound from the isolated device is blocked too — unlike SetDown.
	_, err = n.Call(context.Background(), "andy", &transport.Request{Service: "s", Method: "m", Caller: "phil"})
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("call out of isolated device went through: %v", err)
	}
	// Unrelated traffic is unaffected.
	if _, err := n.Call(context.Background(), "andy", &transport.Request{Service: "s", Method: "m", Caller: "suzy"}); err != nil {
		t.Fatalf("unrelated call blocked: %v", err)
	}
	n.Isolate("phil", false)
	if _, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"}); err != nil {
		t.Fatalf("reconnected device unreachable: %v", err)
	}
}

// TestFlapPartitionOnFakeClock: flap periods are timed through the
// injected clock, so advancing a fake clock toggles the partition
// without any wall-clock waiting.
func TestFlapPartitionOnFakeClock(t *testing.T) {
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	n := New(Config{Clock: clk})
	if _, err := n.Listen("phil", &okHandler{}); err != nil {
		t.Fatal(err)
	}
	call := func() error {
		_, err := n.Call(context.Background(), "phil", &transport.Request{Service: "s", Method: "m", Caller: "andy"})
		return err
	}
	stop := n.FlapPartition("andy", "phil", time.Minute)
	defer stop()
	if err := call(); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("flap did not start partitioned: %v", err)
	}
	// One period heals, the next cuts again. The flapper re-arms its
	// wait asynchronously, so poll for each state change.
	await := func(wantUp bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			up := call() == nil
			if up == wantUp {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("flap never reached up=%v", wantUp)
			}
			clk.Advance(time.Minute)
			time.Sleep(time.Millisecond)
		}
	}
	await(true)
	await(false)
}
