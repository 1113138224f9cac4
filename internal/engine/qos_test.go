package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/listener"
	"repro/internal/wire"
)

// flakyNode counts attempts and succeeds from attempt N on.
func (w *testWorld) addFlakyNode(user string, failFirst int) *atomic.Int64 {
	w.t.Helper()
	var attempts atomic.Int64
	l := listener.New(user, nil)
	obj := listener.NewObject()
	obj.Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) {
		n := attempts.Add(1)
		if int(n) <= failFirst {
			return nil, &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "transient"}
		}
		return "pong", nil
	})
	obj.Handle("Conflict", func(ctx context.Context, call *listener.Call) (any, error) {
		attempts.Add(1)
		return nil, &wire.RemoteError{Code: wire.CodeConflict, Msg: "permanent"}
	})
	l.Register("flaky."+user, obj)
	ln, err := w.net.Listen("node-"+user, l)
	if err != nil {
		w.t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.dir.RegisterUser(ctx, user, ln.Addr(), 0); err != nil {
		w.t.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, w.dir, "flaky."+user, ln.Addr()); err != nil {
		w.t.Fatal(err)
	}
	return &attempts
}

// invokeQoS sends one call through e under Retry(qos), backing off on
// clk — how links.Manager sends its redrives.
func invokeQoS(ctx context.Context, e *Engine, qos QoS, clk clock.Clock, service, method string, out any) error {
	return Retry(ctx, qos, clk, func(ctx context.Context) error {
		return e.Invoke(ctx, service, method, nil, out)
	})
}

func TestInvokeQoSRetriesTransientFailures(t *testing.T) {
	w := newWorld(t)
	attempts := w.addFlakyNode("phil", 2)
	e := New(w.net, w.dir, "andy")

	var out string
	err := invokeQoS(context.Background(), e, QoS{Retries: 3}, clock.System, "flaky.phil", "Ping", &out)
	if err != nil {
		t.Fatal(err)
	}
	if out != "pong" || attempts.Load() != 3 {
		t.Fatalf("out=%q attempts=%d", out, attempts.Load())
	}
}

func TestInvokeQoSExhaustsRetries(t *testing.T) {
	w := newWorld(t)
	attempts := w.addFlakyNode("phil", 100)
	e := New(w.net, w.dir, "andy")
	err := invokeQoS(context.Background(), e, QoS{Retries: 2}, clock.System, "flaky.phil", "Ping", nil)
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 3 {
		t.Fatalf("attempts = %d", attempts.Load())
	}
}

func TestInvokeQoSDoesNotRetryPermanentErrors(t *testing.T) {
	w := newWorld(t)
	attempts := w.addFlakyNode("phil", 0)
	e := New(w.net, w.dir, "andy")
	err := invokeQoS(context.Background(), e, QoS{Retries: 5}, clock.System, "flaky.phil", "Conflict", nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("permanent error retried %d times", attempts.Load())
	}
}

func TestInvokeQoSBestEffortIsSingleAttempt(t *testing.T) {
	w := newWorld(t)
	attempts := w.addFlakyNode("phil", 1)
	e := New(w.net, w.dir, "andy")
	err := invokeQoS(context.Background(), e, QoS{}, clock.System, "flaky.phil", "Ping", nil)
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d", attempts.Load())
	}
}

func TestInvokeQoSRespectsContextCancel(t *testing.T) {
	w := newWorld(t)
	w.addFlakyNode("phil", 100)
	e := New(w.net, w.dir, "andy")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- invokeQoS(ctx, e, QoS{Retries: 100, Backoff: time.Hour}, clock.System, "flaky.phil", "Ping", nil)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrying invoke hung on cancelled context")
	}
}

func TestInvokeQoSRecoversAcrossReRegistration(t *testing.T) {
	// The device dies, then re-registers at a new address; QoS retry
	// with lookup invalidation finds it.
	w := newWorld(t)
	w.addNode("phil")
	e := New(w.net, w.dir, "andy")
	w.net.SetDown("node-phil", true)

	done := make(chan error, 1)
	go func() {
		done <- invokeQoS(context.Background(), e, QoS{Retries: 20, Backoff: 5 * time.Millisecond}, clock.System,
			"cal.phil", "WhoAmI", nil)
	}()
	time.Sleep(15 * time.Millisecond)
	w.net.SetDown("node-phil", false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry never succeeded after device returned")
	}
}

func TestInvokeQoSBackoffUsesClock(t *testing.T) {
	// With a fake backoff clock, retries block until the clock advances
	// — proving the backoff waits (and doubles) rather than spinning.
	fake := clock.NewFake(time.Unix(0, 0))

	w := newWorld(t)
	attempts := w.addFlakyNode("phil", 2)
	e := New(w.net, w.dir, "andy")

	done := make(chan error, 1)
	go func() {
		done <- invokeQoS(context.Background(), e, QoS{Retries: 2, Backoff: time.Minute}, fake, "flaky.phil", "Ping", nil)
	}()

	// First attempt happens immediately; then the retry waits on the
	// fake clock.
	waitAttempts := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for attempts.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("attempts = %d, want %d", attempts.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitAttempts(1)
	select {
	case err := <-done:
		t.Fatalf("returned before backoff elapsed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Advance 1 minute -> second attempt; backoff doubles to 2m.
	for fake.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	fake.Advance(time.Minute)
	waitAttempts(2)
	for fake.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	fake.Advance(2 * time.Minute)
	waitAttempts(3)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrying invoke never returned")
	}
}
