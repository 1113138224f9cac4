package event

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/listener"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestLocalSubscribeRaise(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	var got []*wire.Event
	h.Subscribe("slot.changed", "s1", func(ev *wire.Event) { got = append(got, ev) })
	h.Raise(context.Background(), "slot.changed", wire.Args{"slot": "mon-9"})
	if len(got) != 1 || got[0].Args.String("slot") != "mon-9" || got[0].Source != "phil" {
		t.Fatalf("got = %+v", got)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	count := 0
	h.Subscribe("e", "s1", func(*wire.Event) { count++ })
	h.Raise(context.Background(), "e", nil)
	h.Unsubscribe("e", "s1")
	h.Raise(context.Background(), "e", nil)
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
}

func TestSubscribeReplacesSameID(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	var a, b int
	h.Subscribe("e", "s1", func(*wire.Event) { a++ })
	h.Subscribe("e", "s1", func(*wire.Event) { b++ })
	h.Raise(context.Background(), "e", nil)
	if a != 0 || b != 1 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestDispatchOrderDeterministic(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	var order []string
	for _, id := range []string{"c", "a", "b"} {
		id := id
		h.Subscribe("e", id, func(*wire.Event) { order = append(order, id) })
	}
	h.Raise(context.Background(), "e", nil)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestRemoteSubscriptionDelivery(t *testing.T) {
	net := sim.New(sim.Config{})
	// phil's node raises events; andy's node receives them.
	philH := New("phil", net, nil)
	andyH := New("andy", net, nil)

	andyL := listener.New("andy", nil)
	andyL.SetEventSink(andyH.Dispatch)
	andyLn, err := net.Listen("node-andy", andyL)
	if err != nil {
		t.Fatal(err)
	}

	delivered := make(chan *wire.Event, 1)
	andyH.Subscribe("calendar.changed", "watch", func(ev *wire.Event) { delivered <- ev })

	philH.SubscribeRemote("calendar.changed", "andy", andyLn.Addr())
	philH.Raise(context.Background(), "calendar.changed", wire.Args{"slot": "mon-9"})

	select {
	case ev := <-delivered:
		if ev.Source != "phil" || ev.Args.String("slot") != "mon-9" {
			t.Fatalf("ev = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("remote event not delivered")
	}
	if subs := philH.RemoteSubscribers("calendar.changed"); len(subs) != 1 || subs[0] != "andy" {
		t.Fatalf("subs = %v", subs)
	}
	philH.UnsubscribeRemote("calendar.changed", "andy")
	if subs := philH.RemoteSubscribers("calendar.changed"); len(subs) != 0 {
		t.Fatalf("subs after unsubscribe = %v", subs)
	}
}

func TestRaiseSurvivesDownSubscriber(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	h.SubscribeRemote("e", "ghost", "nowhere")
	local := 0
	h.Subscribe("e", "s", func(*wire.Event) { local++ })
	h.Raise(context.Background(), "e", nil) // must not panic or error
	if local != 1 {
		t.Fatalf("local = %d", local)
	}
}

func TestEveryFiresOnFakeClock(t *testing.T) {
	net := sim.New(sim.Config{})
	fake := clock.NewFake(time.Unix(0, 0))
	h := New("phil", net, fake)
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
	h = New("phil", net, auto)
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
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Every(0, func(time.Time) {})
}

func TestCloseStopsSchedules(t *testing.T) {
	net := sim.New(sim.Config{})
	fake := clock.NewFake(time.Unix(0, 0))
	h := New("phil", net, fake)
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

func TestEventServiceObjectEndToEnd(t *testing.T) {
	// Full global-event path through the engine: andy subscribes to
	// phil's event via the events.phil service; phil raises; andy's
	// handler sees it.
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.NewClient(net, dln.Addr())
	ctx := context.Background()

	philH := New("phil", net, nil)
	philL := listener.New("phil", nil)
	philL.Register(ServiceFor("phil"), philH.Object())
	philLn, err := net.Listen("node-phil", philL)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterUser(ctx, "phil", philLn.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	if err := philL.PublishGlobal(ctx, dir, ServiceFor("phil"), philLn.Addr()); err != nil {
		t.Fatal(err)
	}

	andyH := New("andy", net, nil)
	andyL := listener.New("andy", nil)
	andyL.SetEventSink(andyH.Dispatch)
	andyLn, err := net.Listen("node-andy", andyL)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []*wire.Event
	andyH.Subscribe("meeting.cancelled", "w", func(ev *wire.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})

	e := engine.New(net, dir, "andy")
	if err := SubscribeTo(ctx, e, "phil", "meeting.cancelled", andyLn.Addr()); err != nil {
		t.Fatal(err)
	}
	philH.Raise(ctx, "meeting.cancelled", wire.Args{"meeting": "M1"})

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("event not delivered end to end")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Args.String("meeting") != "M1" {
		t.Fatalf("got = %+v", got[0])
	}

	// Unsubscribe stops delivery.
	if err := UnsubscribeFrom(ctx, e, "phil", "meeting.cancelled"); err != nil {
		t.Fatal(err)
	}
	if subs := philH.RemoteSubscribers("meeting.cancelled"); len(subs) != 0 {
		t.Fatalf("subs = %v", subs)
	}
}

func TestObjectValidatesArgs(t *testing.T) {
	net := sim.New(sim.Config{})
	h := New("phil", net, nil)
	obj := h.Object()
	l := listener.New("phil", nil)
	l.Register(ServiceFor("phil"), obj)
	resp := l.HandleRequest(context.Background(), &wire.Request{
		Service: ServiceFor("phil"), Method: "Subscribe", Args: wire.Args{},
	})
	if resp.OK || resp.Code != wire.CodeBadArgs {
		t.Fatalf("resp = %+v", resp)
	}
}
