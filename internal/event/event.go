// Package event implements SyDEventHandler (paper §3.1d): "local and
// global event registration, monitoring, and triggering".
//
// Local events are in-process callbacks. Global events work by
// registration: a remote node subscribes to an event name on this node
// (through the events.<user> service object); when the event is
// raised here, a one-way wire.Event is sent to every remote
// subscriber, whose own event handler dispatches it locally.
//
// The handler also owns the periodic schedules the paper assigns to it
// ("periodically, the local event handler triggers a method which
// checks for links whose expiration times have been surpassed", §4.2
// op 6).
package event

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/listener"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ServicePrefix prefixes the per-user event service name.
const ServicePrefix = "events."

// ServiceFor returns the event service name for a user.
func ServiceFor(user string) string { return ServicePrefix + user }

// Handler is a node's event handler. Safe for concurrent use.
type Handler struct {
	self string
	net  transport.Network
	clk  clock.Clock

	mu     sync.RWMutex
	local  map[string]map[string]func(*wire.Event) // event -> subID -> fn
	remote map[string]map[string]string            // event -> subscriber user -> addr
	stops  []func()                                // schedule cancel functions
	closed bool

	wg sync.WaitGroup
}

// New creates an event handler for user self on net.
func New(self string, net transport.Network, clk clock.Clock) *Handler {
	if clk == nil {
		clk = clock.System
	}
	return &Handler{
		self:   self,
		net:    net,
		clk:    clk,
		local:  make(map[string]map[string]func(*wire.Event)),
		remote: make(map[string]map[string]string),
	}
}

// Subscribe registers a local callback for event name under id
// (replacing any previous callback with the same id).
func (h *Handler) Subscribe(name, id string, fn func(*wire.Event)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.local[name] == nil {
		h.local[name] = make(map[string]func(*wire.Event))
	}
	h.local[name][id] = fn
}

// Unsubscribe removes a local callback.
func (h *Handler) Unsubscribe(name, id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.local[name], id)
}

// SubscribeRemote records that subscriber (at addr) wants event name
// from this node. Normally reached through the event service object.
func (h *Handler) SubscribeRemote(name, subscriber, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.remote[name] == nil {
		h.remote[name] = make(map[string]string)
	}
	h.remote[name][subscriber] = addr
}

// UnsubscribeRemote removes a remote subscription.
func (h *Handler) UnsubscribeRemote(name, subscriber string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.remote[name], subscriber)
}

// RemoteSubscribers lists users subscribed to event name, sorted.
func (h *Handler) RemoteSubscribers(name string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.remote[name]))
	for u := range h.remote[name] {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Raise fires event name: local subscribers synchronously, remote
// subscribers via one-way sends (best effort; a down subscriber does
// not fail the raise).
func (h *Handler) Raise(ctx context.Context, name string, args wire.Args) {
	ctx, span := trace.Start(ctx, "event.raise")
	ev := &wire.Event{Name: name, Source: h.self, Args: args}
	h.Dispatch(ev)

	h.mu.RLock()
	targets := make(map[string]string, len(h.remote[name]))
	for u, addr := range h.remote[name] {
		targets[u] = addr
	}
	h.mu.RUnlock()
	if span != nil {
		span.Annotate(trace.String("event", name), trace.Int("subscribers", len(targets)))
		defer span.Finish()
	}
	for _, addr := range targets {
		_ = h.net.Send(ctx, addr, ev)
	}
}

// Dispatch delivers an event (inbound from the network, or locally
// raised) to local subscribers. Callbacks run synchronously in
// subscription-id order so tests and traces are deterministic.
func (h *Handler) Dispatch(ev *wire.Event) {
	h.mu.RLock()
	subs := h.local[ev.Name]
	ids := make([]string, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fns := make([]func(*wire.Event), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, subs[id])
	}
	h.mu.RUnlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// Every runs fn every interval until the returned cancel function is
// called (or the handler is closed). The first run happens one full
// interval after Every returns.
func (h *Handler) Every(interval time.Duration, fn func(now time.Time)) (cancel func()) {
	if interval <= 0 {
		panic("event: Every needs a positive interval")
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		cancel()
		return cancel
	}
	h.stops = append(h.stops, cancel)
	h.mu.Unlock()
	h.wg.Add(1)
	clock.LoopGo(ctx, h.clk, interval, fn, h.wg.Done)
	return cancel
}

// Object returns the listener object exposing remote subscription
// management for this handler (register it as events.<user>).
func (h *Handler) Object() *listener.Object {
	obj := listener.NewObject()
	obj.Handle("Subscribe", func(ctx context.Context, call *listener.Call) (any, error) {
		name := call.Args.String("event")
		addr := call.Args.String("addr")
		if name == "" || addr == "" {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "event and addr are required"}
		}
		h.SubscribeRemote(name, call.Caller, addr)
		return true, nil
	})
	obj.Handle("Unsubscribe", func(ctx context.Context, call *listener.Call) (any, error) {
		h.UnsubscribeRemote(call.Args.String("event"), call.Caller)
		return true, nil
	})
	return obj
}

// SubscribeTo registers this node for event name raised by sourceUser,
// asking that deliveries be sent to myAddr.
func SubscribeTo(ctx context.Context, e *engine.Engine, sourceUser, name, myAddr string) error {
	err := e.Invoke(ctx, ServiceFor(sourceUser), "Subscribe", wire.Args{
		"event": name, "addr": myAddr,
	}, nil)
	if err != nil {
		return fmt.Errorf("event: subscribe to %s@%s: %w", name, sourceUser, err)
	}
	return nil
}

// UnsubscribeFrom reverses SubscribeTo.
func UnsubscribeFrom(ctx context.Context, e *engine.Engine, sourceUser, name string) error {
	return e.Invoke(ctx, ServiceFor(sourceUser), "Unsubscribe", wire.Args{"event": name}, nil)
}

// Close cancels all schedules started with Every and waits for their
// goroutines to exit.
func (h *Handler) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	stops := h.stops
	h.stops = nil
	h.mu.Unlock()
	for _, cancel := range stops {
		cancel()
	}
	h.wg.Wait()
}
