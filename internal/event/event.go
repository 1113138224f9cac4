// Package event implements SyDEventHandler (paper §3.1d): "local and
// global event registration, monitoring, and triggering".
//
// What is left of it here is its monitoring half: the periodic
// schedules the paper assigns to it ("periodically, the local event
// handler triggers a method which checks for links whose expiration
// times have been surpassed", §4.2 op 6), and the node's heartbeats,
// lease renewals and checkpoints beside them. Global events are
// coordination links: a device that must hear of a change on another
// holds a link on the entity, and the link's trigger fires there as an
// acked invocation (links.TriggerEntity).
package event

import (
	"context"
	"sync"
	"time"

	"repro/internal/clock"
)

// Handler is a node's event handler. Safe for concurrent use.
type Handler struct {
	clk clock.Clock

	mu     sync.Mutex
	stops  []func() // schedule cancel functions
	closed bool

	wg sync.WaitGroup
}

// New creates an event handler whose schedules run on clk (nil: the
// system clock).
func New(clk clock.Clock) *Handler {
	if clk == nil {
		clk = clock.System
	}
	return &Handler{clk: clk}
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
