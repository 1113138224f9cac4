package transport

import (
	"context"
	"sync"
	"time"
)

// hintCtx is the context a TCP request runs under when its caller sent a
// deadline hint: a socket brings no deadline, and the parent is the
// listener's context, which Close cancels. Deadline reports the hint at
// once; the timer behind Done, a context.WithDeadline of the parent, is
// armed only when Done is first called, or Err after the deadline or the
// parent's end. Most handlers never wait (a lock wait or an onward Invoke
// does), so most requests allocate nothing here. An armed one's served
// object is not recycled: a context package goroutine may still watch it.
type hintCtx struct {
	context.Context // the parent
	deadline        time.Time

	mu       sync.Mutex
	armed    context.Context // nil until armed
	cancel   context.CancelFunc
	released bool // the handler has returned
}

func (c *hintCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *hintCtx) Done() <-chan struct{} { return c.arm().Done() }

func (c *hintCtx) Err() error {
	c.mu.Lock()
	idle := c.armed == nil && !c.released
	c.mu.Unlock()
	if idle && c.Context.Err() == nil && time.Now().Before(c.deadline) {
		return nil
	}
	return c.arm().Err()
}

func (c *hintCtx) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.cancel = context.WithDeadline(c.Context, c.deadline)
		if c.released {
			c.cancel()
		}
	}
	return c.armed
}

// release ends the context once its handler has returned, as the cancel
// of a context.WithTimeout does, stopping the timer if it was armed.
func (c *hintCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.released = true
	if c.cancel != nil {
		c.cancel()
	}
}
