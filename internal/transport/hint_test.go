package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func withHint(parent context.Context, d time.Duration) *hintCtx {
	return &hintCtx{Context: parent, deadline: time.Now().Add(d)}
}

// waitDone fails t unless ctx ends within limit, and returns how long
// that took.
func waitDone(t *testing.T, ctx context.Context, limit time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	select {
	case <-ctx.Done():
		return time.Since(start)
	case <-time.After(limit):
		t.Fatalf("context still open after %v", limit)
		return 0
	}
}

func TestHintContextEndsAtTheDeadline(t *testing.T) {
	const d = 30 * time.Millisecond
	c := withHint(context.Background(), d)
	defer c.release()
	if dl, ok := c.Deadline(); !ok || time.Until(dl) > d {
		t.Fatalf("Deadline() = %v, %v; want one at most %v away", dl, ok, d)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v, want nil", err)
	}
	child, cancel := context.WithCancel(c)
	defer cancel()
	if took := waitDone(t, c, 10*time.Second); took < d/2 {
		t.Fatalf("Done closed after %v, before the deadline", took)
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	waitDone(t, child, 10*time.Second)
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("child's Err = %v, want DeadlineExceeded", err)
	}
}

func TestHintContextErrAfterTheDeadlineWithoutDone(t *testing.T) {
	c := withHint(context.Background(), time.Millisecond)
	defer c.release()
	time.Sleep(5 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	waitDone(t, c, time.Second) // already closed
}

func TestHintContextFollowsItsParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := withHint(parent, time.Hour)
	defer c.release()
	done := c.Done()
	cancel()
	waitDone(t, c, 10*time.Second)
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the parent's cancel = %v, want Canceled", err)
	}
	if done != c.Done() {
		t.Fatal("Done changed once armed")
	}

	// A parent cancelled before anyone waited shows through Err alone.
	parent, cancel = context.WithCancel(context.Background())
	c = withHint(parent, time.Hour)
	defer c.release()
	cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after an unwatched parent's cancel = %v, want Canceled", err)
	}
}

// TestHintContextArmsOnlyWhenAwaited: a request whose handler never
// waits on Done is served without a timer, and the handler's return
// ends its context, armed or not.
func TestHintContextArmsOnlyWhenAwaited(t *testing.T) {
	var got []*hintCtx
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		c := ctx.(*hintCtx)
		got = append(got, c)
		switch req.Method {
		case "Look":
			_, _ = c.Deadline()
			if err := c.Err(); err != nil {
				return ErrorFor(req, err)
			}
		case "Wait":
			_ = c.Done()
		}
		return Response{OK: true}
	})
	for _, method := range []string{"Look", "Wait"} {
		s := &served{req: Request{Service: "cal.phil", Method: method}}
		s.req.SetDeadline(time.Hour)
		if s.run(context.Background(), h); !s.resp.OK {
			t.Fatalf("%s: %+v", method, s.resp)
		}
	}
	look, wait := got[0], got[1]
	if look.armed != nil {
		t.Fatal("a handler that never waited armed a timer")
	}
	if wait.armed == nil || !errors.Is(wait.armed.Err(), context.Canceled) {
		t.Fatal("the handler's return did not cancel the timer Done armed")
	}
	for _, c := range got {
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err after the handler returned = %v, want Canceled", err)
		}
		select {
		case <-c.Done():
		default:
			t.Fatal("Done open after the handler returned")
		}
	}
}

// TestDeadlineHintReArmsContext: a socket carries no context, so a TCP
// handler sees its caller's deadline hint as its context's deadline, and
// a request without one runs under no deadline.
func TestDeadlineHintReArmsContext(t *testing.T) {
	type seen struct {
		ok     bool
		budget time.Duration
	}
	got := make(chan seen, 1)
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		d, ok := ctx.Deadline()
		got <- seen{ok, time.Until(d)}
		return Response{OK: true}
	})
	net := NewTCP()
	defer net.Close()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	req := &Request{Service: "cal.phil", Method: "Probe"}
	req.SetDeadline(500 * time.Millisecond)
	if resp, err := net.Call(context.Background(), ln.Addr(), req); err != nil || !resp.OK {
		t.Fatalf("Call = %+v, %v", resp, err)
	}
	if s := <-got; !s.ok || s.budget <= 0 || s.budget > 500*time.Millisecond {
		t.Fatalf("hadDeadline=%v budget=%v, want a fresh deadline ≤500ms", s.ok, s.budget)
	}

	req = &Request{Service: "cal.phil", Method: "Probe"}
	if resp, err := net.Call(context.Background(), ln.Addr(), req); err != nil || !resp.OK {
		t.Fatalf("Call = %+v, %v", resp, err)
	}
	if s := <-got; s.ok {
		t.Fatalf("a request without a hint ran under a deadline %v away", s.budget)
	}
}
