package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoHandler answers every request with its own args echoed back and
// records events.
type echoHandler struct {
	events atomic.Int64
	delay  time.Duration
}

func (h *echoHandler) HandleRequest(ctx context.Context, req *Request) *Response {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	res, _ := wire.Marshal(req.Args)
	return &Response{ID: req.ID, OK: true, Result: res}
}

func (h *echoHandler) HandleEvent(ev *Event) { h.events.Add(1) }

func newTCPPair(t *testing.T, h Handler) (*TCP, string) {
	t.Helper()
	net := NewTCP()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		net.Close()
	})
	return net, ln.Addr()
}

func TestTCPCallRoundTrip(t *testing.T) {
	h := &echoHandler{}
	net, addr := newTCPPair(t, h)

	resp, err := net.Call(context.Background(), addr, &Request{
		Service: "echo", Method: "ping", Args: wire.Args{"x": "hello"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("response not OK: %+v", resp)
	}
	var out map[string]string
	if err := wire.Unmarshal(resp.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != "hello" {
		t.Fatalf("echo = %v", out)
	}
}

func TestTCPConcurrentCallsMultiplexed(t *testing.T) {
	h := &echoHandler{delay: 2 * time.Millisecond}
	net, addr := newTCPPair(t, h)

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := net.Call(context.Background(), addr, &Request{
				Service: "echo", Method: "ping", Args: wire.Args{"i": i},
			})
			if err != nil {
				errs[i] = err
				return
			}
			var out map[string]int
			if err := wire.Unmarshal(resp.Result, &out); err != nil {
				errs[i] = err
				return
			}
			if out["i"] != i {
				errs[i] = errors.New("cross-talk between multiplexed calls")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestTCPCallUnreachable(t *testing.T) {
	net := NewTCP()
	defer net.Close()
	_, err := net.Call(context.Background(), "127.0.0.1:1", &Request{Service: "s", Method: "m"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestTCPCallContextTimeout(t *testing.T) {
	h := &echoHandler{delay: 2 * time.Second}
	net, addr := newTCPPair(t, h)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := net.Call(ctx, addr, &Request{Service: "echo", Method: "ping"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestTCPSendEvent(t *testing.T) {
	h := &echoHandler{}
	net, addr := newTCPPair(t, h)

	if err := net.Send(context.Background(), addr, &Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.events.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("event never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	h := &echoHandler{}
	net := NewTCP()
	defer net.Close()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()

	if _, err := net.Call(context.Background(), addr, &Request{Service: "s", Method: "m"}); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	// Rebind the same address.
	ln2, err := net.Listen(addr, h)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln2.Close()

	// The cached client connection is dead; Call must transparently
	// reconnect.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := net.Call(ctx, addr, &Request{Service: "s", Method: "m"}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestTCPClosedNetworkRefusesCalls(t *testing.T) {
	net := NewTCP()
	net.Close()
	_, err := net.Call(context.Background(), "127.0.0.1:1", &Request{Service: "s", Method: "m"})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestHandlerFuncDropsEvents(t *testing.T) {
	called := false
	h := HandlerFunc(func(ctx context.Context, req *Request) *Response {
		called = true
		return &Response{ID: req.ID, OK: true}
	})
	h.HandleEvent(&Event{Name: "ignored"}) // must not panic
	resp := h.HandleRequest(context.Background(), &Request{ID: 9})
	if !called || !resp.OK {
		t.Fatal("HandlerFunc did not dispatch")
	}
}

func TestErrorResponse(t *testing.T) {
	req := &Request{ID: 7, Service: "cal", Method: "m"}
	resp := ErrorResponse(req, wire.CodeNoMethod, "no method %q", "m")
	if resp.ID != 7 || resp.OK || resp.Code != wire.CodeNoMethod {
		t.Fatalf("resp = %+v", resp)
	}
}

func BenchmarkTCPCall(b *testing.B) {
	h := &echoHandler{}
	net := NewTCP()
	ln, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	defer net.Close()
	req := &Request{Service: "echo", Method: "ping", Args: wire.Args{"x": 1}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Call(ctx, ln.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// metaHandler echoes the request metadata back as the result, proving
// the envelope survives TCP framing.
type metaHandler struct{}

func (metaHandler) HandleRequest(ctx context.Context, req *Request) *Response {
	res, _ := wire.Marshal(req.FullMeta())
	return &Response{ID: req.ID, OK: true, Result: res}
}

func (metaHandler) HandleEvent(ev *Event) {}

func TestTCPMetadataRoundTrip(t *testing.T) {
	net, addr := newTCPPair(t, metaHandler{})

	md := wire.Metadata{wire.MetaRequestID: "andy-9"}
	md.SetHops(2)
	md.SetDeadline(750 * time.Millisecond)
	resp, err := net.Call(context.Background(), addr, &Request{
		Service: "echo", Method: "meta", Caller: "andy", Meta: md,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen wire.Metadata
	if err := wire.Unmarshal(resp.Result, &seen); err != nil {
		t.Fatal(err)
	}
	if seen.Get(wire.MetaRequestID) != "andy-9" || seen.Hops() != 2 {
		t.Fatalf("server-side metadata = %v", seen)
	}
	if seen.Get(wire.MetaCaller) != "andy" {
		t.Fatalf("FullMeta lost the caller: %v", seen)
	}
	if seen.Deadline() != 750*time.Millisecond {
		t.Fatalf("deadline hint = %v", seen.Deadline())
	}
}
