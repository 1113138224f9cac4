package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// echoHandler answers every request with its own args echoed back.
type echoHandler struct {
	delay time.Duration
}

func (h *echoHandler) HandleRequest(ctx context.Context, req *Request) Response {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	res, _ := wire.Marshal(req.Args)
	return Response{ID: req.ID, OK: true, Result: res}
}

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
		Service: "echo", Method: "ping", Args: wire.Args{wire.Str("x", "hello")},
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
				Service: "echo", Method: "ping", Args: wire.Args{wire.Int("i", i)},
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
	awaitDead(t, net, addr)
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

// awaitDead returns once net has seen its connection to addr close. A
// call must find it dead before it writes to be sent on a new one: a
// request written to a connection whose server has closed it is not sent
// again (at most once).
func awaitDead(t *testing.T, net *TCP, addr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		net.mu.Lock()
		c := net.conns[addr]
		net.mu.Unlock()
		if c == nil || c.isDead() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the client never saw its connection close")
		}
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
	req := &Request{Service: "echo", Method: "ping", Args: wire.Args{wire.Int("x", 1)}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Call(ctx, ln.Addr(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// metaHandler echoes the request back as the result, proving the
// envelope survives TCP framing.
type metaHandler struct{}

func (metaHandler) HandleRequest(ctx context.Context, req *Request) Response {
	res, _ := wire.Marshal(req)
	return Response{ID: req.ID, OK: true, Result: res}
}

// TestTCPMetadataRoundTrip: a request's metadata (a key its caller
// set), its deadline hint and its caller reach the handler exactly, on a
// connection's first call, whose names go out as literals, and on the
// next, whose names are references into the connection's name table.
func TestTCPMetadataRoundTrip(t *testing.T) {
	_, addr := newTCPPair(t, metaHandler{})
	net := NewTCP()
	defer net.Close()
	for i := 0; i < 2; i++ {
		req := &Request{Service: "echo", Method: "meta", Caller: "andy", Meta: wire.Metadata{"tenant": "acme"}}
		req.SetDeadline(750 * time.Millisecond)
		resp, err := net.Call(context.Background(), addr, req)
		if err != nil {
			t.Fatal(err)
		}
		var seen Request
		if err := wire.Unmarshal(resp.Result, &seen); err != nil {
			t.Fatal(err)
		}
		if want := (wire.Metadata{"tenant": "acme"}); !maps.Equal(seen.Meta, want) || seen.Caller != "andy" || seen.DeadlineMs != 750 {
			t.Fatalf("call %d: server saw meta %v, caller %q, deadline %d ms; want %v, andy, 750", i, seen.Meta, seen.Caller, seen.DeadlineMs, want)
		}
	}
}

// TestTCPEncodeFailureBelongsToTheFrame: a request that cannot be
// encoded fails alone, as bad-args, and not as an unreachable peer: the
// connection it was to go out on stays up, the call in flight on it gets
// its own answer, and the next request, which repeats the names the
// failed one had entered before its oversized value, decodes, because the
// table dropped them again. A response that cannot be encoded is
// answered with an internal error in its place.
func TestTCPEncodeFailureBelongsToTheFrame(t *testing.T) {
	resultJSON := func(v wire.Value) string {
		b, _ := json.Marshal(v)
		return string(b)
	}
	started, release := make(chan struct{}, 1), make(chan struct{})
	var slowRuns atomic.Int64
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		switch req.Method {
		case "slow":
			slowRuns.Add(1)
			started <- struct{}{}
			<-release
		case "huge":
			return Response{ID: req.ID, OK: true, Result: wire.Str("", strings.Repeat("x", wire.MaxFrameSize)).Val}
		}
		res, _ := wire.Marshal(req.Args)
		return Response{ID: req.ID, OK: true, Result: res}
	})
	_, addr := newTCPPair(t, h)
	cli := NewTCP()
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pooled := func() *tcpClientConn {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		return cli.conns[addr]
	}

	slow := make(chan error, 1)
	go func() {
		resp, err := cli.Call(ctx, addr, &Request{Service: "echo", Method: "slow", Args: wire.Args{wire.Str("who", "slow")}})
		if err == nil && resultJSON(resp.Result) != `{"who":"slow"}` {
			err = fmt.Errorf("answered %s", resultJSON(resp.Result))
		}
		slow <- err
	}()
	<-started
	conn := pooled()

	// Service, method and metadata go out before the args, so the
	// request enters its new names before its oversized value fails it.
	req := &Request{Service: "echo", Method: "fresh", Meta: wire.Metadata{"fresh-key": "v"},
		Args: wire.Args{wire.Str("bad", strings.Repeat("x", wire.MaxFrameSize))}}
	_, err := cli.Call(ctx, addr, req)
	if wire.CodeOf(err) != wire.CodeBadArgs || errors.Is(err, ErrUnreachable) {
		t.Fatalf("unencodable request: err = %v, want bad-args", err)
	}
	req.Args = wire.Args{wire.Str("bad", "no longer")}
	if resp, err := cli.Call(ctx, addr, req); err != nil || resultJSON(resp.Result) != `{"bad":"no longer"}` {
		t.Fatalf("the next request with the failed one's names: %+v, %v", resp, err)
	}
	if pooled() != conn {
		t.Fatal("the connection was replaced")
	}
	close(release)
	if err := <-slow; err != nil || slowRuns.Load() != 1 {
		t.Fatalf("the call in flight: err = %v after %d runs, want its own answer after 1", err, slowRuns.Load())
	}

	hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
	defer hcancel()
	resp, err := cli.Call(hctx, addr, &Request{Service: "echo", Method: "huge"})
	if err != nil || resp.OK || resp.Code != wire.CodeInternal {
		t.Fatalf("a response too large to encode: %+v, %v; want an internal error", resp, err)
	}
}
