package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestServedRequestAllocs holds serving one warm request over a real
// socket to its allocation count: a raw v3 frame in, a static result
// out. What is left is the served object (request, hint context and
// response in one), the body's one string copy, the argument slice and
// the handler goroutine.
func TestServedRequestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	result := wire.Bool("", true).Val
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		if _, ok := ctx.Deadline(); !ok || req.Args.String("token") == "" {
			return ErrorResponse(req, wire.CodeBadArgs, "no deadline or no token")
		}
		return Response{OK: true, Result: result}
	})
	ln, err := NewTCP().Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The first frame enters its names in both ends' tables; the second,
	// sent over and over, refers to them and enters none.
	var tab wire.NameTable
	env := &wire.Envelope{Kind: wire.KindRequest, Request: &Request{
		ID: 1, Service: "links.phil", Method: "Commit",
		Args: wire.Args{wire.Str("token", "T-phil-1")},
	}}
	env.Request.SetDeadline(time.Minute)
	encode := func() []byte {
		f, err := tab.EncodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		return append([]byte(nil), f.Bytes()...)
	}
	first, warm := encode(), encode()
	answer := make([]byte, 64)
	serve := func(frame []byte) []byte {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, answer[:1]); err != nil {
			t.Fatal(err)
		}
		n := 1 + int(answer[0]) // a one-byte prefix: a short answer
		if n > len(answer) {
			t.Fatalf("a %d B answer", n)
		}
		if _, err := io.ReadFull(conn, answer[1:n]); err != nil {
			t.Fatal(err)
		}
		return answer[:n]
	}
	var answers wire.Decoder
	for _, frame := range [][]byte{first, warm} {
		env, err := answers.Decode(serve(frame))
		if err != nil || !env.Response.OK || !reflect.DeepEqual(env.Response.Result, result) {
			t.Fatalf("answer %+v, %v", env.Response, err)
		}
	}
	want := 4.0
	if raceEnabled {
		want += 2
	}
	if got := testing.AllocsPerRun(500, func() { serve(warm) }); got > want {
		t.Fatalf("serving a warm request: %.0f allocs, want <= %.0f", got, want)
	}
}

// TestCloseEndsAndAwaitsInFlightHandlers: Close ends the context of every
// request being served, with a deadline hint or without, and returns
// only once their handlers have, so nothing a handler does lands after
// its node has closed.
func TestCloseEndsAndAwaitsInFlightHandlers(t *testing.T) {
	started := make(chan struct{}, 2)
	var mu sync.Mutex
	var ended []error // each handler's ctx.Err() as it returned
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		started <- struct{}{}
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // winding down after its context ended
		mu.Lock()
		ended = append(ended, ctx.Err())
		mu.Unlock()
		return Response{OK: true}
	})
	tcp := NewTCP()
	defer tcp.Close()
	ln, err := tcp.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []time.Duration{0, time.Hour} {
		req := &Request{Service: "cal.phil", Method: "Block"}
		req.SetDeadline(hint)
		go tcp.Call(context.Background(), ln.Addr(), req) // fails once the listener closes
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("the handlers never started")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not end the handlers' contexts")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ended) != 2 {
		t.Fatalf("Close returned with %d of 2 handlers returned", len(ended))
	}
	for _, err := range ended {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("a handler's ctx ended with %v, want Canceled", err)
		}
	}
}

// TestServeConnStartsNothingAfterClose: a request read off a connection
// once its listener's context has ended (Close cancels it before it
// shuts the connections one by one, so a client's retry can still
// arrive on one not yet shut) starts no handler, and the connection's
// read loop returns.
func TestServeConnStartsNothingAfterClose(t *testing.T) {
	ran := make(chan struct{}, 1)
	l := &tcpListener{
		handler: HandlerFunc(func(ctx context.Context, req *Request) Response {
			ran <- struct{}{}
			return Response{OK: true}
		}),
		stats: &metrics.WireStats{},
		conns: make(map[net.Conn]struct{}),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.cancel()
	server, client := net.Pipe()
	defer client.Close()
	l.wg.Add(1)
	returned := make(chan struct{})
	go func() {
		l.serveConn(server)
		close(returned)
	}()
	f, err := new(wire.NameTable).EncodeFrame(&wire.Envelope{Kind: wire.KindRequest, Request: &Request{ID: 1, Service: "cal.phil", Method: "Block"}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	go client.Write(f.Bytes())
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("serveConn kept reading after its listener's context ended")
	}
	l.wg.Wait()
	select {
	case <-ran:
		t.Fatal("a handler ran for a request read after Close began")
	default:
	}
}
