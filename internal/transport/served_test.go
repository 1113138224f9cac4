package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// TestServedRequestAllocs holds serving one warm request over a real
// socket to its allocation count: a raw v3 frame in, a static result
// out. What is left is the body's one string copy: the served object
// (request, hint context and response in one) and its argument slice
// are recycled, and the connection's idle worker serves it (4 while each
// request had a new object, slice and goroutine).
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
	want := 1.0
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

// TestServedObjectsDoNotCrossTalk: many calls in flight on one
// connection, each handler sleeping a random while, each answer echoing
// its request's arguments, id and deadline hint. The served objects,
// their argument slices and hint contexts go round the listener's pool
// and its workers; every answer must still be its own request's.
func TestServedObjectsDoNotCrossTalk(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		time.Sleep(time.Duration(rand.Intn(2000)) * time.Microsecond)
		var minutes int64
		if d, ok := ctx.Deadline(); ok {
			minutes = int64(math.Ceil(time.Until(d).Minutes()))
		}
		res, err := wire.Marshal(wire.Args{wire.Sub("args", req.Args), wire.Int64("id", int64(req.ID)), wire.Int64("min", minutes)})
		if err != nil {
			return ErrorFor(req, err)
		}
		return Response{OK: true, Result: res}
	})
	tcp := NewTCP()
	defer tcp.Close()
	ln, err := tcp.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 40; c++ {
				args := wire.Args{wire.Int("g", g)}
				for i := 0; i < c%5; i++ {
					args = append(args, wire.Str(fmt.Sprintf("a%d", i), fmt.Sprintf("%d-%d", g, c)))
				}
				minutes := int64(c % 3) // 0: no hint
				req := &Request{Service: "cal.phil", Method: "Echo", Args: args}
				req.SetDeadline(time.Duration(minutes) * time.Minute)
				resp, err := tcp.Call(ctx, ln.Addr(), req)
				if err != nil || !resp.OK {
					t.Errorf("call %d of %d: %+v, %v", c, g, resp, err)
					return
				}
				want, _ := wire.Marshal(wire.Args{wire.Sub("args", args), wire.Int64("id", int64(req.ID)), wire.Int64("min", minutes)})
				got, _ := resp.Result.MarshalJSON()
				if w, _ := want.MarshalJSON(); string(got) != string(w) {
					t.Errorf("call %d of %d answered %s, want %s", c, g, got, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleWorkersExitOnClose: after bursts of concurrent requests on
// several connections, each connection keeps its idle workers until
// Close, which returns with every one of them gone.
func TestIdleWorkersExitOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	h := HandlerFunc(func(ctx context.Context, req *Request) Response {
		time.Sleep(5 * time.Millisecond)
		return Response{OK: true}
	})
	ln, err := NewTCP().Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	const conns, burst = 3, 16
	var clients []*TCP
	for i := 0; i < conns; i++ {
		tcp := NewTCP()
		defer tcp.Close()
		clients = append(clients, tcp)
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for _, tcp := range clients {
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := &Request{Service: "cal.phil", Method: "Nap"}
					req.SetDeadline(time.Minute)
					if resp, err := tcp.Call(context.Background(), ln.Addr(), req); err != nil || !resp.OK {
						t.Errorf("Call = %+v, %v", resp, err)
					}
				}()
			}
		}
		wg.Wait()
	}
	// Each connection: the client's read loop, the server's and at least
	// one idle worker; and the accept loop.
	if n := runtime.NumGoroutine(); n < before+3*conns+1 {
		t.Fatalf("%d goroutines between bursts, %d before Listen: no idle worker waits", n, before)
	}
	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, tcp := range clients {
		tcp.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Listen", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchedHintContextsAreNotRecycled: a handler that derives a
// cancelable context from its hint context makes the context package
// watch the hint from a goroutine of its own, which may call Done and
// Err after the handler has returned. Its served object must not serve
// another request, or that goroutine reads the next request's context
// (a nil Err after its Done closed, which panics). Every request, each
// answered from the pool as a worker answers it, still sees its own
// deadline, open, and a request without a hint none.
func TestWatchedHintContextsAreNotRecycled(t *testing.T) {
	type key struct{}
	l := &tcpListener{
		handler: HandlerFunc(func(ctx context.Context, req *Request) Response {
			d, ok := ctx.Deadline()
			if want := req.Deadline(); ok != (want > 0) || ok && time.Until(d) > want || ctx.Err() != nil {
				t.Fatalf("request %d: deadline %v, %v, err %v; hint %v", req.ID, d, ok, ctx.Err(), want)
			}
			if req.Args.Bool("watch") {
				_, cancel := context.WithCancel(context.WithValue(ctx, key{}, req.ID))
				cancel()
			}
			return Response{OK: true}
		}),
		stats: &metrics.WireStats{},
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	defer l.cancel()
	fw := &frameWriter{w: io.Discard, stats: l.stats}
	none := make(chan *served) // a worker handed no request after the first
	close(none)
	for i := 0; i < 2000; i++ {
		s := servedPool.Get().(*served)
		s.req = Request{ID: uint64(i), Service: "cal.phil", Method: "Watch", Args: append(s.req.Args, wire.Bool("watch", i%2 == 0))}
		s.req.SetDeadline(time.Duration(i%3) * time.Hour)
		l.wg.Add(1)
		l.work(s, none, fw)
	}
}
