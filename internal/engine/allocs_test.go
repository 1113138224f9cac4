package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/listener"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRPCRoundTripAllocs holds one warm RPC over real sockets to its
// allocation count, both ends counted: engine.Invoke under a deadline,
// through the route cache and the TCP transport to the listener and its
// handler and back, the Commit's ack read as the bool it is. What is
// left is the client's request and response (2) and the server's copy
// of the body's strings (1): the server recycles its served object
// (request, hint context and response) and argument slice and answers
// on an idle worker, so no deadline timer, no metadata map, no handler
// goroutine and no copy of the route, the request or the result (10
// before the served object, 7 while a result was JSON text the client
// copied, 6 while each request had a new object, slice and goroutine).
func TestRPCRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP()
	defer net.Close()
	dln, err := net.Listen("127.0.0.1:0", directory.NewServer(directory.WithTTL(time.Hour)).Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer dln.Close()
	dir := directory.NewClient(net, dln.Addr())
	l := listener.New("phil", nil)
	obj := listener.NewObject()
	obj.Handle("Commit", func(ctx context.Context, call *listener.Call) (any, error) {
		return call.Args.String("token") != "", nil
	})
	l.Register("links.phil", obj)
	nln, err := net.Listen("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	defer nln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := dir.RegisterUser(ctx, "phil", nln.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, dir, "links.phil", nln.Addr()); err != nil {
		t.Fatal(err)
	}

	e := New(net, dir, "andy", WithDirCache(NewDirCache(time.Hour)))
	args := wire.Args{wire.Str("entity", "slot/2003-04-22/10"), wire.Str("token", "T-phil-1")}
	var ok bool
	call := func() {
		ok = false
		if err := e.Invoke(ctx, "links.phil", "Commit", args, &ok); err != nil || !ok {
			t.Fatalf("Commit = %v, %v", ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		call() // the route cache, the connection and its name tables
	}
	want := 3.0
	if raceEnabled {
		want += 6
	}
	if got := testing.AllocsPerRun(500, call); got > want {
		t.Fatalf("a warm round trip: %.0f allocs, want <= %.0f", got, want)
	}
}

// answerNet answers every call to a device with one shared response and
// hands the directory's calls to its handler, so a count taken over it
// is the engine's own.
type answerNet struct {
	dir  transport.Handler
	resp transport.Response
}

func (n *answerNet) Listen(string, transport.Handler) (transport.Listener, error) {
	return nil, transport.ErrUnreachable
}

func (n *answerNet) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if addr == "dir" {
		resp := n.dir.HandleRequest(ctx, req)
		return &resp, nil
	}
	return &n.resp, nil
}

// TestGroupInvokeAllocs holds a warm three-member GroupInvoke, with
// every route cached, to its allocation count: the results, the fan-out's
// closure and its two helpers, and each member's call. Each member's
// result is read into its place in the results, not into a local that
// escapes. It was 9 while the fan-out's state was new per call and the
// list of members to resolve was built with every member cached.
func TestGroupInvokeAllocs(t *testing.T) {
	net := &answerNet{
		dir:  directory.NewServer(directory.WithTTL(time.Hour)).Handler(),
		resp: transport.Response{OK: true, Result: wire.Bool("", true).Val},
	}
	dir := directory.NewClient(net, "dir")
	ctx := context.Background()
	var services []string
	for _, u := range []string{"phil", "andy", "bob"} {
		if err := dir.RegisterUser(ctx, u, "node-"+u, 0); err != nil {
			t.Fatal(err)
		}
		if err := dir.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"Free"}); err != nil {
			t.Fatal(err)
		}
		services = append(services, "cal."+u)
	}
	e := New(net, dir, "andy", WithDirCache(NewDirCache(time.Hour)))
	var ok bool
	group := func() {
		for _, r := range e.GroupInvoke(ctx, services, "Free", nil) {
			ok = false
			if r.Err != nil || r.Decode(&ok) != nil || !ok {
				t.Fatalf("%s: %+v, %v", r.Service, r.Result, r.Err)
			}
		}
	}
	group() // the route cache
	want := 7.0
	if raceEnabled {
		want += 6
	}
	if got := testing.AllocsPerRun(200, group); got > want {
		t.Fatalf("a warm group invoke: %.0f allocs, want <= %.0f", got, want)
	}
}
