package engine

import (
	"context"
	"encoding/json"
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
// handler and back, the result kept as raw JSON as a group fan-out keeps
// it. What is left is the call's own objects, the frames' buffers and
// decoded envelopes, and the listener's dispatch: no deadline timer, no
// metadata map, no copy of the route, the request or the result, and one
// slice per argument list where a map and a box per value were (13).
func TestRPCRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := transport.NewTCP(transport.WithPoolSize(1))
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
	var raw json.RawMessage
	call := func() {
		raw = nil
		if err := e.Invoke(ctx, "links.phil", "Commit", args, &raw); err != nil || string(raw) != "true" {
			t.Fatalf("Commit = %s, %v", raw, err)
		}
	}
	for i := 0; i < 10; i++ {
		call() // the route cache, the connections and their name tables
	}
	want := 10.0
	if raceEnabled {
		want += 6
	}
	if got := testing.AllocsPerRun(500, call); got > want {
		t.Fatalf("a warm round trip: %.0f allocs, want <= %.0f", got, want)
	}
}
