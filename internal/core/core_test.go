package core_test

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newDeployment(t *testing.T) (*sim.Net, *clock.Fake) {
	t.Helper()
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Minute))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	return net, clk
}

func TestStartValidation(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	if _, err := core.Start(ctx, core.Config{Net: net, DirAddr: "dir", Clock: clk}); err == nil {
		t.Fatal("missing user accepted")
	}
	if _, err := core.Start(ctx, core.Config{User: "phil", DirAddr: "dir"}); err == nil {
		t.Fatal("missing network accepted")
	}
}

// noListen is a network on which binding fails the test.
type noListen struct {
	transport.Network
	t *testing.T
}

func (n noListen) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	n.t.Fatalf("Start bound %q before rejecting its config", addr)
	return nil, nil
}

// TestStartRejectsLeaseWithoutDataDir: replication ships the log, so a
// lease without a data directory is a config error, reported before
// Start binds an address or touches the directory.
func TestStartRejectsLeaseWithoutDataDir(t *testing.T) {
	net, clk := newDeployment(t)
	_, err := core.Start(context.Background(), core.Config{
		User: "phil", Net: noListen{Network: net, t: t}, DirAddr: "dir", Clock: clk,
		LeaseTTL: 10 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "requires DataDir") {
		t.Fatalf("Start with LeaseTTL and no DataDir: %v", err)
	}
}

func TestStartPublishesKernelServices(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{User: "phil", Net: net, DirAddr: "dir", Clock: clk, Priority: 7})
	if err != nil {
		t.Fatal(err)
	}
	u, err := n.Dir.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if u.Addr != n.Addr() || u.Priority != 7 || !u.Online {
		t.Fatalf("user = %+v addr = %s", u, n.Addr())
	}
	// A bare node publishes its links service and nothing else.
	svcs, err := n.Dir.ServicesOf(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{links.ServiceFor("phil")}; !slices.Equal(svcs, want) {
		t.Fatalf("phil publishes %v, want %v", svcs, want)
	}
	info, err := n.Dir.LookupService(ctx, links.ServiceFor("phil"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != n.Addr() {
		t.Fatalf("%s published at %s, node at %s", links.ServiceFor("phil"), info.Addr, n.Addr())
	}
}

func TestNodesInvokeEachOther(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	a, err := core.Start(ctx, core.Config{User: "a", Net: net, DirAddr: "dir", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Start(ctx, core.Config{User: "b", Net: net, DirAddr: "dir", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	obj := listener.NewObject().Handle("Hello", func(ctx context.Context, call *listener.Call) (any, error) {
		return "hello " + call.Caller, nil
	})
	if err := b.RegisterService(ctx, "greeter.b", obj); err != nil {
		t.Fatal(err)
	}
	var out string
	if err := a.Engine.Invoke(ctx, "greeter.b", "Hello", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out != "hello a" {
		t.Fatalf("out = %q", out)
	}
}

func TestHeartbeatSchedule(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{
		User: "phil", Net: net, DirAddr: "dir", Clock: clk,
		HeartbeatEvery: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(ctx)
	// Directory TTL is one minute. Advance in heartbeat-sized steps
	// for 3 minutes; the node must stay online because heartbeats
	// keep firing.
	for i := 0; i < 9; i++ {
		// Let the schedule arm before each advance.
		deadline := time.Now().Add(5 * time.Second)
		for clk.PendingWaiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("heartbeat schedule never armed")
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(20 * time.Second)
		time.Sleep(5 * time.Millisecond) // let the heartbeat land
	}
	u, err := n.Dir.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Online {
		t.Fatal("heartbeats did not keep the node online")
	}
}

func TestExpireSweepSchedule(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{
		User: "phil", Net: net, DirAddr: "dir", Clock: clk,
		ExpireEvery: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(ctx)

	l := &links.Link{
		ID: "L-exp", Type: links.Subscription, Subtype: links.Permanent,
		Owner:   links.EntityRef{User: "phil", Entity: "slot9"},
		Expires: clk.Now().Add(30 * time.Second),
	}
	if err := n.Links.InstallAt(context.Background(), n.User, l); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingWaiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep schedule never armed")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Minute)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok := n.Links.GetLink("L-exp"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired link not swept")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseMarksOffline(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{User: "phil", Net: net, DirAddr: "dir", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.NewClient(net, "dir")
	if err := n.Close(ctx); err != nil {
		t.Fatal(err)
	}
	u, err := dir.LookupUser(ctx, "phil")
	if err != nil {
		t.Fatal(err)
	}
	if u.Online {
		t.Fatal("closed node still online")
	}
	// The node's address no longer answers.
	e := directory.NewClient(net, "dir")
	_ = e
	if _, err := net.Call(ctx, n.Addr(), &wire.Request{Service: links.ServiceFor("phil"), Method: "QueryOutcome", Args: wire.Args{wire.Str("nid", "none")}}); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("closed node still answering: %v", err)
	}
}

func TestStartTwiceSameAddrFallsBack(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	a, err := core.Start(ctx, core.Config{User: "phil", Net: net, DirAddr: "dir", Clock: clk, ListenAddr: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	// Second node with the same requested address falls back to an
	// auto-assigned one instead of failing.
	b, err := core.Start(ctx, core.Config{User: "phil2", Net: net, DirAddr: "dir", Clock: clk, ListenAddr: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("duplicate address %q", a.Addr())
	}
}

// TestDirCacheTTLReducesLookups: RouteCacheTTL installs the engine's
// DirCache, the node's one cache of directory answers.
func TestDirCacheTTLReducesLookups(t *testing.T) {
	net, clk := newDeployment(t)
	ctx := context.Background()
	target, err := core.Start(ctx, core.Config{User: "target", Net: net, DirAddr: "dir", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	obj := listener.NewObject().Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) {
		return "pong", nil
	})
	if err := target.RegisterService(ctx, "svc.target", obj); err != nil {
		t.Fatal(err)
	}

	cached, err := core.Start(ctx, core.Config{
		User: "cached", Net: net, DirAddr: "dir", Clock: clk,
		RouteCacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := core.Start(ctx, core.Config{User: "uncached", Net: net, DirAddr: "dir", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}

	const calls = 10
	countFor := func(n *core.Node) int64 {
		// Warm once so service publication traffic is excluded.
		if err := n.Engine.Invoke(ctx, "svc.target", "Ping", nil, nil); err != nil {
			t.Fatal(err)
		}
		before := net.Stats().Requests
		for i := 0; i < calls; i++ {
			if err := n.Engine.Invoke(ctx, "svc.target", "Ping", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return net.Stats().Requests - before
	}
	withCache := countFor(cached)
	withoutCache := countFor(uncached)
	// Cached node: 10 invocations only. Uncached: 10 lookups + 10
	// invocations.
	if withCache != calls {
		t.Fatalf("cached requests = %d, want %d", withCache, calls)
	}
	if withoutCache != 2*calls {
		t.Fatalf("uncached requests = %d, want %d", withoutCache, 2*calls)
	}
}
