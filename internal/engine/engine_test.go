package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/directory"
	"repro/internal/listener"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testWorld is a sim network with a directory and helpers to add nodes.
type testWorld struct {
	t   *testing.T
	net *sim.Net
	dir *directory.Client
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	ln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{t: t, net: net, dir: directory.NewClient(net, ln.Addr())}
}

// addNode registers user on the network hosting a calendar-ish echo
// service named cal.<user>, and returns the node's listener.
func (w *testWorld) addNode(user string) *listener.Listener {
	w.t.Helper()
	l := listener.New(user, nil)
	obj := listener.NewObject()
	obj.Handle("WhoAmI", func(ctx context.Context, call *listener.Call) (any, error) {
		return map[string]string{"owner": user, "caller": call.Caller}, nil
	})
	obj.Handle("Add", func(ctx context.Context, call *listener.Call) (any, error) {
		return call.Args.Int("a") + call.Args.Int("b"), nil
	})
	obj.Handle("FailIf", func(ctx context.Context, call *listener.Call) (any, error) {
		if call.Args.String("who") == user {
			return nil, &wire.RemoteError{Code: wire.CodeConflict, Msg: "refused"}
		}
		return "ok", nil
	})
	l.Register("cal."+user, obj)
	ln, err := w.net.Listen("node-"+user, l)
	if err != nil {
		w.t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.dir.RegisterUser(ctx, user, ln.Addr(), 0); err != nil {
		w.t.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, w.dir, "cal."+user, ln.Addr()); err != nil {
		w.t.Fatal(err)
	}
	return l
}

func TestInvokeResolvesThroughDirectory(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	e := New(w.net, w.dir, "andy")

	var out map[string]string
	if err := e.Invoke(context.Background(), "cal.phil", "WhoAmI", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out["owner"] != "phil" || out["caller"] != "andy" {
		t.Fatalf("out = %v", out)
	}
}

func TestInvokeUnknownService(t *testing.T) {
	w := newWorld(t)
	e := New(w.net, w.dir, "andy")
	err := e.Invoke(context.Background(), "cal.ghost", "WhoAmI", nil, nil)
	if wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeDecodesScalars(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	e := New(w.net, w.dir, "andy")
	var sum int
	if err := e.Invoke(context.Background(), "cal.phil", "Add", wire.Args{wire.Int("a", 2), wire.Int("b", 3)}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestInvokeRemoteErrorSurfaces(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	e := New(w.net, w.dir, "andy")
	err := e.Invoke(context.Background(), "cal.phil", "FailIf", wire.Args{wire.Str("who", "phil")}, nil)
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}
}

// TestInvokeNoProxyNoFailover: a call on a freshly resolved route to a
// down device fails unavailable; there is nowhere else to send it.
func TestInvokeNoProxyNoFailover(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	w.net.SetDown("node-phil", true)
	e := New(w.net, w.dir, "andy")
	err := e.Invoke(context.Background(), "cal.phil", "WhoAmI", nil, nil)
	if wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupInvokeAggregates(t *testing.T) {
	w := newWorld(t)
	users := []string{"phil", "andy", "suzy"}
	for _, u := range users {
		w.addNode(u)
	}
	e := New(w.net, w.dir, "phil")
	services := []string{"cal.phil", "cal.andy", "cal.suzy"}
	results := e.GroupInvoke(context.Background(), services, "WhoAmI", nil)
	if len(results) != 3 || FirstError(results) != nil {
		t.Fatalf("results = %+v", results)
	}
	for i, r := range results {
		if r.Service != services[i] {
			t.Fatalf("result order broken: %v", results)
		}
		var out map[string]string
		if err := r.Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out["owner"] != users[i] {
			t.Fatalf("member %d answered %v", i, out)
		}
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
}

func TestGroupInvokePartialFailure(t *testing.T) {
	w := newWorld(t)
	for _, u := range []string{"phil", "andy", "suzy"} {
		w.addNode(u)
	}
	e := New(w.net, w.dir, "phil")
	services := []string{"cal.phil", "cal.andy", "cal.suzy"}
	results := e.GroupInvoke(context.Background(), services, "FailIf", wire.Args{wire.Str("who", "andy")})
	if OKCount(results) != 2 || FirstError(results) == nil {
		t.Fatalf("OKCount = %d", OKCount(results))
	}
	if results[1].Err == nil || wire.CodeOf(results[1].Err) != wire.CodeConflict {
		t.Fatalf("andy's result = %+v", results[1])
	}
	if err := FirstError(results); err == nil {
		t.Fatal("FirstError = nil")
	}
	if results[1].Decode(new(string)) == nil {
		t.Fatal("Decode on failed member should return the error")
	}
}

func TestInvokeGroupName(t *testing.T) {
	w := newWorld(t)
	for _, u := range []string{"alice", "bob"} {
		w.addNode(u)
	}
	ctx := context.Background()
	if err := w.dir.CreateGroup(ctx, "biology", []string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}
	e := New(w.net, w.dir, "phil")
	results, err := e.InvokeGroupName(ctx, "biology", "cal.%s", "WhoAmI", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || FirstError(results) != nil {
		t.Fatalf("results = %+v", results)
	}
}

// TestCollectAndQuorum decodes a group's results and counts its quorum
// the way a caller does: wire.Unmarshal over each Raw, OKCount against k.
func TestCollectAndQuorum(t *testing.T) {
	w := newWorld(t)
	for _, u := range []string{"phil", "andy", "suzy"} {
		w.addNode(u)
	}
	e := New(w.net, w.dir, "phil")
	services := []string{"cal.phil", "cal.andy", "cal.suzy"}
	collect := func(results []GroupResult) (sums []int, failed []string) {
		for _, r := range results {
			var v int
			if r.Err != nil || wire.Unmarshal(r.Result, &v) != nil {
				failed = append(failed, r.Service)
				continue
			}
			sums = append(sums, v)
		}
		return sums, failed
	}
	results := e.GroupInvoke(context.Background(), services, "Add", wire.Args{wire.Int("a", 2), wire.Int("b", 3)})
	sums, failed := collect(results)
	if len(failed) != 0 || len(sums) != 3 {
		t.Fatalf("sums=%v failed=%v", sums, failed)
	}
	for _, s := range sums {
		if s != 5 {
			t.Fatalf("sums = %v", sums)
		}
	}
	if OKCount(results) != 3 {
		t.Fatal("quorum arithmetic wrong")
	}

	// One member down: it is reported as failed, the count adjusts.
	w.net.SetDown("node-andy", true)
	results = e.GroupInvoke(context.Background(), services, "Add", wire.Args{wire.Int("a", 1), wire.Int("b", 1)})
	sums, failed = collect(results)
	if len(sums) != 2 || len(failed) != 1 || failed[0] != "cal.andy" {
		t.Fatalf("sums=%v failed=%v", sums, failed)
	}
	if OKCount(results) != 2 {
		t.Fatal("quorum after failure wrong")
	}
}

func TestCredentialAttached(t *testing.T) {
	// A node requiring auth accepts engine calls once the engine has
	// a sealed credential.
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dln, err := net.Listen("dir", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.NewClient(net, dln.Addr())

	an := auth.NewAuthenticator("deploy-key")
	an.Table.Add("andy", "pw")
	l := listener.New("phil", an)
	obj := listener.NewObject()
	obj.RequireAuth = true
	obj.Handle("WhoAmI", func(ctx context.Context, call *listener.Call) (any, error) {
		return call.Caller, nil
	})
	l.Register("cal.phil", obj)
	nln, err := net.Listen("node-phil", l)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := dir.RegisterUser(ctx, "phil", nln.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, dir, "cal.phil", nln.Addr()); err != nil {
		t.Fatal(err)
	}

	e := New(net, dir, "andy")
	// Without credential: rejected.
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("unauthenticated err = %v", err)
	}
	if err := e.SetCredential(an.Sealer, "andy", "pw"); err != nil {
		t.Fatal(err)
	}
	var who string
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, &who); err != nil {
		t.Fatal(err)
	}
	if who != "andy" {
		t.Fatalf("who = %q", who)
	}
}

func TestGroupInvokeScalesLinearlyInMessages(t *testing.T) {
	w := newWorld(t)
	var services []string
	const n = 8
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("u%02d", i)
		w.addNode(u)
		services = append(services, "cal."+u)
	}
	w.net.ResetStats()
	e := New(w.net, w.dir, "phil")
	results := e.GroupInvoke(context.Background(), services, "WhoAmI", nil)
	if FirstError(results) != nil {
		t.Fatalf("results = %+v", results)
	}
	// One batched resolution pass + n invocations: group fan-out no
	// longer pays a directory round-trip per member.
	if got := w.net.Stats().Requests; got != n+1 {
		t.Fatalf("requests = %d, want %d", got, n+1)
	}
}

func BenchmarkEngineInvoke(b *testing.B) {
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	dln, _ := net.Listen("dir", srv.Handler())
	dir := directory.NewClient(net, dln.Addr())
	l := listener.New("phil", nil)
	obj := listener.NewObject()
	obj.Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) { return "pong", nil })
	l.Register("cal.phil", obj)
	nln, _ := net.Listen("node-phil", l)
	ctx := context.Background()
	if err := dir.RegisterUser(ctx, "phil", nln.Addr(), 0); err != nil {
		b.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, dir, "cal.phil", nln.Addr()); err != nil {
		b.Fatal(err)
	}
	e := New(net, dir, "andy", WithDirCache(NewDirCache(time.Minute)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Invoke(ctx, "cal.phil", "Ping", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
