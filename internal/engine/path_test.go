package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestMetricsInterceptorRecordsClientSeries(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	reg := metrics.NewRegistry()
	e := New(w.net, w.dir, "andy", WithMetrics(reg))
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Invoke(ctx, "cal.phil", "FailIf", wire.Args{wire.Str("who", "phil")}, nil); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v", err)
	}

	snap := reg.Snapshot()
	ok := snap.Find(metrics.LayerClient, "cal.phil", "WhoAmI", "")
	if ok == nil || ok.Count != 3 {
		t.Fatalf("WhoAmI ok series = %+v", ok)
	}
	failed := snap.Find(metrics.LayerClient, "cal.phil", "FailIf", wire.CodeConflict)
	if failed == nil || failed.Count != 1 {
		t.Fatalf("FailIf conflict series = %+v", failed)
	}
}

// metaKeys returns md's keys, sorted.
func metaKeys(md wire.Metadata) []string {
	keys := make([]string, 0, len(md))
	for k := range md {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// lastRequest serves requests through its Handler and keeps the last one
// as it came off the wire.
type lastRequest struct {
	transport.Handler
	req *wire.Request
}

func (l *lastRequest) HandleRequest(ctx context.Context, req *wire.Request) wire.Response {
	l.req = req
	return l.Handler.HandleRequest(ctx, req)
}

func TestRequestMetadataReachesHandler(t *testing.T) {
	// The caller and the deadline hint ride in their own fields; Meta
	// carries the trace keys when the engine traces, and nothing else.
	// It stays nil when the engine does not trace.
	w := newWorld(t)
	var gotCaller string
	l := listener.New("phil", nil)
	obj := listener.NewObject()
	obj.Handle("Inspect", func(ctx context.Context, call *listener.Call) (any, error) {
		gotCaller = call.Caller
		return nil, nil
	})
	l.Register("meta.phil", obj)
	seen := &lastRequest{Handler: l}
	ln, err := w.net.Listen("node-phil", seen)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.dir.RegisterUser(ctx, "phil", ln.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.PublishGlobal(ctx, w.dir, "meta.phil", ln.Addr()); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts []Option
		want []string
	}{
		{"plain", nil, nil},
		{"traced", []Option{WithTracer(trace.New("andy", trace.WithSampleRate(1)))},
			[]string{trace.MetaSpanID, trace.MetaTraceID, trace.MetaSampled}},
	} {
		e := New(w.net, w.dir, "andy", tc.opts...)
		if err := e.Invoke(ctx, "meta.phil", "Inspect", nil, nil); err != nil {
			t.Fatal(err)
		}
		got := seen.req
		if gotCaller != "andy" || got.Caller != "andy" {
			t.Fatalf("%s: caller = %q on the wire, %q in the handler", tc.name, got.Caller, gotCaller)
		}
		if keys := metaKeys(got.Meta); !slices.Equal(keys, tc.want) || (tc.want == nil) != (got.Meta == nil) {
			t.Fatalf("%s: metadata %v, want keys %q", tc.name, got.Meta, tc.want)
		}
		if d := got.Deadline(); d <= 0 || d > time.Minute {
			t.Fatalf("%s: deadline hint = %v, want (0, 1m]", tc.name, d)
		}
	}
}

func TestOnwardInvokeInheritsRequestContext(t *testing.T) {
	// A handler that invokes onward passes on its deadline, and nothing
	// of the inbound request's metadata or identity: the onward request
	// carries the relay's own caller and none of the trace keys the
	// first caller sent.
	w := newWorld(t)
	w.addNode("phil")

	relayL := listener.New("relay", nil)
	relayObj := listener.NewObject()
	relayE := New(w.net, w.dir, "relay")
	relayObj.Handle("Forward", func(ctx context.Context, call *listener.Call) (any, error) {
		return nil, relayE.Invoke(ctx, "probe.sink", "Sink", nil, nil)
	})
	relayL.Register("relay.svc", relayObj)
	relayLn, err := w.net.Listen("node-relay", relayL)
	if err != nil {
		t.Fatal(err)
	}

	sinkL := listener.New("sink", nil)
	sinkObj := listener.NewObject()
	sinkObj.Handle("Sink", func(ctx context.Context, call *listener.Call) (any, error) {
		return nil, nil
	})
	sinkL.Register("probe.sink", sinkObj)
	hop := &lastRequest{Handler: sinkL}
	sinkLn, err := w.net.Listen("node-sink", hop)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, reg := range []struct{ user, addr, svc string }{
		{"relay", relayLn.Addr(), "relay.svc"},
		{"sink", sinkLn.Addr(), "probe.sink"},
	} {
		if err := w.dir.RegisterUser(ctx, reg.user, reg.addr, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := relayL.PublishGlobal(ctx, w.dir, "relay.svc", relayLn.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sinkL.PublishGlobal(ctx, w.dir, "probe.sink", sinkLn.Addr()); err != nil {
		t.Fatal(err)
	}

	e := New(w.net, w.dir, "andy", WithTracer(trace.New("andy", trace.WithSampleRate(1))))
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := e.Invoke(ctx, "relay.svc", "Forward", nil, nil); err != nil {
		t.Fatal(err)
	}
	if hop.req.Caller != "relay" {
		t.Fatalf("onward caller = %q, want relay (no impersonation)", hop.req.Caller)
	}
	if hop.req.Meta != nil {
		t.Fatalf("onward metadata %v, want none", hop.req.Meta)
	}
	if d := hop.req.Deadline(); d <= 0 || d > time.Minute {
		t.Fatalf("onward deadline hint = %v, want the first caller's budget or less", d)
	}
}

func TestInvokeGroupNameRejectsBadPattern(t *testing.T) {
	w := newWorld(t)
	e := New(w.net, w.dir, "phil")
	ctx := context.Background()
	if err := w.dir.CreateGroup(ctx, "g", []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"", "cal", "cal.%s.%s", "cal.%d", "%s-%d"} {
		if _, err := e.InvokeGroupName(ctx, "g", pattern, "WhoAmI", nil); err == nil {
			t.Fatalf("pattern %q accepted", pattern)
		}
	}
	// The valid form still works (group member missing from the
	// directory is a per-member error, not a pattern error).
	if _, err := e.InvokeGroupName(ctx, "g", "cal.%s", "WhoAmI", nil); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
}

func TestGroupInvokeBoundedFanOut(t *testing.T) {
	// The engine never runs more than DefaultGroupLimit member calls at
	// once, and still returns every result in order.
	w := newWorld(t)
	const members = DefaultGroupLimit + 6
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	services := make([]string, 0, members)
	ctx := context.Background()
	for i := 0; i < members; i++ {
		user := fmt.Sprintf("m%d", i)
		l := listener.New(user, nil)
		obj := listener.NewObject()
		obj.Handle("Slow", func(ctx context.Context, call *listener.Call) (any, error) {
			cur := inFlight.Add(1)
			mu.Lock()
			if cur > peak.Load() {
				peak.Store(cur)
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return "done", nil
		})
		svc := "slow." + user
		l.Register(svc, obj)
		ln, err := w.net.Listen("node-"+user, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.dir.RegisterUser(ctx, user, ln.Addr(), 0); err != nil {
			t.Fatal(err)
		}
		if err := l.PublishGlobal(ctx, w.dir, svc, ln.Addr()); err != nil {
			t.Fatal(err)
		}
		services = append(services, svc)
	}

	e := New(w.net, w.dir, "phil")
	results := e.GroupInvoke(ctx, services, "Slow", nil)
	if FirstError(results) != nil {
		t.Fatalf("results = %+v", results)
	}
	for i, r := range results {
		if r.Service != services[i] {
			t.Fatalf("result order broken at %d: %+v", i, r)
		}
	}
	if p := peak.Load(); p > DefaultGroupLimit {
		t.Fatalf("peak concurrency = %d, want <= %d", p, DefaultGroupLimit)
	}
}

func TestGroupInvokeLargerThanLimit(t *testing.T) {
	// Groups larger than the worker limit still complete fully.
	w := newWorld(t)
	var services []string
	const n = DefaultGroupLimit + 5
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("v%d", i)
		w.addNode(u)
		services = append(services, "cal."+u)
	}
	e := New(w.net, w.dir, "phil")
	results := e.GroupInvoke(context.Background(), services, "WhoAmI", nil)
	if len(results) != n || FirstError(results) != nil {
		t.Fatalf("results = %+v", results)
	}
}
