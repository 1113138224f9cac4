package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/listener"
	"repro/internal/metrics"
	"repro/internal/offline"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// greeterPair starts nodes a and b from the configs given, on one sim
// network, and publishes greeter.b on b.
func greeterPair(t *testing.T, a, b core.Config) (*sim.Net, *core.Node) {
	t.Helper()
	net, clk := newDeployment(t)
	ctx := context.Background()
	a.User, a.Net, a.DirAddr, a.Clock = "a", net, "dir", clk
	b.User, b.Net, b.DirAddr, b.Clock = "b", net, "dir", clk
	na, err := core.Start(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := core.Start(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	obj := listener.NewObject().Handle("Hello", func(ctx context.Context, call *listener.Call) (any, error) {
		return "hello " + call.Caller, nil
	})
	if err := nb.RegisterService(ctx, "greeter.b", obj); err != nil {
		t.Fatal(err)
	}
	return net, na
}

// TestClientPathOrder: observe runs before the offline gate, so a call
// the gate fails in local mode is counted in the LayerClient series
// with CodeUnavailable, and it sends no frame.
func TestClientPathOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	net, a := greeterPair(t, core.Config{Metrics: reg, OfflineQueueCap: 1024}, core.Config{})
	ctx := context.Background()
	a.Offline.GoOffline(ctx)
	before := net.Stats().Requests
	if err := a.Engine.Invoke(ctx, "greeter.b", "Hello", nil, nil); !offline.IsLocalMode(err) {
		t.Fatalf("invoke in local mode: %v, want the gate's local-mode error", err)
	}
	e := reg.Snapshot().Find(metrics.LayerClient, "greeter.b", "Hello", wire.CodeUnavailable)
	if e == nil || e.Count != 1 {
		t.Fatalf("LayerClient series = %+v, want the local-mode call counted once", e)
	}
	if n := net.Stats().Requests - before; n != 0 {
		t.Fatalf("the local-mode call sent %d requests, want none", n)
	}
}

// TestObserveTimesEachCallOnce: on a node with a tracer and a registry,
// one call's span and its latency sample come from the same start and
// end, on each side: the series' MaxMs is the span's Duration.
func TestObserveTimesEachCallOnce(t *testing.T) {
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	trA, trB := trace.New("a", trace.WithSampleRate(1)), trace.New("b", trace.WithSampleRate(1))
	_, a := greeterPair(t, core.Config{Metrics: regA, Tracer: trA}, core.Config{Metrics: regB, Tracer: trB})
	if err := a.Engine.Invoke(context.Background(), "greeter.b", "Hello", nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		reg   *metrics.Registry
		tr    *trace.Tracer
		layer metrics.Layer
		span  string
	}{
		{regA, trA, metrics.LayerClient, "rpc.client"},
		{regB, trB, metrics.LayerServer, "rpc.server"},
	} {
		var span *trace.Span
		for _, s := range side.tr.Snapshot() {
			if s.Name == side.span && hasAttr(s, "method", "Hello") {
				if span != nil {
					t.Fatalf("two %s spans for one call", side.span)
				}
				span = s
			}
		}
		if span == nil {
			t.Fatalf("no %s span for the call", side.span)
		}
		e := side.reg.Snapshot().Find(side.layer, "greeter.b", "Hello", "")
		if e == nil || e.Count != 1 {
			t.Fatalf("%s series = %+v, want one call", side.layer, e)
		}
		if want := float64(span.Duration().Nanoseconds()) / 1e6; e.MaxMs != want {
			t.Errorf("%s: series max %v ms, span %v ms: the call was timed twice", side.layer, e.MaxMs, want)
		}
	}
}

func hasAttr(s *trace.Span, key, value string) bool {
	for _, a := range s.Attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}
