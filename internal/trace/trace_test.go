package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	// Every method must be nil-safe.
	s.Annotate(String("a", "b"))
	s.AddEvent("e")
	s.SetError(errors.New("boom"))
	s.Inject(wire.Metadata{})
	s.Finish()
	s.FinishErr(nil)
	if got := FromContext(ctx); got != nil {
		t.Fatal("no span should be attached")
	}
	if _, s2 := Start(ctx, "child"); s2 != nil {
		t.Fatal("Start without a ctx span must be a no-op")
	}
	if n := testing.AllocsPerRun(100, func() {
		FromContext(ctx).AddEvent("nothing", String("kind", "commit"), Bool("ok", true))
	}); n != 0 {
		t.Fatalf("an event without a span costs %.0f allocs, want 0", n)
	}
}

func TestSampledRootRecordsTree(t *testing.T) {
	tr := New("n1", WithSampleRate(1))
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.Annotate(String("k", "v"))
	child.Finish()
	root.Finish()

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	trees := Stitch(spans)
	if len(trees) != 1 {
		t.Fatalf("want 1 trace, got %d", len(trees))
	}
	tree := trees[0]
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Name != "root" {
		t.Fatalf("bad roots: %+v", tree.Roots)
	}
	if len(tree.Roots[0].Children) != 1 || tree.Roots[0].Children[0].Span.Name != "child" {
		t.Fatalf("child not stitched under root")
	}
	if tree.Roots[0].Children[0].Span.ParentID != tree.Roots[0].Span.SpanID {
		t.Fatal("parent edge wrong")
	}
}

func TestUnsampledFastTraceIsDropped(t *testing.T) {
	tr := New("n1", WithSampleRate(0), WithSlowThreshold(time.Hour))
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.Finish()
	root.Finish()
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("fast unsampled trace must be dropped, got %d spans", got)
	}
}

func TestSlowTraceRetainedAtRateZero(t *testing.T) {
	tr := New("n1", WithSampleRate(0), WithSlowThreshold(time.Nanosecond))
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "fast-child")
	child.Finish()
	time.Sleep(time.Millisecond)
	root.Finish()
	spans := tr.Snapshot()
	// The slow root promotes the whole segment, including the fast
	// child that finished first.
	if len(spans) != 2 {
		t.Fatalf("slow trace must retain both spans, got %d", len(spans))
	}
}

func TestInDoubtTraceRetainedAtRateZero(t *testing.T) {
	tr := New("n1", WithSampleRate(0), WithSlowThreshold(time.Hour))
	ctx, root := tr.StartSpan(context.Background(), "negotiate")
	_, child := tr.StartSpan(ctx, "commit")
	child.FinishErr(&wire.RemoteError{Code: wire.CodeUnavailable, Msg: "lost"})
	root.FinishErr(&wire.RemoteError{Code: wire.CodeInDoubt, Msg: "diverged"})
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("in-doubt trace must be retained, got %d spans", len(spans))
	}
	tree := Stitch(spans)[0]
	if !tree.InDoubt {
		t.Fatal("tree must be flagged in-doubt")
	}
}

func TestInjectAndStartRemote(t *testing.T) {
	a := New("a", WithSampleRate(1))
	b := New("b", WithSampleRate(0))
	ctx, client := a.StartSpan(context.Background(), "rpc.client")
	md := make(wire.Metadata)
	client.Inject(md)
	if md[MetaTraceID] != client.TraceID || md[MetaSpanID] != client.SpanID {
		t.Fatalf("inject wrote %v", md)
	}
	if md[MetaSampled] != "1" {
		t.Fatal("sampled flag must propagate")
	}
	_, server := b.StartRemote(context.Background(), "rpc.server", md)
	server.Finish()
	client.Finish()
	_ = ctx

	// The server span joined the client's trace and — because the
	// sampled flag propagated — was recorded on b despite rate 0.
	if server.TraceID != client.TraceID || server.ParentID != client.SpanID {
		t.Fatalf("server span not stitched: %+v", server)
	}
	if got := len(b.Snapshot()); got != 1 {
		t.Fatalf("remote sampled span must be recorded, got %d", got)
	}
}

func TestJoinTraceAlwaysKept(t *testing.T) {
	tr := New("n1") // rate 0, no slow threshold
	s := tr.JoinTrace("deadbeefdeadbeef", "cafe", "links.Redrive")
	s.Finish()
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].TraceID != "deadbeefdeadbeef" || spans[0].ParentID != "cafe" {
		t.Fatalf("joined span not retained: %+v", spans)
	}
}

func TestRingBounded(t *testing.T) {
	tr := New("n1", WithSampleRate(1), WithCapacity(64))
	for i := 0; i < 1000; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.Finish()
	}
	if got := len(tr.Snapshot()); got > 64 {
		t.Fatalf("ring must be bounded at 64, got %d", got)
	}
}

func TestPendingTraceBufferBounded(t *testing.T) {
	tr := New("n1", WithSlowThreshold(time.Hour)) // active, rate 0
	// Open (and never finish) more traces than the buffer holds.
	var spans []*Span
	for i := 0; i < maxPendingTraces+10; i++ {
		_, s := tr.StartSpan(context.Background(), "open")
		spans = append(spans, s)
	}
	if tr.Dropped() == 0 {
		t.Fatal("overflow must be counted")
	}
	for _, s := range spans {
		s.Finish()
	}
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("fast unsampled spans must not be retained, got %d", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New("n1", WithSampleRate(1))
	ctx, root := tr.StartSpan(context.Background(), "root")
	root.Annotate(String("svc", "cal.phil"), Int("n", 3))
	root.AddEvent("journal.begin", String("nid", "N-1"))
	_, child := tr.StartSpan(ctx, "child")
	child.FinishErr(&wire.RemoteError{Code: wire.CodeConflict, Msg: "locked"})
	root.Finish()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back []*Span
	for dec := json.NewDecoder(&buf); dec.More(); {
		s := new(Span)
		if err := dec.Decode(s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 2 {
		t.Fatalf("want 2 spans back, got %d", len(back))
	}
	tree := Stitch(back)[0]
	if tree.Spans != 2 || len(tree.Roots) != 1 {
		t.Fatalf("round-tripped spans must stitch: %+v", tree)
	}
}

func TestRenderFlameTree(t *testing.T) {
	tr := New("n1", WithSampleRate(1))
	ctx, root := tr.StartSpan(context.Background(), "links.Negotiate")
	root.Annotate(String("nid", "N-42"))
	_, child := tr.StartSpan(ctx, "links.Commit")
	child.FinishErr(&wire.RemoteError{Code: wire.CodeUnavailable, Msg: "down"})
	root.FinishErr(&wire.RemoteError{Code: wire.CodeInDoubt, Msg: "diverged"})

	c := NewCollector()
	c.Attach(tr)
	out := Stitch(c.Spans())[0].Render() // the slowest stitched tree
	for _, want := range []string{"IN-DOUBT", "links.Negotiate", "links.Commit", "nid=N-42", "code=unavailable", "└─"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestSampleRateBounds(t *testing.T) {
	tr := New("n1")
	rate := func() float64 { return math.Float64frombits(tr.rateBits.Load()) }
	tr.SetSampleRate(2)
	if rate() != 1 {
		t.Fatal("rate must clamp to 1")
	}
	tr.SetSampleRate(-1)
	if rate() != 0 {
		t.Fatal("rate must clamp to 0")
	}
	hits := 0
	tr.SetSampleRate(0.5)
	for i := 0; i < 2000; i++ {
		if tr.sample() {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("rate 0.5 sampled %d/2000", hits)
	}
}

func TestResetAndConcurrency(t *testing.T) {
	tr := New("n1", WithSampleRate(1), WithCapacity(256))
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartSpan(context.Background(), "r")
				_, c := tr.StartSpan(ctx, "c")
				c.AddEvent("e", Int("i", i))
				c.Finish()
				root.Finish()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if len(tr.Snapshot()) == 0 {
		t.Fatal("spans must be recorded")
	}
}
