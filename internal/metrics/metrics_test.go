package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 4; i++ {
		r.Observe(LayerClient, "cal.phil", "WhoAmI", "", 2*time.Millisecond)
	}
	r.Observe(LayerClient, "cal.phil", "WhoAmI", wire.CodeConflict, 8*time.Millisecond)
	r.Observe(LayerServer, "cal.phil", "WhoAmI", "", time.Millisecond)

	snap := r.Snapshot()
	if len(snap.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (layer and code split series)", len(snap.Entries))
	}
	ok := snap.Find(LayerClient, "cal.phil", "WhoAmI", "")
	if ok == nil || ok.Count != 4 {
		t.Fatalf("client ok series = %+v", ok)
	}
	if ok.AvgMs < 1.9 || ok.AvgMs > 2.1 {
		t.Fatalf("avg = %v, want ~2ms", ok.AvgMs)
	}
	if ok.MaxMs < 1.9 || ok.MaxMs > 2.1 {
		t.Fatalf("max = %v, want ~2ms", ok.MaxMs)
	}
	if srv := snap.Find(LayerServer, "cal.phil", "WhoAmI", ""); srv == nil || srv.Count != 1 {
		t.Fatalf("server series = %+v", srv)
	}
	var total int64
	for _, e := range snap.Entries {
		total += e.Count
	}
	if total != 6 {
		t.Fatalf("total = %d", total)
	}
	if snap.Find(LayerClient, "cal.phil", "WhoAmI", wire.CodeUnavailable) != nil {
		t.Fatal("Find matched a code never observed")
	}
}

func TestPercentilesSeparateFastAndSlow(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 90; i++ {
		r.Observe(LayerClient, "s", "m", "", time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		r.Observe(LayerClient, "s", "m", "", 100*time.Millisecond)
	}
	e := r.Snapshot().Find(LayerClient, "s", "m", "")
	if e == nil {
		t.Fatal("series missing")
	}
	// Buckets are power-of-two upper bounds: fast lands in (≤1.024ms),
	// slow in (≤131.072ms). p50 must report the fast bucket, p95/p99
	// the slow one.
	if e.P50Ms > 2 {
		t.Fatalf("p50 = %v, want ~1ms bucket", e.P50Ms)
	}
	if e.P95Ms < 100 || e.P99Ms < 100 {
		t.Fatalf("p95 = %v p99 = %v, want slow bucket", e.P95Ms, e.P99Ms)
	}
}

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // clamped in observe, but bucketOf must not panic
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{time.Hour, numBuckets - 1}, // overflow bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Fatalf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRenderTable(t *testing.T) {
	r := NewRegistry()
	if got := r.Snapshot().Render(); !strings.Contains(got, "no metrics") {
		t.Fatalf("empty render = %q", got)
	}
	r.Observe(LayerServer, "cal.phil", "WhoAmI", "", time.Millisecond)
	r.Observe(LayerClient, "cal.phil", "WhoAmI", wire.CodeAuth, time.Millisecond)
	out := r.Snapshot().Render()
	for _, want := range []string{"layer", "service", "server", "client", "cal.phil", "WhoAmI", "ok", string(wire.CodeAuth)} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Observe(LayerClient, "s", "m", "", time.Millisecond) // must not panic
	if len(r.Snapshot().Entries) != 0 {
		t.Fatal("nil registry produced entries")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Observe(LayerClient, "s", "m", "", time.Duration(i)*time.Microsecond)
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	e := r.Snapshot().Find(LayerClient, "s", "m", "")
	if e == nil || e.Count != goroutines*iters {
		t.Fatalf("count = %+v, want %d", e, goroutines*iters)
	}
}
