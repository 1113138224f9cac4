package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/listener"
	"repro/internal/wire"
)

// cachedEngine builds an engine with a route cache driven by a
// controllable clock (now holds nanoseconds since the epoch).
func cachedEngine(w *testWorld, self string, ttl time.Duration, now *atomic.Int64) (*Engine, *DirCache) {
	cache := NewDirCache(ttl)
	cache.nowFn = func() time.Time { return time.Unix(0, now.Load()) }
	return New(w.net, w.dir, self, WithDirCache(cache)), cache
}

func TestDirCacheWarmPathSkipsDirectory(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Minute, &now)
	ctx := context.Background()

	// Cold call: one directory lookup + one invocation.
	w.net.ResetStats()
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := w.net.Stats().Requests; got != 2 {
		t.Fatalf("cold call made %d requests, want 2 (lookup + invoke)", got)
	}

	// Warm calls: zero directory traffic, exactly one request each.
	w.net.ResetStats()
	const warm = 10
	for i := 0; i < warm; i++ {
		if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.net.Stats().Requests; got != warm {
		t.Fatalf("warm calls made %d requests, want %d (no directory lookups)", got, warm)
	}
	st := cache.Stats()
	if st.Hits != warm || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want %d hits / 1 miss", st, warm)
	}
}

// TestDirCacheKeepsRouteAfterRefusal: a destination that answers with
// its own error (a refused Mark is CodeConflict) has proven the route
// as well as one that answers OK, so the second call asks the directory
// nothing.
func TestDirCacheKeepsRouteAfterRefusal(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Minute, &now)
	ctx := context.Background()
	refused := func() {
		t.Helper()
		err := e.Invoke(ctx, "cal.phil", "FailIf", wire.Args{wire.Str("who", "phil")}, nil)
		if wire.CodeOf(err) != wire.CodeConflict {
			t.Fatalf("err = %v, want the handler's conflict", err)
		}
	}

	w.net.ResetStats()
	refused()
	if got := w.net.Stats().Requests; got != 2 {
		t.Fatalf("cold refused call made %d requests, want 2 (lookup + invoke)", got)
	}
	w.net.ResetStats()
	refused()
	if got := w.net.Stats().Requests; got != 1 {
		t.Fatalf("second refused call made %d requests, want 1 (%d directory requests, want 0)", got, got-1)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestDirCacheTTLExpiry(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Minute, &now)
	ctx := context.Background()

	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Within the TTL: served from cache.
	now.Store(int64(30 * time.Second))
	w.net.ResetStats()
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := w.net.Stats().Requests; got != 1 {
		t.Fatalf("within TTL made %d requests, want 1", got)
	}
	// Past the TTL: the entry expired, the next call re-resolves.
	now.Store(int64(2 * time.Minute))
	w.net.ResetStats()
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := w.net.Stats().Requests; got != 2 {
		t.Fatalf("past TTL made %d requests, want 2 (fresh lookup)", got)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (cold + expired)", st.Misses)
	}
}

func TestDirCacheInvalidatedOnUnreachable(t *testing.T) {
	w := newWorld(t)
	w.addNode("phil")
	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Hour, &now)
	ctx := context.Background()

	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Size != 1 {
		t.Fatalf("route not cached: %+v", cache.Stats())
	}

	// Device vanishes: the failed call must drop the stale route.
	w.net.SetDown("node-phil", true)
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); wire.CodeOf(err) != wire.CodeUnavailable {
		t.Fatalf("err = %v", err)
	}
	st := cache.Stats()
	if st.Size != 0 || st.Invalidations != 1 {
		t.Fatalf("stale route survived unreachable: %+v", st)
	}

	// Device returns: the next call re-resolves and succeeds.
	w.net.SetDown("node-phil", false)
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirCacheFollowsMovedRoute: phil's user moves to another node (a
// stand-in took it over) while andy's cache still holds the old route.
// The first call on it finds the old node down, asks the directory
// once, reaches the new node, and the cache keeps the new route.
func TestDirCacheFollowsMovedRoute(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	w.addNode("phil")

	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Hour, &now)

	// Cache the healthy route.
	var out map[string]string
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out["owner"] != "phil" {
		t.Fatalf("expected direct answer, got %v", out)
	}

	// phil's services move to a stand-in and the device goes down.
	standIn := listener.New("standin-phil", nil)
	obj := listener.NewObject()
	obj.Handle("WhoAmI", func(ctx context.Context, call *listener.Call) (any, error) {
		return map[string]string{"owner": "standin-phil"}, nil
	})
	standIn.Register("cal.phil", obj)
	if _, err := w.net.Listen("standin-phil", standIn); err != nil {
		t.Fatal(err)
	}
	if err := w.dir.Repoint(ctx, "phil", "standin-phil"); err != nil {
		t.Fatal(err)
	}
	w.net.SetDown("node-phil", true)

	w.net.ResetStats()
	out = nil
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out["owner"] != "standin-phil" {
		t.Fatalf("expected the stand-in's answer, got %v", out)
	}
	// One try at the dead node, then one lookup and one call.
	if st := w.net.Stats(); st.Dropped != 1 || st.Requests != 2 {
		t.Fatalf("moved call = %d dropped, %d requests; want 1 and 2 (lookup + invoke)", st.Dropped, st.Requests)
	}
	// The next call goes straight to the stand-in from the cache.
	w.net.ResetStats()
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, &out); err != nil || out["owner"] != "standin-phil" {
		t.Fatalf("second call = %v, %v", out, err)
	}
	if st := w.net.Stats(); st.Dropped != 0 || st.Requests != 1 {
		t.Fatalf("warm moved route = %d dropped, %d requests; want 0 and 1", st.Dropped, st.Requests)
	}
	if st := cache.Stats(); st.Size != 1 || st.Invalidations != 0 {
		t.Fatalf("cache after the move = %+v", st)
	}
}

func TestDirCacheConcurrentInvokeAndInvalidate(t *testing.T) {
	// Race-detector stress: concurrent Invokes against concurrent
	// invalidation, TTL churn, and device flapping. Every call must
	// either succeed or fail unavailable, with no data races.
	w := newWorld(t)
	w.addNode("phil")
	var now atomic.Int64
	e, cache := cachedEngine(w, "andy", time.Hour, &now)
	ctx := context.Background()

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cache.Invalidate("cal.phil")
			w.net.SetDown("node-phil", i%2 == 0)
			now.Add(int64(time.Second))
		}
	}()

	const goroutines = 8
	const iters = 50
	var unexpected atomic.Int64
	var invokers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		invokers.Add(1)
		go func() {
			defer invokers.Done()
			for i := 0; i < iters; i++ {
				err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil)
				if err != nil && wire.CodeOf(err) != wire.CodeUnavailable {
					unexpected.Add(1)
				}
			}
		}()
	}
	invokers.Wait()
	close(stop)
	flapper.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d calls failed with non-unavailable errors", n)
	}
	// Leave the device up: a final call must succeed end-to-end.
	w.net.SetDown("node-phil", false)
	if err := e.Invoke(ctx, "cal.phil", "WhoAmI", nil, nil); err != nil {
		t.Fatal(err)
	}
}
