package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/directory"
	"repro/internal/wire"
)

// DirCache is the client-side directory route cache. Installed as an
// interceptor it pre-fills Call.Route from memory on the warm path,
// so a hot invocation loop makes zero directory calls — the directory
// server stops being a per-call bottleneck. Entries expire after a
// TTL and are invalidated eagerly whenever an attempt ends
// unreachable, so a crashed device is re-resolved on the next call; a
// moved device is re-resolved by the resolver within the call itself,
// and the cache keeps the new route.
//
// It is the node's one cache of directory answers: the directory.Client
// under it asks the directory every time.
type DirCache struct {
	ttl   time.Duration
	nowFn func() time.Time

	mu      sync.RWMutex
	entries map[string]dirCacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// dirCacheEntry's info is never written through once stored: a hit
// hands the pointer itself to the call as its Route.
type dirCacheEntry struct {
	info    *directory.ServiceInfo
	expires time.Time
}

// NewDirCache creates a route cache whose entries live for ttl.
func NewDirCache(ttl time.Duration) *DirCache {
	return &DirCache{
		ttl:     ttl,
		nowFn:   time.Now,
		entries: make(map[string]dirCacheEntry),
	}
}

// lookup returns the unexpired cached route for name, nil if none.
func (c *DirCache) lookup(name string) *directory.ServiceInfo {
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
	if !ok || !c.nowFn().Before(e.expires) {
		return nil
	}
	return e.info
}

// store caches a freshly resolved route for name.
func (c *DirCache) store(name string, info *directory.ServiceInfo) {
	c.mu.Lock()
	c.entries[name] = dirCacheEntry{info: info, expires: c.nowFn().Add(c.ttl)}
	c.mu.Unlock()
}

// Invalidate drops the cached route for name.
func (c *DirCache) Invalidate(name string) {
	c.mu.Lock()
	_, had := c.entries[name]
	delete(c.entries, name)
	c.mu.Unlock()
	if had {
		c.invalidations.Add(1)
	}
}

// Flush drops every cached route.
func (c *DirCache) Flush() {
	c.mu.Lock()
	c.entries = make(map[string]dirCacheEntry)
	c.mu.Unlock()
}

// DirCacheStats is a snapshot of cache effectiveness counters.
type DirCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Size          int
}

// Stats returns the cache's counters and current entry count.
func (c *DirCache) Stats() DirCacheStats {
	c.mu.RLock()
	size := len(c.entries)
	c.mu.RUnlock()
	return DirCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          size,
	}
}

// Interceptor returns the cache's chain stage. It sits directly above
// the resolver: on a hit it pre-fills Call.Route (the resolver then
// skips its directory lookup); on a miss it lets the resolver do the
// lookup and caches the result once the destination has answered — a
// refusal proves the route as well as a result does. A route the
// resolver replaced (the device moved) is cached the same way;
// unreachable errors invalidate the entry.
func (c *DirCache) Interceptor() Interceptor {
	return func(next Invoker) Invoker {
		return func(ctx context.Context, call *Call, out any) error {
			if call.Addr != "" || call.Route != nil {
				return next(ctx, call, out) // nothing to resolve or already resolved
			}
			info := c.lookup(call.Service)
			hit := info != nil
			if hit {
				c.hits.Add(1)
				call.Route = info
			} else {
				c.misses.Add(1)
			}
			err := next(ctx, call, out)
			switch {
			case err != nil && isUnavailable(err):
				c.Invalidate(call.Service)
			// answered last: it allocates, and a warm hit never needs it.
			case call.Route != nil && (!hit || call.Route.Addr != info.Addr) && answered(err):
				c.store(call.Service, call.Route)
			}
			return err
		}
	}
}

// answered reports whether err is the destination's own reply: nil, or
// an error it sent back (the caller has already ruled out unavailable).
func answered(err error) bool {
	var re *wire.RemoteError
	return err == nil || errors.As(err, &re)
}
