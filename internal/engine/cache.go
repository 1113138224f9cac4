package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/directory"
	"repro/internal/wire"
)

// DirCache is the client-side directory route cache. On the warm path
// it gives a call its route from memory, so a hot invocation loop makes
// zero directory calls — the directory server stops being a per-call
// bottleneck. Entries expire after a
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
// hands the pointer itself to the call as its route.
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

// hit is the cache stage's lookup: the unexpired route for name, or
// nil, counted as a hit or a miss.
func (c *DirCache) hit(name string) *directory.ServiceInfo {
	info := c.lookup(name)
	if info != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return info
}

// learn keeps what a call that consulted the cache found out: its
// route is dropped when the device was unavailable, and stored once the
// destination has answered, when it is new (a miss the resolver filled,
// or a device that moved); a refusal proves the route as well as a
// result does.
func (c *DirCache) learn(name string, hit, route *directory.ServiceInfo, err error) {
	switch {
	case err != nil && IsUnavailable(err):
		c.Invalidate(name)
	// answered last: it allocates, and a warm hit never needs it.
	case route != nil && (hit == nil || route.Addr != hit.Addr) && answered(err):
		c.store(name, route)
	}
}

// answered reports whether err is the destination's own reply: nil, or
// an error it sent back (the caller has already ruled out unavailable).
func answered(err error) bool {
	var re *wire.RemoteError
	return err == nil || errors.As(err, &re)
}
