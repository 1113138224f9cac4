package engine

import "time"

// WithDirCacheNow overrides the cache's time source (tests drive TTL
// expiry deterministically).
func WithDirCacheNow(now func() time.Time) DirCacheOption {
	return func(c *DirCache) { c.nowFn = now }
}
