package links

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// LockTable implements the entity mark/lock step of the paper's
// negotiation semantics (§4.3: "Mark B and C for change and Lock B
// and C"). Locks are try-locks — an already-locked entity fails the
// mark immediately instead of blocking — which, combined with globally
// ordered acquisition for `and` constraints, makes the distributed
// protocol deadlock-free.
//
// Each lock carries a TTL so a crashed or partitioned negotiator
// cannot wedge an entity forever; an expired lock is silently stolen
// by the next TryLock.
type LockTable struct {
	clk clock.Clock
	ttl time.Duration

	mu    sync.Mutex
	locks map[string]lockEntry

	// Contention counters (see LockStats).
	acquired  uint64
	conflicts uint64
	steals    uint64
}

// LockStats is a snapshot of a table's cumulative contention counters.
// The scale harness aggregates these across a fleet: under skewed load
// the conflict rate on the hot entities is the leading indicator of
// the nonlinear abort-rate regime.
type LockStats struct {
	// Acquired counts successful TryLock grants (including steals).
	Acquired uint64 `json:"acquired"`
	// Conflicts counts TryLock rejections by a live lock.
	Conflicts uint64 `json:"conflicts"`
	// Steals counts grants that displaced an expired entry.
	Steals uint64 `json:"steals"`
}

type lockEntry struct {
	token    string
	holder   string
	deadline time.Time
}

// DefaultLockTTL bounds how long a mark can outlive its negotiation.
const DefaultLockTTL = 30 * time.Second

// NewLockTable creates a lock table. ttl <= 0 uses DefaultLockTTL.
func NewLockTable(clk clock.Clock, ttl time.Duration) *LockTable {
	if clk == nil {
		clk = clock.System
	}
	if ttl <= 0 {
		ttl = DefaultLockTTL
	}
	return &LockTable{clk: clk, ttl: ttl, locks: make(map[string]lockEntry)}
}

// newToken returns a fresh opaque lock token (see ids.go for the
// uniqueness scheme).
func newToken() string { return mintID() }

// TryLock marks entity for holder (recorded for diagnostics only). It
// returns the lock token and true on success, or "" and false when a
// live lock holds the entity. Locks are not re-entrant: a single
// negotiation never marks the same entity twice, and two negotiations
// by the same user must still exclude each other.
func (lt *LockTable) TryLock(entity, holder string) (string, bool) {
	now := lt.clk.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if e, ok := lt.locks[entity]; ok {
		if now.Before(e.deadline) {
			lt.conflicts++
			return "", false
		}
		lt.steals++
	}
	e := lockEntry{token: newToken(), holder: holder, deadline: now.Add(lt.ttl)}
	lt.locks[entity] = e
	lt.acquired++
	return e.token, true
}

// Stats returns a snapshot of the table's contention counters.
func (lt *LockTable) Stats() LockStats {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return LockStats{Acquired: lt.acquired, Conflicts: lt.conflicts, Steals: lt.steals}
}

// Unlock releases entity if token matches the live lock. Unlocking
// with a stale token (expired and re-granted) is a no-op.
func (lt *LockTable) Unlock(entity, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	if !ok || e.token != token {
		return false
	}
	delete(lt.locks, entity)
	return true
}

// Holds reports whether token currently holds entity's lock.
func (lt *LockTable) Holds(entity, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	return ok && e.token == token && lt.clk.Now().Before(e.deadline)
}

// Extend pushes entity's lock deadline one full TTL into the future if
// token still owns the entry — even an expired entry, as long as no
// other negotiation has stolen it. An in-doubt participant uses this to
// pin its mark while it resolves the outcome with the coordinator, so
// a decided-but-undelivered Commit cannot race a TTL steal.
func (lt *LockTable) Extend(entity, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	if !ok || e.token != token {
		return false
	}
	e.deadline = lt.clk.Now().Add(lt.ttl)
	lt.locks[entity] = e
	return true
}

// Holder returns the token recorded for entity's lock and whether that
// lock is still live. A (token, false) return means the entry expired
// but has not been re-granted yet.
func (lt *LockTable) Holder(entity string) (token string, live bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	if !ok {
		return "", false
	}
	return e.token, lt.clk.Now().Before(e.deadline)
}

// Locked reports whether entity is currently locked by anyone.
func (lt *LockTable) Locked(entity string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	return ok && lt.clk.Now().Before(e.deadline)
}

// Len reports the number of live locks (expired entries are counted
// until stolen or swept).
func (lt *LockTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := 0
	now := lt.clk.Now()
	for _, e := range lt.locks {
		if now.Before(e.deadline) {
			n++
		}
	}
	return n
}

// Sweep drops expired lock entries (housekeeping; correctness does not
// depend on it because TryLock steals expired locks).
func (lt *LockTable) Sweep() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	now := lt.clk.Now()
	n := 0
	for k, e := range lt.locks {
		if !now.Before(e.deadline) {
			delete(lt.locks, k)
			n++
		}
	}
	return n
}
