package links

import (
	"context"
	"fmt"
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
// by the next TryLock. A Hold is the one mark that waits and has no TTL:
// its holder is a goroutine of this device, not a peer that may be gone.
type LockTable struct {
	clk clock.Clock

	mu    sync.Mutex
	locks map[string]lockEntry
	// sweepAt is twice what the last sweep left (grant).
	sweepAt int
	// wake is closed by the next release while a Hold waits, and nil
	// while none does.
	wake chan struct{}

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
	// Acquired counts successful TryLock and Hold grants (including
	// steals).
	Acquired uint64 `json:"acquired"`
	// Conflicts counts TryLock and HoldVote refusals by a live lock.
	Conflicts uint64 `json:"conflicts"`
	// Steals counts grants that displaced an expired entry.
	Steals uint64 `json:"steals"`
}

type lockEntry struct {
	token    string
	holder   string
	deadline time.Time
	hold     Hold // how a goroutine of this device holds it; 0 for a mark
}

// live reports whether the entry still excludes others at now: a hold
// until it is released, a mark until its deadline.
func (e lockEntry) live(now time.Time) bool { return e.hold != 0 || now.Before(e.deadline) }

// A Hold says how a goroutine of this device holds an entity it marked
// with LockTable.Hold.
type Hold uint8

const (
	// HoldStep holds the entity across a local step, which waits on no
	// other device's holds: anyone may wait for its release.
	HoldStep Hold = iota + 1
	// HoldNegotiation holds the entity across a negotiation's RPCs.
	HoldNegotiation
	// HoldVote is a negotiation a vote starts. It is refused at once by
	// an entity a negotiation holds, since that negotiation may be waiting
	// on the voter's device, and waits for a step.
	HoldVote
)

// lockTTL bounds how long a mark can outlive its negotiation.
const lockTTL = 30 * time.Second

// NewLockTable creates a lock table.
func NewLockTable(clk clock.Clock) *LockTable {
	if clk == nil {
		clk = clock.System
	}
	return &LockTable{clk: clk, locks: make(map[string]lockEntry)}
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
	if e, ok := lt.locks[entity]; ok && e.live(now) {
		lt.conflicts++
		return "", false
	}
	return lt.grant(entity, lockEntry{holder: holder, deadline: now.Add(lockTTL)}), true
}

// Hold marks entity for holder, a goroutine of this device, as how, and
// returns the token that releases it (Unlock). An entity that is marked
// already is waited for until a release frees it or ctx ends; only a
// HoldVote that finds a negotiation holding it is refused, at once, as
// lock-held. The hold has no deadline, so no TTL steal takes it.
func (lt *LockTable) Hold(ctx context.Context, entity, holder string, how Hold) (string, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for {
		e, ok := lt.locks[entity]
		if !ok || !e.live(lt.clk.Now()) {
			return lt.grant(entity, lockEntry{holder: holder, hold: how}), nil
		}
		if how == HoldVote && (e.hold == HoldNegotiation || e.hold == HoldVote) {
			lt.conflicts++
			return "", errLockHeld(entity)
		}
		if lt.wake == nil {
			lt.wake = make(chan struct{})
		}
		wake := lt.wake
		lt.mu.Unlock()
		select {
		case <-wake:
			lt.mu.Lock()
		case <-ctx.Done():
			lt.mu.Lock()
			return "", fmt.Errorf("links: waiting for %s: %w", entity, ctx.Err())
		}
	}
}

// grant installs e for entity under a fresh token and returns the token;
// an entry it displaces has expired. Finding the table (of 64 or more)
// doubled since the last sweep, it drops the expired entries. lt.mu is held.
func (lt *LockTable) grant(entity string, e lockEntry) string {
	if _, ok := lt.locks[entity]; ok {
		lt.steals++
	}
	if len(lt.locks) >= max(lt.sweepAt, 64) {
		now := lt.clk.Now()
		for k, old := range lt.locks {
			if !old.live(now) {
				delete(lt.locks, k)
			}
		}
		lt.sweepAt = 2 * len(lt.locks)
	}
	e.token = newToken()
	lt.locks[entity] = e
	lt.acquired++
	return e.token
}

// Hold marks a local entity for the calling goroutine as how and returns
// its release (LockTable.Hold says who waits and who is refused): an
// application's own steps on a record that is no negotiated entity are
// serialised in the same table as the marks.
func (m *Manager) Hold(ctx context.Context, entity string, how Hold) (release func(), err error) {
	tok, err := m.Locks.Hold(ctx, entity, m.self, how)
	if err != nil {
		return nil, err
	}
	return func() { m.Locks.Unlock(entity, tok) }, nil
}

// Stats returns a snapshot of the table's contention counters.
func (lt *LockTable) Stats() LockStats {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return LockStats{Acquired: lt.acquired, Conflicts: lt.conflicts, Steals: lt.steals}
}

// Unlock releases entity if token matches the live lock, and wakes the
// Holds waiting. Unlocking with a stale token (expired and re-granted) is
// a no-op.
func (lt *LockTable) Unlock(entity, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	if !ok || e.token != token {
		return false
	}
	delete(lt.locks, entity)
	if lt.wake != nil {
		close(lt.wake)
		lt.wake = nil
	}
	return true
}

// Holds reports whether token currently holds entity's lock.
func (lt *LockTable) Holds(entity, token string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	return ok && e.token == token && e.live(lt.clk.Now())
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
	e.deadline = lt.clk.Now().Add(lockTTL)
	lt.locks[entity] = e
	return true
}

// Len reports the number of live locks. An expired entry is not one,
// though it stays in the table until it is stolen or a grant sweeps it.
func (lt *LockTable) Len() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := 0
	now := lt.clk.Now()
	for _, e := range lt.locks {
		if e.live(now) {
			n++
		}
	}
	return n
}
