package links

import (
	"context"
	"slices"
	"strings"

	"repro/internal/store"
)

// The recovery schedule and the mark TTL, for tests that advance a fake
// clock past them.
const (
	LockTTL           = lockTTL
	RetryBase         = retryBase
	RetryCap          = retryCap
	MaxAttempts       = maxAttempts
	PresumeAbortAfter = presumeAbortAfter
)

// Self returns the owning user id.
func (m *Manager) Self() string { return m.self }

// AllLinks returns every local link in id order, the link table's key
// order (diagnostics and tests).
func (m *Manager) AllLinks() []*Link {
	var out []*Link
	m.linksT.ViewAll(func(r store.Row) {
		if l, err := rowToLink(r); err == nil {
			out = append(out, l)
		}
	})
	slices.SortFunc(out, func(a, b *Link) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Locked reports whether entity is currently locked by anyone.
func (lt *LockTable) Locked(entity string) bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e, ok := lt.locks[entity]
	return ok && e.live(lt.clk.Now())
}

// Sweep drops expired lock entries (housekeeping; correctness does not
// depend on it because TryLock steals expired locks).
func (lt *LockTable) Sweep() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	now := lt.clk.Now()
	n := 0
	for k, e := range lt.locks {
		if !e.live(now) {
			delete(lt.locks, k)
			n++
		}
	}
	return n
}

// OfferExcept offers entity as the deletion of a link whose target is
// notTo does: notTo's waiters are passed over.
func (m *Manager) OfferExcept(ctx context.Context, entity, notTo string) {
	m.offer(ctx, entity, "", notTo)
}
