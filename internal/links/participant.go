package links

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Participant-side fault tolerance. A mark (phase-1 lock + check) puts
// the participant in doubt: it holds a locked entity whose fate is
// decided elsewhere. Three mechanisms keep that safe under loss and
// coordinator crashes:
//
//   - pending marks: every Mark taken for a remote coordinator is
//     remembered (token, negotiation id, coordinator, action, args)
//     until Commit or Abort arrives, so the participant can resolve
//     the outcome itself;
//   - decided tokens: recently committed/aborted tokens are cached so
//     a re-delivered Commit acks instead of double-applying and a
//     re-delivered Abort stays a no-op;
//   - the resolution sweep: pending marks whose lock TTL is lapsing
//     are extended (a decided-but-undelivered Commit must not lose its
//     lock to a TTL steal) and the coordinator is asked via the
//     QueryOutcome RPC; presumed-abort applies when the coordinator is
//     gone past the presumeAbortAfter horizon or disclaims the
//     negotiation.

// QueryOutcome answers. OutcomeUnknown means the coordinator is alive
// and the negotiation is still in flight — its fate is not decided (or
// not published) yet, so the participant must keep the mark pinned and
// ask again rather than presume abort.
const (
	OutcomeCommit  = "commit"
	OutcomeAbort   = "abort"
	OutcomeUnknown = "unknown"
)

// pendingMark is one phase-1 lock this node granted to a remote
// coordinator and whose outcome is not yet known.
type pendingMark struct {
	Token       string
	Entity      string
	Action      string
	Args        wire.Args
	NID         string
	Coordinator string
	Created     time.Time
	// TraceID/SpanID come from the Mark RPC's server span so the
	// resolution sweep's spans stitch into the negotiation's trace.
	TraceID string
	SpanID  string
}

// decision is a recently decided token outcome.
type decision struct {
	committed bool
	at        time.Time
}

// notePendingMark records a freshly granted mark (Mark handler).
func (m *Manager) notePendingMark(p *pendingMark) {
	m.partMu.Lock()
	m.pendMark[p.Token] = p
	m.partMu.Unlock()
}

// dropPendingMark forgets a mark once its outcome is decided.
func (m *Manager) dropPendingMark(token string) {
	m.partMu.Lock()
	delete(m.pendMark, token)
	m.partMu.Unlock()
}

// errDecided stops a Commit step that finds its token already decided:
// a duplicate delivery won the race for it.
var errDecided = errors.New("links: token already decided")

// recordDecided writes a token's outcome into the durable
// SyD_NegotiationDecided table, in the unit u of the step that decided
// it: an applied-but-unacked Commit must survive a participant crash
// together with what it applied, or the re-sent Commit would re-run
// Check/Apply against the already applied state. The first decision
// wins — a Commit that raced a presumed abort must not flip the
// recorded outcome, including a decision persisted before a restart —
// so a token already on record is errDecided.
func (m *Manager) recordDecided(u *store.Tx, token, nid string, committed bool) error {
	if u.Has(NegotiationDecided, token) {
		return errDecided
	}
	c := int64(0)
	if committed {
		c = 1
	}
	r := m.decidedT.NewRow()
	r.SetStr("token", token)
	r.SetStr("nid", nid)
	r.SetInt("committed", c)
	r.SetTime("at", m.clk.Now())
	return u.Insert(NegotiationDecided, r)
}

// cacheDecided notes a decided token in memory for duplicate-delivery
// detection, once its row is committed, and forgets its pending mark.
func (m *Manager) cacheDecided(token string, committed bool) {
	m.partMu.Lock()
	if _, exists := m.decided[token]; !exists {
		m.decided[token] = decision{committed: committed, at: m.clk.Now()}
	}
	delete(m.pendMark, token)
	m.partMu.Unlock()
}

// noteAborted decides a token aborted, as a unit of its own, unless it
// is decided already.
func (m *Manager) noteAborted(ctx context.Context, token, nid string) {
	err := m.db.Unit(ctx, func(u *store.Tx) error { return m.recordDecided(u, token, nid, false) })
	if errors.Is(err, errDecided) {
		m.decidedOutcome(token) // the earlier decision stands: warm the cache with it
		m.dropPendingMark(token)
		return
	}
	if err != nil {
		// Not on the log: the cache still rejects a late Commit until a
		// restart, after which the late-commit path re-checks the entity.
		m.count("decided-write", wire.CodeInternal)
	}
	m.cacheDecided(token, false)
}

// applyDecided is the participant's Commit step: the action's change
// and the token's decided row are one commit unit, committed before the
// caller releases the entity lock it holds. A change that fails leaves
// nothing behind and decides the token aborted; a token a duplicate
// delivery decided first is answered as that decision.
func (m *Manager) applyDecided(ctx context.Context, entity, token, nid, action string, args wire.Args) error {
	err := m.db.Unit(ctx, func(u *store.Tx) error {
		// The token first: a step re-run after a duplicate delivery beat
		// it to the commit must find that out before it applies anything.
		if err := m.recordDecided(u, token, nid, true); err != nil {
			return err
		}
		return m.applyLocal(u, entity, action, args)
	})
	switch {
	case err == nil:
		m.cacheDecided(token, true)
	case errors.Is(err, errDecided):
		committed, _ := m.decidedOutcome(token)
		m.dropPendingMark(token)
		return m.alreadyDecided(ctx, entity, committed)
	default:
		m.noteAborted(ctx, token, nid)
	}
	return err
}

// decidedOutcome looks a token up in the decided cache, falling back to
// the durable table (and re-warming the cache) after a restart.
func (m *Manager) decidedOutcome(token string) (committed, known bool) {
	m.partMu.Lock()
	d, ok := m.decided[token]
	m.partMu.Unlock()
	if ok {
		return d.committed, true
	}
	var at time.Time
	if !m.decidedT.View(func(r store.Row) { committed, at = r.Int("committed") != 0, r.Time("at") }, token) {
		return false, false
	}
	m.partMu.Lock()
	if _, exists := m.decided[token]; !exists {
		m.decided[token] = decision{committed: committed, at: at}
	}
	m.partMu.Unlock()
	return committed, true
}

// PendingMarks reports how many marks are awaiting an outcome
// (diagnostics and tests).
func (m *Manager) PendingMarks() int {
	m.partMu.Lock()
	defer m.partMu.Unlock()
	return len(m.pendMark)
}

// gcDecided drops decided entries older than decidedTTL, from the cache
// and from the durable table.
func (m *Manager) gcDecided(ctx context.Context, now time.Time) {
	m.partMu.Lock()
	for tok, d := range m.decided {
		if now.Sub(d.at) > decidedTTL {
			delete(m.decided, tok)
		}
	}
	m.partMu.Unlock()
	var old []string
	m.decidedT.ViewAll(func(r store.Row) {
		if now.Sub(r.Time("at")) > decidedTTL {
			old = append(old, r.Str("token"))
		}
	})
	if len(old) == 0 {
		return
	}
	slices.Sort(old) // the unit's log record lists the deletes in token order
	// One unit for the sweep; a row that is already gone fails it, and
	// the next sweep finds what is left.
	err := m.db.Unit(ctx, func(u *store.Tx) error {
		for _, token := range old {
			if err := u.Delete(NegotiationDecided, token); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		m.count("decided-write", wire.CodeInternal)
	}
}

// queryOutcome asks a negotiation's coordinator whether it committed
// and, if so, with which arguments.
func (m *Manager) queryOutcome(ctx context.Context, coordinator, nid, token string) (string, wire.Args, error) {
	ctx, span := trace.Start(ctx, "links.QueryOutcome")
	if span != nil {
		span.Annotate(trace.String("coordinator", coordinator), trace.String("nid", nid))
		defer span.Finish()
	}
	if coordinator == m.self {
		outcome, args := m.Outcome(nid, token)
		return outcome, args, nil
	}
	var out struct {
		Outcome string    `json:"outcome"`
		Args    wire.Args `json:"args"`
	}
	err := m.invokeRetry(ctx, m.service(coordinator), "QueryOutcome", wire.Args{
		wire.Str("nid", nid), wire.Str("token", token),
	}, &out)
	return out.Outcome, out.Args, err
}

// ResolvePendingMarks is the participant half of the recovery sweep:
// for every mark still awaiting its outcome it re-arms the lock TTL
// (an in-doubt entity must not be stolen from under a decided commit)
// and asks the coordinator how the negotiation ended. A "commit"
// answer applies the change now — the coordinator's own retry will be
// acked as a duplicate; an "abort" answer (a coordinator that finally
// decided abort, or one that restarted and does not know the
// negotiation) releases the lock; an "unknown" answer (the negotiation
// is still in flight) keeps the mark pinned. If the coordinator stays
// unreachable past presumeAbortAfter, abort is presumed: the lock is
// released and later Commits for the token are rejected. Returns the
// number of marks resolved.
func (m *Manager) ResolvePendingMarks(ctx context.Context, now time.Time) int {
	m.gcDecided(ctx, now)

	m.partMu.Lock()
	marks := make([]*pendingMark, 0, len(m.pendMark))
	for _, p := range m.pendMark {
		marks = append(marks, p)
	}
	m.partMu.Unlock()

	resolved := 0
	for _, p := range marks {
		// The mark may have been decided between the snapshot and now.
		if _, known := m.decidedOutcome(p.Token); known {
			m.dropPendingMark(p.Token)
			continue
		}
		if m.resolveMark(ctx, p, now) {
			resolved++
		}
	}
	return resolved
}

// letGo resolves the pending mark p to abort: lock released, token
// decided, and the entity offered to whoever is queued on it.
func (m *Manager) letGo(ctx context.Context, p *pendingMark) {
	m.Locks.Unlock(p.Entity, p.Token)
	m.noteAborted(ctx, p.Token, p.NID)
	m.offer(ctx, p.Entity, "", p.Coordinator)
}

// resolveMark drives one in-doubt mark through the resolution protocol,
// reporting whether it reached a decision. A "links.Resolve" span joins
// the negotiation's trace (always retained — resolution only runs when
// an outcome went undelivered) so the post-mortem shows how the doubt
// ended.
func (m *Manager) resolveMark(ctx context.Context, p *pendingMark, now time.Time) bool {
	span := m.tracerRef().JoinTrace(p.TraceID, p.SpanID, "links.Resolve")
	if span != nil {
		span.Annotate(trace.String("nid", p.NID), trace.String("entity", p.Entity))
		ctx = trace.ContextWithSpan(ctx, span)
		defer span.Finish()
	}
	if !m.Locks.Extend(p.Entity, p.Token) {
		// The lock is gone (stolen after a real expiry): the
		// entity may already belong to another negotiation, so
		// this mark can only resolve to abort.
		m.noteAborted(ctx, p.Token, p.NID)
		m.count("presume-abort", wire.CodeConflict)
		span.Annotate(trace.String("outcome", "presume-abort"))
		return true
	}
	outcome, args, err := m.queryOutcome(ctx, p.Coordinator, p.NID, p.Token)
	if err != nil {
		if now.Sub(p.Created) > presumeAbortAfter {
			m.letGo(ctx, p)
			m.count("presume-abort", wire.CodeUnavailable)
			span.Annotate(trace.String("outcome", "presume-abort"))
			return true
		}
		// Coordinator unreachable; keep the lock pinned.
		span.SetError(err)
		span.Annotate(trace.String("outcome", "pinned"))
		return false
	}
	switch outcome {
	case OutcomeCommit:
		// Decision was COMMIT: apply, under the still-held lock, what
		// the coordinator journaled with it.
		// A change that fails decides the token aborted (applyDecided).
		err := m.applyDecided(ctx, p.Entity, p.Token, p.NID, p.Action, args)
		m.Locks.Unlock(p.Entity, p.Token)
		if err != nil {
			m.offer(ctx, p.Entity, "", p.Coordinator)
		}
		m.count("resolve", wire.CodeOK)
		span.Annotate(trace.String("outcome", OutcomeCommit))
	case OutcomeUnknown:
		// The negotiation is still in flight at a live coordinator
		// (e.g. this sweep landed between the Mark grant and the
		// coordinator's journal write): its fate is not decided yet,
		// so keep the mark pinned and ask again next sweep. The
		// presumeAbortAfter horizon still applies as a backstop so a
		// wedged coordinator cannot pin the entity forever — it
		// comfortably exceeds any live negotiation's duration.
		if now.Sub(p.Created) > presumeAbortAfter {
			m.letGo(ctx, p)
			m.count("presume-abort", wire.CodeConflict)
			span.Annotate(trace.String("outcome", "presume-abort"))
			return true
		}
		span.Annotate(trace.String("outcome", "pinned"))
		return false
	default:
		m.letGo(ctx, p)
		m.count("resolve", wire.CodeConflict)
		span.Annotate(trace.String("outcome", OutcomeAbort))
	}
	return true
}
