package links

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The offer is the one step every way an entity comes free on a device
// ends in: a link deleted or expired, an appointment released, a mark
// let go without a change. The §4.4 conversion of a tentative link is
// itself a §4.3 change ("Mark X for change and Lock X", check, change,
// unlock), so the device does not convert the waiter and tell its target
// to come and ask: it marks the entity for the best waiter itself and
// sends the target that mark, a vote nobody asked for.

// Offer announces that entity has come free on this device by something
// other than a link's deletion, which makes the offer itself.
func (m *Manager) Offer(ctx context.Context, entity string) { m.offer(ctx, entity, "", "") }

// offer hands entity to the best tentative link on it that votes:
// highest priority, lowest id. tok, if set, is the entity's lock, taken
// for this offer before the entity was freed; it passes to the vote or
// is released. A target that declines makes room for the next-best
// waiter; one out of reach ends the offer, the waiters staying queued for
// the entity's next release. Links whose target is notTo are passed
// over: whoever has just let go is not offered it back.
func (m *Manager) offer(ctx context.Context, entity, tok, notTo string) {
	var buf [4]string
	declined := buf[:0]
	for {
		best, t := m.bestVoter(entity, notTo, declined)
		if best == nil {
			m.Locks.Unlock(entity, tok)
			return
		}
		if !m.vote(ctx, best, t, tok) {
			return
		}
		tok, declined = "", append(declined, best.ID)
	}
}

// bestVoter ranks the tentative rows on entity that have not declined
// from their columns, and decodes them best first until one votes whose
// target is not notTo: the link and its vote trigger, or nil.
func (m *Manager) bestVoter(entity, notTo string, declined []string) (*Link, Trigger) {
	var buf [8]waiter
	ws := buf[:0]
	m.linksT.ViewEq("owner_entity", entity, func(r store.Row) {
		if id := r.Str("id"); r.Str("subtype") == string(Tentative) && !contains(declined, id) {
			ws = append(ws, waiter{id: id, prio: r.Int("priority")})
		}
	})
	slices.SortFunc(ws, func(a, b waiter) int { return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(a.id, b.id)) })
	for _, w := range ws {
		var l *Link
		m.linksT.View(func(r store.Row) { l, _ = rowToLink(r) }, w.id)
		if l == nil {
			continue // gone since the ranking, or a row that does not decode (LinksOn skips one too)
		}
		if t, votes := l.voteTrigger(); votes && l.Targets[0].User != notTo {
			return l, t
		}
	}
	return nil, Trigger{}
}

// queuedOn reports whether a tentative link other than id is attached
// to entity.
func (m *Manager) queuedOn(entity, id string) bool {
	queued := false
	m.linksT.ViewEq("owner_entity", entity, func(r store.Row) {
		queued = queued || r.Str("subtype") == string(Tentative) && r.Str("id") != id
	})
	return queued
}

// vote marks l's own entity with the action its trigger t names (under
// tok, if the caller holds the entity's lock already), remembers the mark
// as a pending one whose coordinator is l's target, and sends the target
// t's method with the token and a fresh negotiation id. From there it is
// the ordinary protocol: the target's Commit applies the change and
// releases the lock, its journal redrives a lost Commit, the resolution
// sweep asks it QueryOutcome. An error is the target's Abort: the mark is
// let go at once, decided aborted, so a Commit still under way is refused.
// vote reports whether the target declined (not: took the mark, was out
// of reach, or the entity was locked or not free).
func (m *Manager) vote(ctx context.Context, l *Link, t Trigger, tok string) (declined bool) {
	ctx, span := trace.Start(ctx, "links.Trigger")
	if span != nil {
		span.Annotate(trace.String("link", l.ID), trace.String("event", "avail"), trace.String("type", string(l.Type)))
		defer span.Finish()
	}
	entity, args := l.Owner.Entity, t.Args
	var err error
	if tok == "" {
		tok, err = m.markLocal(entity, t.Action, args)
	} else if err = m.check(entity, t.Action, args); err != nil {
		m.Locks.Unlock(entity, tok)
	}
	if err != nil {
		return false
	}
	p := &pendingMark{
		Token: tok, Entity: entity, Action: t.Action, Args: args,
		NID: NewNegotiationID(), Coordinator: l.Targets[0].User, Created: m.clk.Now(),
	}
	if span != nil {
		p.TraceID, p.SpanID = span.TraceID, span.SpanID
	}
	m.notePendingMark(p)
	err = m.invokeTrigger(ctx, l, t, l.Targets[0], t.Args.With(wire.Str("token", tok), wire.Str("nid", p.NID)))
	if err == nil {
		return false
	}
	span.SetError(err)
	m.Locks.Unlock(entity, tok)
	m.noteAborted(ctx, tok, p.NID)
	return !engine.IsTransient(err)
}

// check runs action's Check on a local entity.
func (m *Manager) check(entity, action string, args wire.Args) error {
	a, err := m.action(action)
	if err != nil || a.Check == nil {
		return err
	}
	return a.Check(entity, args)
}
