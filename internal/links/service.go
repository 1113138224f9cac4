package links

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/listener"
	"repro/internal/trace"
	"repro/internal/wire"
)

// commitLocalToken is the participant-side Commit protocol, shared by
// the Commit RPC handler and the coordinator's own self-target path
// (inline phase 2 and journal redrive alike):
//
//   - A token already decided committed acks again (duplicate
//     delivery — the first Commit's response was lost) without
//     double-applying.
//   - A token already decided aborted (explicit Abort, presumed abort,
//     or a refusal of this very Commit) is rejected.
//   - A live lock held by the token applies normally.
//   - Any other token holds no lock here: a one-phase reserve's, sent
//     with no Mark, or a late commit's, whose mark lapsed or was
//     cleared by a crash. Either locks the entity, runs the action's
//     Check and applies, in one step, so a commit delayed past the TTL
//     still lands when — and only when — the entity is compatible with
//     it. An entity locked by another (a mark's lapsed lock re-granted
//     included) is refused as lock-held, and a refusal decides the token
//     aborted: no redrive applies it later.
func (m *Manager) commitLocalToken(ctx context.Context, entity, token, nid, action string, args wire.Args, caller string) error {
	if committed, known := m.decidedOutcome(token); known {
		return m.alreadyDecided(ctx, entity, committed)
	}
	if m.Locks.Holds(entity, token) {
		err := m.applyDecided(ctx, entity, token, nid, action, args)
		m.Locks.Unlock(entity, token)
		trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "commit"), trace.Bool("ok", err == nil))
		if err != nil {
			// The entity is as it was: whoever is queued on it is next.
			m.offer(ctx, entity, "", caller)
		}
		return err
	}
	tok, ok := m.Locks.TryLock(entity, caller)
	if !ok {
		m.noteAborted(ctx, token, nid)
		trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "unmarked-rejected"))
		return errLockHeld(entity)
	}
	a, err := m.action(action)
	if err != nil {
		m.Locks.Unlock(entity, tok)
		return err
	}
	if a.Check != nil {
		if err := a.Check(entity, args); err != nil {
			m.Locks.Unlock(entity, tok)
			m.noteAborted(ctx, token, nid)
			trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "unmarked-rejected"))
			return err
		}
	}
	err = m.applyDecided(ctx, entity, token, nid, action, args)
	m.Locks.Unlock(entity, tok)
	trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "unmarked"), trace.Bool("ok", err == nil))
	return err
}

// alreadyDecided answers a Commit for a decided token: a duplicate of
// the Commit that applied acks again, one for an aborted token is
// refused.
func (m *Manager) alreadyDecided(ctx context.Context, entity string, committed bool) error {
	if committed {
		m.count("commit-dup", wire.CodeOK)
		trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "duplicate-commit"))
		return nil
	}
	return wire.Refuse(wire.ReasonDecidedAbort, "links: negotiation already aborted on %s", entity)
}

// Object returns the listener object exposing this manager to remote
// negotiators and cascade operations. Register it as links.<user>.
func (m *Manager) Object() *listener.Object {
	obj := listener.NewObject()

	// Mark: phase-1 lock + condition check (§4.3 "Mark X ... an
	// attempted change, which triggers any associated link without
	// actual change on X"). The negotiation id and caller are recorded
	// with the mark so the participant can later resolve the outcome
	// itself (QueryOutcome) if Commit/Abort never arrives.
	obj.Handle("Mark", func(ctx context.Context, call *listener.Call) (any, error) {
		entity := call.Args.String("entity")
		action := call.Args.String("action")
		if entity == "" || action == "" {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "Mark needs entity and action"}
		}
		args := call.Args.Sub("args")
		tok, err := m.markLocal(entity, action, args)
		if err != nil {
			return nil, err
		}
		if nid := call.Args.String("nid"); nid != "" && call.Caller != "" {
			p := &pendingMark{
				Token: tok, Entity: entity, Action: action, Args: args,
				NID: nid, Coordinator: call.Caller, Created: m.clk.Now(),
			}
			// Remember the request's trace so a later resolution sweep
			// stitches its spans under this Mark.
			if span := trace.FromContext(ctx); span != nil {
				p.TraceID, p.SpanID = span.TraceID, span.SpanID
			}
			m.notePendingMark(p)
		}
		return tok, nil
	})

	// Commit: phase-2 apply + unlock, or a one-phase reserve's lock,
	// check, apply and unlock; safe to re-deliver (see commitLocalToken
	// for the full decision table).
	obj.Handle("Commit", func(ctx context.Context, call *listener.Call) (any, error) {
		entity := call.Args.String("entity")
		token := call.Args.String("token")
		nid := call.Args.String("nid")
		action := call.Args.String("action")
		if err := m.commitLocalToken(ctx, entity, token, nid, action, call.Args.Sub("args"), call.Caller); err != nil {
			return nil, err
		}
		return true, nil
	})

	// Abort: release without change; duplicates are no-ops and later
	// Commits for the token are rejected.
	obj.Handle("Abort", func(ctx context.Context, call *listener.Call) (any, error) {
		entity := call.Args.String("entity")
		token := call.Args.String("token")
		released := m.Locks.Unlock(entity, token)
		if token != "" {
			m.noteAborted(ctx, token, call.Args.String("nid"))
			trace.FromContext(ctx).AddEvent("links.decided", trace.String("kind", "abort"))
		}
		if released {
			m.offer(ctx, entity, "", call.Caller)
		}
		return true, nil
	})

	// QueryOutcome: the in-doubt resolution RPC. A participant whose
	// lock TTL is about to lapse asks the coordinator whether the
	// negotiation committed; the answer is presumed-abort for any
	// negotiation without a live commit-journal row.
	obj.Handle("QueryOutcome", func(ctx context.Context, call *listener.Call) (any, error) {
		nid := call.Args.String("nid")
		if nid == "" {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "QueryOutcome needs nid"}
		}
		outcome, args := m.Outcome(nid, call.Args.String("token"))
		return map[string]any{"outcome": outcome, "args": args}, nil
	})

	// Apply: unlocked check+apply (subscription information flow).
	obj.Handle("Apply", func(ctx context.Context, call *listener.Call) (any, error) {
		entity := call.Args.String("entity")
		action := call.Args.String("action")
		if err := m.checkAndApply(ctx, entity, action, call.Args.Sub("args")); err != nil {
			return nil, err
		}
		return true, nil
	})

	// AddLink: install a link row in this node's link database. The row
	// travels as the JSON text InstallAt encoded, decoded here once.
	obj.Handle("AddLink", func(ctx context.Context, call *listener.Call) (any, error) {
		var l Link
		if err := json.Unmarshal([]byte(call.Args.String("link")), &l); err != nil {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("bad link: %v", err)}
		}
		if err := m.InstallAt(ctx, m.self, &l); err != nil {
			return nil, err
		}
		return map[string]string{"id": l.ID}, nil
	})

	// DeleteLink: the cascading §4.4 deletion.
	obj.Handle("DeleteLink", func(ctx context.Context, call *listener.Call) (any, error) {
		return true, m.DeleteLink(ctx, call.Args.String("id"), call.Args.Strings("visited"))
	})

	// DeleteLinkLocal: remove only this node's row (dropout).
	obj.Handle("DeleteLinkLocal", func(ctx context.Context, call *listener.Call) (any, error) {
		return true, m.DeleteLinkLocal(ctx, call.Args.String("id"))
	})

	return obj
}
