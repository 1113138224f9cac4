package links

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Spec describes one negotiation: attempt action on every target and
// succeed according to the constraint (§4.3 semantics).
//
// When Local is non-nil the activating entity itself participates:
// it is marked and locked first ("Mark A for change and Lock A"),
// changed only if the constraint is satisfied, and unlocked last.
type Spec struct {
	Action     string
	Args       wire.Args
	Targets    []EntityRef
	Constraint Constraint
	K          int // k for k-of-n (0 means 1)

	// Decide, if set, runs once the constraint holds, with the marked
	// targets in mark order. What it returns is merged over Args for the
	// change at every marked target, so the Commit carries what only the
	// decision knows. It is journaled with the COMMIT decision: a redriven
	// Commit and a QueryOutcome answer apply exactly the same thing. Mark
	// sees Args alone, and so does Local.
	Decide func(marked []EntityRef) wire.Args

	// Local, if set, is the activator's own change.
	Local *LocalChange

	// Vote, if set, is one more target, which marked itself before it was
	// asked (see Manager.offer): no Mark is sent to it, the negotiation runs
	// under the id the voter minted, where its QueryOutcome will look, and
	// an abort sends it nothing: it lets go on the answer its vote gets.
	Vote *Vote
}

// Vote is an entity locked for a negotiation nobody has started yet: the
// mark's token and the negotiation id its holder will ask Outcome about.
type Vote struct {
	Ref   EntityRef
	Token string
	NID   string
}

// LocalChange is the activating entity's own mark/change.
type LocalChange struct {
	Entity string
	Action string
	Args   wire.Args
}

// State classifies how a negotiation resolved.
type State string

// Negotiation states.
const (
	// StateCommitted: every marked target applied the change.
	StateCommitted State = "committed"
	// StateAborted: no target applied the change (constraint failure
	// or every commit definitively rejected before anything landed).
	StateAborted State = "aborted"
	// StateInDoubt: phase 2 diverged — some targets committed, others
	// are still pending (the journal sweeper keeps re-sending) or were
	// definitively rejected. Never reported as a clean success.
	StateInDoubt State = "in-doubt"
)

// Result is a negotiation outcome.
type Result struct {
	OK bool `json:"ok"`
	// State is the honest protocol outcome. OK is true only for
	// StateCommitted; a phase-2 divergence is StateInDoubt with
	// OK=false and a typed *InDoubtError from Negotiate.
	State State `json:"state,omitempty"`
	// NID is the negotiation id (journal key; present whenever the
	// negotiation reached phase 1).
	NID      string      `json:"nid,omitempty"`
	Accepted []EntityRef `json:"accepted"` // targets changed
	Rejected []EntityRef `json:"rejected"` // targets that could not be marked or definitively refused commit
	// InDoubt lists marked targets whose Commit has not been
	// acknowledged yet; the commit-retry sweeper is driving them.
	InDoubt []EntityRef `json:"inDoubt,omitempty"`
}

// InDoubtError is returned by Negotiate when the commit phase
// diverged: the COMMIT decision is journaled and the retry sweeper
// will keep re-sending, but at return time not every target has
// acknowledged. Callers must not treat the change as fully applied —
// and must not treat it as absent either.
type InDoubtError struct {
	NID       string
	Committed []EntityRef
	Pending   []EntityRef
	Failed    []EntityRef
}

// Error implements error.
func (e *InDoubtError) Error() string {
	return fmt.Sprintf("links: negotiation %s in doubt: %d committed, %d pending retry, %d failed",
		e.NID, len(e.Committed), len(e.Pending), len(e.Failed))
}

// Code aligns InDoubtError with the wire error taxonomy.
func (e *InDoubtError) Code() wire.ErrCode { return wire.CodeInDoubt }

// IsInDoubt reports whether err (anywhere in its chain) is an
// InDoubtError.
func IsInDoubt(err error) bool {
	var ide *InDoubtError
	return errors.As(err, &ide)
}

// errConstraint refuses a marked set that does not satisfy the constraint
// for reason: the first refused mark's, or ReasonConstraint for none.
func errConstraint(reason wire.Reason, c Constraint, k, locked, n int) error {
	return wire.Refuse(reason, "links: constraint %s(k=%d) unsatisfied: %d of %d targets markable", c, k, locked, n)
}

// markResult is a phase-1 outcome for one target. voted marks the one
// that came as a Vote.
type markResult struct {
	ref   EntityRef
	token string
	err   error
	voted bool
}

// Negotiate runs the two-phase mark-and-lock protocol of §4.3.
//
// Phase 1 marks (try-locks + condition-checks) the targets:
// sequentially in global entity order for And (every target must lock,
// and ordering prevents deadlock between overlapping negotiations),
// concurrently for Or/Xor (try-locks cannot deadlock and the paper's
// semantics lock "those entities that can be successfully changed").
//
// The constraint is then evaluated on the locked set: And needs all,
// Or at least k, Xor exactly k. On success the local change (if any)
// and every locked target are changed and unlocked; on failure every
// acquired lock is released and nothing changes anywhere.
func (m *Manager) Negotiate(ctx context.Context, spec Spec) (*Result, error) {
	ctx, span := m.tracerRef().StartSpan(ctx, "links.Negotiate")
	res, err := m.negotiate(ctx, span, spec)
	if span != nil {
		span.Annotate(
			trace.String("nid", res.NID),
			trace.String("state", string(res.State)),
			trace.String("constraint", string(spec.Constraint)),
			trace.Int("targets", len(spec.Targets)),
		)
		span.FinishErr(err)
	}
	return res, err
}

func (m *Manager) negotiate(ctx context.Context, span *trace.Span, spec Spec) (*Result, error) {
	res := &Result{State: StateAborted}
	if spec.Vote != nil {
		res.NID = spec.Vote.NID
	} else {
		res.NID = NewNegotiationID()
	}
	// Register the negotiation as in flight before the first Mark goes
	// out: a participant fault sweep that asks about it while no
	// journal row exists yet must hear "unknown", not a presumed abort
	// that would release a mark this negotiation is about to commit.
	// Dropped only on return, when the fate is final and published.
	m.noteInflight(res.NID)
	defer m.dropInflight(res.NID)
	k := spec.K
	if k <= 0 {
		k = 1
	}
	if spec.Constraint == "" {
		spec.Constraint = And
	}

	// Mark A for change and lock A.
	var localToken string
	var local EntityRef
	if spec.Local != nil {
		local = EntityRef{User: m.self, Entity: spec.Local.Entity}
		tok, err := m.markLocal(spec.Local.Entity, spec.Local.Action, spec.Local.Args)
		m.step(span, "mark", local, err)
		if err != nil {
			res.Rejected = append(res.Rejected, local)
			m.count("outcome", wire.CodeConflict)
			return res, fmt.Errorf("links: activator mark failed: %w", err)
		}
		localToken = tok
		defer func() {
			// Whatever happens, A's lock is released at the end
			// ("Unlock A" is the last line of every §4.3 semantic).
			m.Locks.Unlock(spec.Local.Entity, localToken)
		}()
	}

	targets := spec.Targets
	var marks []markResult
	if spec.Constraint == And {
		targets = append([]EntityRef(nil), targets...) // sorted in a copy: the caller's is theirs
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
		marks = m.markSequential(ctx, span, res.NID, targets, spec.Action, spec.Args)
	} else {
		marks = m.markParallel(ctx, span, res.NID, targets, spec.Action, spec.Args)
	}
	n := len(targets)
	if v := spec.Vote; v != nil {
		marks = append(marks, markResult{ref: v.Ref, token: v.Token, voted: true})
		m.step(span, "mark", v.Ref, nil)
		n++
	}

	marked := make([]journalTarget, 0, len(marks))
	refusal := wire.ReasonConstraint // Xor over-satisfied: no mark refused
	for _, mr := range marks {
		if mr.err == nil {
			marked = append(marked, journalTarget{Ref: mr.ref, Token: mr.token})
			continue
		}
		if len(res.Rejected) == 0 {
			refusal = wire.ReasonOf(mr.err) // the first refused mark's, in mark order
		}
		res.Rejected = append(res.Rejected, mr.ref)
	}
	locked := len(marked)

	satisfied := false
	switch spec.Constraint {
	case And:
		satisfied = locked == n
	case Or:
		satisfied = locked >= k
	case Xor:
		satisfied = locked == k
	}
	if span != nil {
		span.AddEvent("constraint", trace.String("constraint", string(spec.Constraint)),
			trace.Int("k", k), trace.Int("locked", locked), trace.Int("n", n), trace.Bool("ok", satisfied))
	}

	if !satisfied {
		m.abortMarked(ctx, res.NID, marks)
		for _, mr := range marks {
			if mr.err == nil {
				m.step(span, "abort", mr.ref, nil)
			}
		}
		m.count("outcome", wire.CodeConflict)
		return res, errConstraint(refusal, spec.Constraint, k, locked, n)
	}

	commitArgs := spec.Args
	if spec.Decide != nil && locked > 0 {
		refs := make([]EntityRef, len(marked))
		for i, t := range marked {
			refs[i] = t.Ref
		}
		commitArgs = spec.Args.With(spec.Decide(refs)...)
	}

	// The constraint holds: the decision is COMMIT. Persist it — with
	// every marked target and its lock token — before changing anything
	// elsewhere, so a crash or lost Commit from here on is recoverable
	// by the retry sweeper instead of silently divergent. The decision
	// and the activator's own change ("Change A") are one commit unit:
	// the row is written once, with the local change done, or not at all.
	var rec *journalRec
	if locked > 0 {
		// NextRetry starts one backoff out: the inline phase 2 is being
		// driven right now, and the sweeper must not redrive the same
		// row concurrently with it.
		rec = &journalRec{
			ID: res.NID, Action: spec.Action, Args: commitArgs, Created: m.clk.Now(),
			NextRetry: m.clk.Now().Add(backoffAfter(1)),
			Pending:   marked,
		}
		if span != nil {
			// The row carries the trace identity so recovery sweeps —
			// possibly after a restart — rejoin this negotiation's trace.
			rec.TraceID, rec.SpanID = span.TraceID, span.SpanID
		}
	}
	if rec != nil || spec.Local != nil {
		var localErr error
		err := m.db.Unit(ctx, func(u *store.Tx) error {
			if rec != nil {
				if err := m.journalBegin(u, rec.ID, rec.NextRetry, rec); err != nil {
					return err
				}
			}
			if spec.Local != nil {
				localErr = m.applyLocal(u, spec.Local.Entity, spec.Local.Action, spec.Local.Args)
			}
			return localErr
		})
		if err != nil {
			// Nothing is journaled and nothing has changed anywhere, so
			// the decision can still be flipped to abort everywhere:
			// without a journal row recovery is impossible, and a local
			// apply that failed after its own check passed under lock
			// leaves nothing to commit to.
			m.abortMarked(ctx, res.NID, marks)
			m.count("outcome", wire.CodeInternal)
			if localErr != nil {
				m.step(span, "change", local, err)
				return res, fmt.Errorf("links: activator change failed: %w", err)
			}
			return res, fmt.Errorf("links: journal negotiation intent: %w", err)
		}
	}
	if rec != nil && span != nil {
		attrs := []trace.Attr{trace.Int("targets", len(rec.Pending))}
		if lsn, ok := m.lastLSN(); ok {
			attrs = append(attrs, trace.Int64("lsn", int64(lsn)))
		}
		span.AddEvent("journal.begin", attrs...)
	}
	if spec.Local != nil {
		m.step(span, "change", local, nil)
	}

	commitErrs := m.commitTargets(ctx, res.NID, marked, spec.Action, commitArgs, false)
	var pendingRefs, failedRefs []EntityRef
	var stillPending []journalTarget
	for i, tgt := range marked {
		err := commitErrs[i]
		m.step(span, "change", tgt.Ref, err)
		switch {
		case err == nil:
			res.Accepted = append(res.Accepted, tgt.Ref)
			m.step(span, "unlock", tgt.Ref, nil)
		case engine.IsTransient(err):
			// The Commit (or its ack) was lost: the target may or may
			// not have applied. The sweeper re-sends until it answers.
			pendingRefs = append(pendingRefs, tgt.Ref)
			stillPending = append(stillPending, tgt)
		default:
			// Definitive rejection (stale/stolen token, decided
			// abort): re-sending cannot change it.
			failedRefs = append(failedRefs, tgt.Ref)
			res.Rejected = append(res.Rejected, tgt.Ref)
		}
	}

	if rec != nil {
		rec.Committed = res.Accepted
		rec.Failed = failedRefs
		rec.Pending = stillPending
		rec.Attempts = 1
		rec.NextRetry = m.clk.Now().Add(backoffAfter(1))
		if m.journalSettle(ctx, rec) {
			span.AddEvent("journal.retire")
		} else {
			span.AddEvent("journal.pending", trace.Int("targets", len(stillPending)))
		}
	}

	if len(pendingRefs) > 0 || len(failedRefs) > 0 {
		// Phase 2 diverged: never report a clean success.
		res.InDoubt = pendingRefs
		if len(res.Accepted) == 0 && len(pendingRefs) == 0 && spec.Local == nil {
			// Nothing landed anywhere: honest outcome is a full abort.
			res.State = StateAborted
		} else {
			res.State = StateInDoubt
		}
		m.count("outcome", wire.CodeInDoubt)
		return res, &InDoubtError{
			NID: res.NID, Committed: res.Accepted, Pending: pendingRefs, Failed: failedRefs,
		}
	}
	res.OK = true
	res.State = StateCommitted
	m.count("outcome", wire.CodeOK)
	return res, nil
}

// step records phase (mark, change, unlock or abort) of ref, done with err,
// as an event on the negotiation's span, if any. A failed one carries err's
// reason and, unless skipped, counts as (links, "refused", reason).
func (m *Manager) step(span *trace.Span, phase string, ref EntityRef, err error) {
	var reason wire.Reason
	if err != nil {
		reason = wire.ReasonOf(err)
		if reason != wire.ReasonSkipped {
			m.registry().Observe(metrics.LayerLinks, "refused", string(reason), wire.CodeOf(err), 0)
		}
	}
	if span != nil {
		attrs := []trace.Attr{trace.String("entity", ref.String()), trace.Bool("ok", err == nil), trace.String("reason", string(reason))}
		if err == nil {
			attrs = attrs[:2]
		}
		span.AddEvent(phase, attrs...)
	}
}

// errSkippedMark is the And-semantics skip: once any mark fails the
// constraint is doomed, so later targets are not marked at all.
var errSkippedMark = wire.Refuse(wire.ReasonSkipped, "links: skipped after earlier mark failure")

// markSequential marks targets one at a time in the given (globally
// sorted) order, so overlapping negotiations acquire locks in the same
// order and cannot deadlock. Targets after the first failure are
// skipped (And semantics: any failure already dooms the constraint).
func (m *Manager) markSequential(ctx context.Context, span *trace.Span, nid string, targets []EntityRef, action string, args wire.Args) []markResult {
	marks := make([]markResult, len(targets))
	failed := false
	for i, ref := range targets {
		mr := markResult{ref: ref, err: errSkippedMark}
		if !failed {
			mr.token, mr.err = m.markTarget(ctx, nid, ref, action, args)
			failed = mr.err != nil
		}
		marks[i] = mr
		m.step(span, "mark", ref, mr.err)
	}
	return marks
}

// markParallel marks all targets concurrently (Or/Xor semantics) and
// records the marks in target order once all have returned.
func (m *Manager) markParallel(ctx context.Context, span *trace.Span, nid string, targets []EntityRef, action string, args wire.Args) []markResult {
	if len(targets) == 0 {
		return nil
	}
	marks := make([]markResult, len(targets))
	engine.FanOut(len(targets), func(i int) {
		tok, err := m.markTarget(ctx, nid, targets[i], action, args)
		marks[i] = markResult{ref: targets[i], token: tok, err: err}
	})
	for _, mr := range marks {
		m.step(span, "mark", mr.ref, mr.err)
	}
	return marks
}

// commitTargets runs the commit phase for tgts concurrently, one
// Commit per target. The returned errors align with tgts.
func (m *Manager) commitTargets(ctx context.Context, nid string, tgts []journalTarget, action string, args wire.Args, qos bool) []error {
	if len(tgts) == 0 {
		return nil
	}
	errs := make([]error, len(tgts))
	engine.FanOut(len(tgts), func(i int) {
		errs[i] = m.commitTarget(ctx, nid, tgts[i].Ref, tgts[i].Token, action, args, qos)
	})
	return errs
}

// abortMarked releases every successfully marked target but a voter,
// which lets go itself. Errors are ignored: an unreachable participant
// resolves the doubt itself via the pending-mark sweep.
func (m *Manager) abortMarked(ctx context.Context, nid string, marks []markResult) {
	for _, mr := range marks {
		if mr.err == nil && !mr.voted {
			m.abortTarget(ctx, nid, mr.ref, mr.token)
		}
	}
}

// errLockHeld refuses a mark or a vote of an entity marked already.
func errLockHeld(entity string) error {
	return wire.Refuse(wire.ReasonLockHeld, "links: %s is locked", entity)
}

// markLocal locks + checks a local entity.
func (m *Manager) markLocal(entity, action string, args wire.Args) (string, error) {
	a, err := m.action(action)
	if err != nil {
		return "", err
	}
	tok, ok := m.Locks.TryLock(entity, m.self)
	if !ok {
		return "", errLockHeld(entity)
	}
	if a.Check != nil {
		if err := a.Check(entity, args); err != nil {
			m.Locks.Unlock(entity, tok)
			return "", err
		}
	}
	return tok, nil
}

// applyLocal applies an action to a local entity in the step's unit u
// (lock already held by the negotiation, and released only once u has
// committed).
func (m *Manager) applyLocal(u *store.Tx, entity, action string, args wire.Args) error {
	a, err := m.action(action)
	if err != nil {
		return err
	}
	if a.Apply != nil {
		return a.Apply(u, entity, args)
	}
	return nil
}

// markTarget marks a (possibly remote) target entity. The negotiation
// id rides along so the participant can resolve the outcome itself if
// neither Commit nor Abort ever reaches it.
func (m *Manager) markTarget(ctx context.Context, nid string, ref EntityRef, action string, args wire.Args) (string, error) {
	ctx, span := trace.Start(ctx, "links.Mark")
	if span != nil {
		span.Annotate(trace.String("target", ref.String()))
	}
	tok, err := m.markTargetInner(ctx, nid, ref, action, args)
	span.FinishErr(err)
	return tok, err
}

func (m *Manager) markTargetInner(ctx context.Context, nid string, ref EntityRef, action string, args wire.Args) (string, error) {
	if ref.User == m.self {
		return m.markLocal(ref.Entity, action, args)
	}
	var tok string
	err := m.eng.Invoke(ctx, m.service(ref.User), "Mark", wire.Args{
		wire.Str("entity", ref.Entity), wire.Str("action", action), wire.Sub("args", args),
		wire.Str("nid", nid),
	}, &tok)
	return tok, err
}

// commitTarget applies the change at a marked target and releases its
// lock. With qos set (the retry sweeper's path) the Commit rides
// invokeRetry so one sweep absorbs short transient blips; the
// first in-line attempt uses a plain Invoke — a failure there is
// journaled, not blocking.
func (m *Manager) commitTarget(ctx context.Context, nid string, ref EntityRef, token, action string, args wire.Args, qos bool) error {
	ctx, span := trace.Start(ctx, "links.Commit")
	if span != nil {
		span.Annotate(trace.String("target", ref.String()))
		if qos {
			span.Annotate(trace.Bool("redrive", true))
		}
	}
	err := m.commitTargetInner(ctx, nid, ref, token, action, args, qos)
	span.FinishErr(err)
	return err
}

func (m *Manager) commitTargetInner(ctx context.Context, nid string, ref EntityRef, token, action string, args wire.Args, qos bool) error {
	if err := m.commitFaultFor(nid, ref); err != nil {
		return err
	}
	if ref.User == m.self {
		// Same protocol as the remote Commit handler: duplicate ack,
		// stale-token rejection, and — crucial after a coordinator
		// restart wiped the in-memory lock table — the late-commit
		// path that re-locks and re-runs Check instead of applying
		// blindly over whatever booked the entity since.
		return m.commitLocalToken(ctx, ref.Entity, token, nid, action, args, m.self)
	}
	callArgs := wire.Args{
		wire.Str("entity", ref.Entity), wire.Str("token", token), wire.Str("action", action),
		wire.Sub("args", args), wire.Str("nid", nid),
	}
	if qos {
		return m.invokeRetry(ctx, m.service(ref.User), "Commit", callArgs, nil)
	}
	return m.eng.Invoke(ctx, m.service(ref.User), "Commit", callArgs, nil)
}

// abortTarget releases a marked target without changing it.
func (m *Manager) abortTarget(ctx context.Context, nid string, ref EntityRef, token string) {
	ctx, span := trace.Start(ctx, "links.Abort")
	if span != nil {
		span.Annotate(trace.String("target", ref.String()))
		defer span.Finish()
	}
	if ref.User == m.self {
		m.Locks.Unlock(ref.Entity, token)
		return
	}
	_ = m.eng.Invoke(ctx, m.service(ref.User), "Abort", wire.Args{
		wire.Str("entity", ref.Entity), wire.Str("token", token), wire.Str("nid", nid),
	}, nil)
}
