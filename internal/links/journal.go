package links

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/jsonrec"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The journal is the device's durable outbox (tables.go lists its two
// kinds). A commit row makes phase 2 of the §4.3 negotiation protocol
// crash- and loss-tolerant: the coordinator persists its COMMIT decision
// (the negotiation id, action, args, and every marked target with its
// lock token) *before* changing anything. A delete row does the same for
// the §4.4 cascade: the unit that takes a link's row out owes its other
// participants the DeleteLink. A lost message, a partitioned peer, or a
// crash then leaves the row behind, and the periodic sweep (the same
// schedule the paper uses for link expiry, §4.2 op 6) re-sends it with
// exponential backoff until no peer is owed, and the row is retired, or
// the row's end rule (expired) gives it up.

// The recovery schedule. The ordering that matters: an in-doubt
// participant presumes abort only once the coordinator's last redrive
// has had its chance. A journal row is redriven at most once per sweep,
// so its rounds after the inline one take maxAttempts-1 sweeps (5.5 min
// at sydnode's 30 s period, though the backoffs sum to 211.5 s), and a
// participant sees presumeAbortAfter pass only at its own next sweep:
// 10 min is above both together.
const (
	// retryBase is the sweeper's first backoff after a failed or
	// partial commit round; it doubles each round up to retryCap.
	retryBase = 500 * time.Millisecond
	retryCap  = 30 * time.Second
	// maxAttempts is the number of sweeper rounds before a journal row
	// is expired as a permanent (loud) failure.
	maxAttempts = 12
	// presumeAbortAfter is how long an in-doubt participant keeps a
	// mark alive while the coordinator is unreachable before it
	// presumes abort and releases the lock.
	presumeAbortAfter = 10 * time.Minute
	// decidedTTL is how long a participant remembers decided tokens so
	// duplicate Commit/Abort deliveries are recognized.
	decidedTTL = 10 * time.Minute
)

// invokeRetry is eng.Invoke for the recovery sweeps: commitQoS's quick
// in-attempt retry, its backoff waiting on the manager's clock.
func (m *Manager) invokeRetry(ctx context.Context, service, method string, args wire.Args, out any) error {
	return engine.Retry(ctx, commitQoS, m.clk, func(ctx context.Context) error {
		return m.eng.Invoke(ctx, service, method, args, out)
	})
}

// journalTarget is one marked target awaiting its Commit ack.
type journalTarget struct {
	Ref   EntityRef `json:"ref"`
	Token string    `json:"token"`
}

// Outbox row kinds; a row without one (as all were, once) is a commit row.
const kindCommit, kindDelete = "", "delete"

// journalRec is the decoded form of one SyD_NegotiationJournal row.
type journalRec struct {
	ID        string
	Kind      string `json:",omitempty"`
	Action    string
	Args      wire.Args
	Pending   []journalTarget
	Committed []EntityRef
	Failed    []EntityRef
	Attempts  int
	NextRetry time.Time
	Created   time.Time
	// TraceID/SpanID tie the row to the originating negotiation's
	// trace: recovery sweeps — possibly after a restart — rejoin the
	// trace so redrive attempts render under the original root.
	TraceID string
	SpanID  string
}

// body is the row's non-key columns, as a row of the journal table t
// due at next: what an update rewrites. The rec column is the text
// json.Marshal writes for r, appended field by field (FuzzJournalRecord
// holds the two equal). It fails where Marshal fails: on an argument with
// no JSON form (a NaN, an infinity, a func), which a decision computed by
// Spec.Decide can hold. The row keeps nothing of r's, so r may hold a
// caller's stack.
func (r *journalRec) body(t *store.Table, next time.Time) (store.Row, error) {
	var buf [1024]byte // room for a reservation's, which holds the decided record
	b, err := r.appendJSON(buf[:0])
	if err != nil {
		return store.Row{}, fmt.Errorf("links: journal encode: %w", err)
	}
	row := t.NewRow()
	row.SetStr("rec", string(b))
	row.SetTime("next_retry", next)
	return row, nil
}

func (r *journalRec) appendJSON(b []byte) ([]byte, error) {
	b = jsonrec.AppendString(append(b, `{"ID":`...), r.ID)
	if r.Kind != "" {
		b = jsonrec.AppendString(append(b, `,"Kind":`...), r.Kind)
	}
	b = jsonrec.AppendString(append(b, `,"Action":`...), r.Action)
	b, err := r.Args.AppendJSON(append(b, `,"Args":`...))
	if err != nil {
		return nil, err
	}
	b = append(b, `,"Pending":`...)
	if r.Pending == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range r.Pending {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRef(append(b, `{"ref":`...), t.Ref)
			b = append(jsonrec.AppendString(append(b, `,"token":`...), t.Token), '}')
		}
		b = append(b, ']')
	}
	b = appendTargets(append(b, `,"Committed":`...), r.Committed)
	b = appendTargets(append(b, `,"Failed":`...), r.Failed)
	b = strconv.AppendInt(append(b, `,"Attempts":`...), int64(r.Attempts), 10)
	if b, err = jsonrec.AppendTime(append(b, `,"NextRetry":`...), r.NextRetry); err != nil {
		return nil, err
	}
	if b, err = jsonrec.AppendTime(append(b, `,"Created":`...), r.Created); err != nil {
		return nil, err
	}
	b = jsonrec.AppendString(append(b, `,"TraceID":`...), r.TraceID)
	b = jsonrec.AppendString(append(b, `,"SpanID":`...), r.SpanID)
	return append(b, '}'), nil
}

// readJournal reads what appendJSON writes.
func readJournal(s string) (journalRec, bool) {
	var rec journalRec
	r := jsonrec.NewReader(s)
	r.Lit(`{"ID":`)
	rec.ID = r.String()
	if r.Opt(`,"Kind":`) {
		rec.Kind = r.String()
	}
	r.Lit(`,"Action":`)
	rec.Action = r.String()
	r.Lit(`,"Args":`)
	rec.Args = wire.ReadArgs(&r)
	r.Lit(`,"Pending":`)
	if !r.Null() {
		r.Lit("[")
		rec.Pending = []journalTarget{}
		for r.More(']') {
			var t journalTarget
			r.Lit(`{"ref":`)
			t.Ref = readRef(&r)
			r.Lit(`,"token":`)
			t.Token = r.String()
			r.Lit("}")
			rec.Pending = append(rec.Pending, t)
		}
	}
	r.Lit(`,"Committed":`)
	rec.Committed = readRefs(&r)
	r.Lit(`,"Failed":`)
	rec.Failed = readRefs(&r)
	r.Lit(`,"Attempts":`)
	rec.Attempts = r.Int()
	r.Lit(`,"NextRetry":`)
	rec.NextRetry = r.Time()
	r.Lit(`,"Created":`)
	rec.Created = r.Time()
	r.Lit(`,"TraceID":`)
	rec.TraceID = r.String()
	r.Lit(`,"SpanID":`)
	rec.SpanID = r.String()
	r.Lit("}")
	return rec, r.Done()
}

func journalFromRow(row store.Row) (*journalRec, error) {
	r, err := jsonrec.Decode(row.Str("rec"), readJournal)
	if err != nil {
		return nil, fmt.Errorf("links: journal %s: %w", row.Str("id"), err)
	}
	r.ID = row.Str("id")
	// The column is what the sweeper selected on; keep it authoritative
	// over the blob's copy.
	r.NextRetry = row.Time("next_retry")
	return &r, nil
}

// journalBegin writes rec's row, keyed id and due at next, in u, the unit
// that creates the debt (the COMMIT decision with the coordinator's own
// change, or a link's removal): in the store, and the WAL behind it,
// before the first message leaves the device.
func (m *Manager) journalBegin(u *store.Tx, id string, next time.Time, rec *journalRec) error {
	row, err := rec.body(m.journalT, next)
	if err != nil {
		return err
	}
	row.SetStr("id", id)
	return u.Insert(NegotiationJournal, row)
}

// journalSettle records how a round left rec, as one unit: the
// row is retired once no target is outstanding, and rewritten with the
// round's progress otherwise. A row that cannot
// be written stays as it was; the next sweep re-drives it, and targets
// that already applied ack the repeat as a duplicate.
func (m *Manager) journalSettle(ctx context.Context, rec *journalRec) (retired bool) {
	retired = len(rec.Pending) == 0
	if retired {
		m.journalRetire(ctx, rec.ID)
		return true
	}
	err := m.db.Unit(ctx, func(u *store.Tx) error {
		row, err := rec.body(m.journalT, rec.NextRetry)
		if err != nil {
			return err
		}
		return u.Update(NegotiationJournal, row, rec.ID)
	})
	if err != nil {
		m.count("journal-write", wire.CodeInternal)
	}
	return false
}

// journalRetire removes a resolved negotiation's row; one a concurrent
// round already removed is as retired as it gets.
func (m *Manager) journalRetire(ctx context.Context, id string) {
	err := m.db.Unit(ctx, func(u *store.Tx) error { return u.Remove(NegotiationJournal, id) })
	if err != nil {
		m.count("journal-write", wire.CodeInternal)
	}
}

// Owed is one outbox row: its kind ("commit" or "delete"), the
// negotiation or link id, and the peers still owed.
type Owed struct {
	Kind, ID string
	Peers    []string
}

// JournalPending reads what this device owes, by id (diagnostics, tests).
func (m *Manager) JournalPending() []Owed {
	var out []Owed
	m.journalT.ViewAll(func(r store.Row) {
		o := Owed{Kind: "commit", ID: r.Str("id")}
		if rec, err := journalFromRow(r); err == nil {
			o.Kind, o.Peers = cmp.Or(rec.Kind, o.Kind), rec.peers()
		}
		out = append(out, o)
	})
	slices.SortFunc(out, func(a, b Owed) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// peers lists the users r still owes, in its order.
func (r *journalRec) peers() (users []string) {
	for _, t := range r.Pending {
		users = append(users, t.Ref.User)
	}
	return users
}

// Outcome reports the coordinator-side decision for a negotiation id:
// "unknown" while the negotiation is still in flight on this
// coordinator (no decision has been published — presuming abort here
// would let a participant sweep release a mark the coordinator is
// about to commit), "commit" while its journal row is live (the
// decision was COMMIT and recovery is still driving it), "abort"
// otherwise. Participants call this through the QueryOutcome RPC;
// "abort" is the presumed answer for any negotiation that never
// journaled a commit decision or whose row has been retired (a
// retired row means every target acked, so no in-doubt participant
// can still be asking about it). A coordinator that crashed mid-flight
// restarts with an empty in-flight set, and answering abort for its
// unjournaled negotiations is safe: journalBegin strictly precedes the
// first Commit, so nothing was ever applied. With "commit" come the
// journaled arguments — the Mark-time ones with the decision's merged
// over them — which are what the asking participant must apply.
func (m *Manager) Outcome(nid, token string) (string, wire.Args) {
	if m.isInflight(nid) {
		return OutcomeUnknown, nil
	}
	var rec *journalRec
	m.journalT.View(func(r store.Row) { rec, _ = journalFromRow(r) }, nid) // undecodable: no decision
	if rec == nil || rec.Kind != kindCommit {
		return OutcomeAbort, nil
	}
	if token == "" {
		return OutcomeCommit, rec.Args
	}
	for _, t := range rec.Pending {
		if t.Token == token {
			return OutcomeCommit, rec.Args
		}
	}
	// A token the journal does not list was never part of the decided
	// set (e.g. the Mark response was lost and the coordinator gave up
	// on that target) — presume abort for it.
	return OutcomeAbort, nil
}

// expired is the end rule, per kind: a commit row gives up after
// maxAttempts rounds; a delete row never does (retried at retryCap).
func (r *journalRec) expired() bool {
	return r.Kind == kindCommit && r.Attempts > maxAttempts
}

// commitQoS is the per-attempt QoS the sweeps use when re-sending
// Commit or asking for an outcome: one quick in-attempt retry; the
// sweep's own exponential backoff paces the rounds.
var commitQoS = engine.QoS{Retries: 1, Backoff: retryBase / 8, AttemptTimeout: 5 * time.Second}

// backoffAfter computes the sweeper's next-retry delay for a row that
// has been attempted n times (n >= 1).
func backoffAfter(n int) time.Duration {
	d := retryBase
	for i := 1; i < n; i++ {
		d *= 2
		if d >= retryCap {
			return retryCap
		}
	}
	return d
}

// maxRetryRowsPerSweep bounds one sweep's outbox work so a backlog of
// rows with unreachable peers cannot exhaust the sweep context and
// starve the participant-side mark resolution on the same tick; the
// overflow (oldest rows go first) waits for the next tick.
const maxRetryRowsPerSweep = 32

// RetryCommits is the outbox sweep: every row of either kind whose
// next_retry has passed gets one more round of sends. Rows no peer is
// owed any more are retired; rows the end rule gives up (or that no
// longer decode) are expired as loud failures before anything is sent.
// The rest are redriven through engine.FanOut, so one sweep takes about
// one round trip. Returns the number of rows resolved (retired or
// expired). Called from the same periodic schedule as ExpireSweep.
func (m *Manager) RetryCommits(ctx context.Context, now time.Time) int {
	var rows []store.Row
	m.journalT.ViewAll(func(r store.Row) {
		if !r.Time("next_retry").After(now) {
			rows = append(rows, r.Clone())
		}
	})
	slices.SortFunc(rows, func(a, b store.Row) int {
		return cmp.Or(a.Time("next_retry").Compare(b.Time("next_retry")), strings.Compare(a.Str("id"), b.Str("id")))
	})
	if len(rows) > maxRetryRowsPerSweep {
		rows = rows[:maxRetryRowsPerSweep]
	}
	var resolved atomic.Int64
	redrive := make([]*journalRec, 0, len(rows))
	for _, row := range rows {
		if ctx.Err() != nil {
			break
		}
		rec, err := journalFromRow(row)
		if err != nil {
			// Undecodable row: expire it loudly rather than spin.
			m.journalRetire(ctx, row.Str("id"))
			m.count("journal-expire", wire.CodeInternal)
			resolved.Add(1)
			continue
		}
		rec.Attempts++
		rec.NextRetry = now.Add(backoffAfter(rec.Attempts))
		if rec.expired() {
			// Give up: the negotiation stays divergent. Count it where
			// operators will see it; the row itself is dropped so the
			// sweep does not grind on a dead deployment forever.
			m.journalRetire(ctx, rec.ID)
			m.count("journal-expire", wire.CodeUnavailable)
			resolved.Add(1)
			continue
		}
		redrive = append(redrive, rec)
	}
	engine.FanOut(len(redrive), func(i int) {
		rec := redrive[i]
		// Rejoin the originating negotiation's trace so the redrive
		// renders under the same root, even across a restart.
		rctx := ctx
		if span := m.tracerRef().JoinTrace(rec.TraceID, rec.SpanID, "links.Redrive"); span != nil {
			span.Annotate(trace.String("nid", rec.ID), trace.Int("attempt", rec.Attempts),
				trace.Int("pending", len(rec.Pending)))
			rctx = trace.ContextWithSpan(ctx, span)
			defer span.Finish()
		}
		if m.redriveJournal(rctx, rec) {
			resolved.Add(1)
		}
	})
	return int(resolved.Load())
}

// redriveJournal re-sends one outbox row to every peer it still owes (a
// delete row's in turn, a commit row's fanned out), then writes the row
// back once; the coordinator's own change was applied in the unit that
// wrote the row. Reports true when the row was retired.
func (m *Manager) redriveJournal(ctx context.Context, rec *journalRec) bool {
	if rec.Kind == kindDelete {
		rec.Pending, _ = m.deliverDelete(ctx, rec.ID, rec.Args, rec.Pending) // a refusal settles its peer
		return m.journalSettle(ctx, rec)
	}
	errs := m.commitTargets(ctx, rec.ID, rec.Pending, rec.Action, rec.Args, true)
	var still []journalTarget
	for i, tgt := range rec.Pending {
		err := errs[i]
		switch {
		case err == nil:
			rec.Committed = append(rec.Committed, tgt.Ref)
			m.count("commit-retry", wire.CodeOK)
		case engine.IsTransient(err):
			still = append(still, tgt)
			m.count("commit-retry", wire.CodeUnavailable)
		default:
			// Definitive rejection: the participant's lock was stolen
			// or it already decided abort. Re-sending cannot help.
			rec.Failed = append(rec.Failed, tgt.Ref)
			m.count("commit-retry", wire.CodeOf(err))
		}
	}
	rec.Pending = still
	if !m.journalSettle(ctx, rec) {
		return false
	}
	if len(rec.Failed) > 0 {
		m.count("outcome", wire.CodeConflict) // resolved partial: divergence is permanent
	} else {
		m.count("outcome-recovered", wire.CodeOK)
	}
	return true
}

// FaultSweep runs every periodic recovery duty in one call: link
// expiry is left to the caller; this covers the outbox's re-delivery
// and participant-side in-doubt resolution. Returns resolved outbox
// rows + resolved pending marks.
func (m *Manager) FaultSweep(ctx context.Context, now time.Time) int {
	n := m.RetryCommits(ctx, now)
	n += m.ResolvePendingMarks(ctx, now)
	return n
}
