package links

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ServicePrefix prefixes the per-user links service name.
const ServicePrefix = "links."

// ServiceFor returns the links service name for a user.
func ServiceFor(user string) string { return ServicePrefix + user }

// Action is an application-registered entity action: Check validates
// that the action could apply to an entity (the "condition" of the ECA
// rule, and the availability test of §4.2 op 2); Apply performs it.
// Both run under the entity's lock during negotiation. Apply writes
// through u, the commit unit of the protocol step it is part of (a
// participant's Commit, the activator's own change), and queues what it
// has to tell other devices with u.AfterCommit; the step commits the
// unit before it releases the lock.
type Action struct {
	Check func(entity string, args wire.Args) error
	Apply func(u *store.Tx, entity string, args wire.Args) error
}

// EventHook observes link lifecycle events ("promote", "delete"; an
// expired link is a deleted one) so the application can react (the
// calendar frees the slot a deleted link held). It reads and writes
// through u, the unit that changes the link row, so the row and what
// follows from it are one record on the device's log; an error fails the
// step.
type EventHook func(u *store.Tx, kind string, l *Link, args wire.Args) error

// Manager is a node's SyDLinks module (paper §3.1e): it "enables an
// application to create and enforce interdependencies, constraints
// and automatic updates among groups of SyD entities".
type Manager struct {
	self string
	db   *store.DB
	eng  *engine.Engine
	clk  clock.Clock

	Locks *LockTable
	peers sync.Map // user -> links service name, built once each

	linksT   *store.Table
	waitingT *store.Table
	journalT *store.Table
	selfOnly []string // the visited list of a deletion that starts here

	mu      sync.RWMutex
	actions map[string]Action
	hook    EventHook
	met     *metrics.Registry
	tracer  *trace.Tracer
	lsnSrc  func() uint64 // WAL position source for journal trace events

	// Participant-side fault-tolerance state (see participant.go).
	partMu   sync.Mutex
	pendMark map[string]*pendingMark // token -> mark awaiting Commit/Abort
	decided  map[string]decision     // token -> recently decided outcome
	decidedT *store.Table            // durable decided-token outcomes

	// inflight tracks negotiations this coordinator is currently
	// driving. Between the first Mark and the journalBegin of a
	// negotiation no journal row exists, yet presuming abort for it
	// would be wrong — a participant's fault sweep could release a mark
	// the coordinator is about to commit. Outcome answers "unknown" for
	// these ids so in-doubt participants wait instead.
	inflight map[string]struct{}

	// commitFault, when set, intercepts phase-2 commit sends — the chaos
	// harness and fault tests use it to model a coordinator that crashes
	// or loses connectivity mid-protocol.
	commitFault func(nid string, ref EntityRef) error
}

// NewManager creates the links manager for user self, creating the
// link database tables in db (§4.2 op 1).
func NewManager(self string, db *store.DB, eng *engine.Engine, clk clock.Clock) (*Manager, error) {
	if clk == nil {
		clk = clock.System
	}
	lt, wt, jt, dt, err := createLinkDB(db)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		self:     self,
		db:       db,
		eng:      eng,
		clk:      clk,
		Locks:    NewLockTable(clk),
		linksT:   lt,
		waitingT: wt,
		journalT: jt,
		selfOnly: []string{self},
		decidedT: dt,
		actions:  make(map[string]Action),
		pendMark: make(map[string]*pendingMark),
		decided:  make(map[string]decision),
		inflight: make(map[string]struct{}),
	}
	return m, nil
}

// service is ServiceFor(user), concatenated once per peer this manager
// calls, not on every Mark, Commit and deletion.
func (m *Manager) service(user string) string {
	if s, ok := m.peers.Load(user); ok {
		return s.(string)
	}
	s, _ := m.peers.LoadOrStore(user, ServiceFor(user))
	return s.(string)
}

// SetMetrics wires negotiation outcome/retry counters into reg (nil
// disables). Core attaches the node registry so the sys.<user>
// introspection service surfaces the counters.
func (m *Manager) SetMetrics(reg *metrics.Registry) {
	m.mu.Lock()
	m.met = reg
	m.mu.Unlock()
}

func (m *Manager) registry() *metrics.Registry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.met
}

// count records a negotiation-protocol observation (zero duration —
// these series are used as counters).
func (m *Manager) count(method string, code wire.ErrCode) {
	m.registry().Observe(metrics.LayerLinks, "negotiate", method, code, 0)
}

// SetTracer wires the node tracer in (nil disables). Negotiations open
// a links.Negotiate root with Mark/Commit/Abort children; the journal
// sweeps rejoin the originating trace through the ids persisted with
// each row, so redrives and in-doubt resolutions land in the same tree.
func (m *Manager) SetTracer(t *trace.Tracer) {
	m.mu.Lock()
	m.tracer = t
	m.mu.Unlock()
}

func (m *Manager) tracerRef() *trace.Tracer {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tracer
}

// SetLSNSource wires a WAL-position source (core passes the durable
// store's LastLSN) so journal.begin trace events carry the log position
// the decision landed at. Nil disables the annotation.
func (m *Manager) SetLSNSource(f func() uint64) {
	m.mu.Lock()
	m.lsnSrc = f
	m.mu.Unlock()
}

func (m *Manager) lastLSN() (uint64, bool) {
	m.mu.RLock()
	f := m.lsnSrc
	m.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	return f(), true
}

// SetCommitFault installs (or, with nil, removes) a phase-2 fault
// injector: commitTarget consults it before sending and treats a
// non-nil error as the send's outcome. Chaos tests use it to model a
// coordinator crash between commits; production code leaves it unset.
func (m *Manager) SetCommitFault(f func(nid string, ref EntityRef) error) {
	m.mu.Lock()
	m.commitFault = f
	m.mu.Unlock()
}

func (m *Manager) commitFaultFor(nid string, ref EntityRef) error {
	m.mu.RLock()
	f := m.commitFault
	m.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f(nid, ref)
}

// noteInflight registers a negotiation this coordinator is driving;
// Outcome answers "unknown" for it until dropInflight.
func (m *Manager) noteInflight(nid string) {
	m.mu.Lock()
	m.inflight[nid] = struct{}{}
	m.mu.Unlock()
}

// dropInflight removes a negotiation from the in-flight set. It runs
// only after the negotiation's fate is final and published: the journal
// row exists (commit) or never will (abort).
func (m *Manager) dropInflight(nid string) {
	m.mu.Lock()
	delete(m.inflight, nid)
	m.mu.Unlock()
}

func (m *Manager) isInflight(nid string) bool {
	m.mu.RLock()
	_, ok := m.inflight[nid]
	m.mu.RUnlock()
	return ok
}

// RegisterAction registers (or replaces) an entity action.
func (m *Manager) RegisterAction(name string, a Action) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.actions[name] = a
}

// SetEventHook installs the application's lifecycle observer.
func (m *Manager) SetEventHook(h EventHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hook = h
}

func (m *Manager) fireHook(u *store.Tx, kind string, l *Link, args wire.Args) error {
	m.mu.RLock()
	h := m.hook
	m.mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(u, kind, l, args)
}

func (m *Manager) action(name string) (Action, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	a, ok := m.actions[name]
	if !ok {
		return Action{}, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("links: no action %q registered on %s", name, m.self)}
	}
	return a, nil
}

// --- local link CRUD --------------------------------------------------------

// AddLink stores a link row locally, in the step's unit u, registering
// it in the waiting table when it is tentative and waiting on another
// link. A row already stored under the id is refused as link-exists. Outside a
// step, InstallAt(ctx, m.Self(), l) is the one-row unit.
func (m *Manager) AddLink(u *store.Tx, l *Link) error {
	if l.Created.IsZero() {
		l.Created = m.clk.Now()
	}
	if err := l.Validate(); err != nil {
		return err
	}
	row, err := linkToRow(m.linksT, l)
	if err != nil {
		return err
	}
	if err := u.Insert(LinkTable, row); err != nil {
		if errors.Is(err, store.ErrDupKey) {
			return wire.Refuse(wire.ReasonLinkExists, "links: link %s is already installed on %s", l.ID, m.self)
		}
		return err
	}
	if l.WaitingOn != "" {
		w := m.waitingT.NewRow()
		w.SetStr("id", l.ID)
		w.SetStr("waiting_on", l.WaitingOn)
		w.SetInt("priority", int64(l.Priority))
		w.SetStr("grp", l.Group)
		return u.Insert(WaitingLinkTable, w)
	}
	if l.Subtype == Permanent && m.waitingT.Count() > 0 {
		return m.repoint(u, l)
	}
	return nil
}

// GetLink fetches a local link by id.
func (m *Manager) GetLink(id string) (l *Link, ok bool) {
	m.linksT.View(func(r store.Row) {
		var err error
		l, err = rowToLink(r)
		ok = err == nil
	}, id)
	return l, ok
}

// getLink is GetLink as the unit u sees the link table.
func (m *Manager) getLink(u *store.Tx, id string) (l *Link, ok bool) {
	u.View(LinkTable, func(r store.Row) {
		var err error
		l, err = rowToLink(r)
		ok = err == nil
	}, id)
	return l, ok
}

// LinksOn returns all local links attached to entity, sorted by
// priority descending then id (so "highest priority" selections are
// deterministic).
func (m *Manager) LinksOn(entity string) []*Link {
	var out []*Link
	m.linksT.ViewEq("owner_entity", entity, func(r store.Row) {
		if l, err := rowToLink(r); err == nil {
			out = append(out, l)
		}
	})
	return linksByPriority(out)
}

// LinksOnIn is LinksOn as the step's unit u sees the link table.
func (m *Manager) LinksOnIn(u *store.Tx, entity string) []*Link {
	var out []*Link
	u.ViewEq(LinkTable, "owner_entity", entity, func(r store.Row) {
		if l, err := rowToLink(r); err == nil {
			out = append(out, l)
		}
	})
	return linksByPriority(out)
}

// BlockerIn returns, from the columns of the link rows on entity as the
// step's unit u sees them, the link a meeting of group queued there waits
// on: the permanent link of another meeting of the highest priority, then
// the lowest id; "" when no other meeting's link holds entity.
func (m *Manager) BlockerIn(u *store.Tx, entity, group string) string {
	var id string
	var prio int64
	u.ViewEq(LinkTable, "owner_entity", entity, func(r store.Row) {
		if g := r.Str("grp"); g == "" || g == group || r.Str("subtype") != string(Permanent) {
			return
		}
		// Rows come in id order, so a tie keeps the lower id.
		if p := r.Int("priority"); id == "" || p > prio {
			id, prio = r.Str("id"), p
		}
	})
	return id
}

// waiter is a queued link as the columns of its row rank it.
type waiter struct {
	id, grp string
	prio    int64
}

// linksByPriority sorts out highest priority first, then by id.
func linksByPriority(out []*Link) []*Link {
	slices.SortFunc(out, func(a, b *Link) int {
		return cmp.Or(cmp.Compare(b.Priority, a.Priority), strings.Compare(a.ID, b.ID))
	})
	return out
}

// --- §4.2 op 3: tentative → permanent promotion -----------------------------

// promote turns the tentative link l permanent, row in u and value
// alike, as the link as when there is one (see PromoteLink), runs the
// application hook on the result and makes it the link the entity's
// other waiters wait on.
func (m *Manager) promote(u *store.Tx, l, as *Link) error {
	ch := m.linksT.NewRow()
	ch.SetStr("subtype", string(Permanent))
	ch.SetStr("waiting_on", "")
	if as != nil {
		var buf [256]byte
		triggers, err := appendTriggers(buf[:0], as.Triggers)
		if err != nil {
			return fmt.Errorf("links: encode triggers: %w", err)
		}
		ch.SetStr("type", string(as.Type))
		ch.SetStr("constraint", string(as.Constraint))
		ch.SetStr("triggers", string(triggers))
		l.Type, l.Constraint, l.Triggers = as.Type, as.Constraint, as.Triggers
		if !as.Expires.IsZero() {
			ch.SetTime("expires", as.Expires)
			l.Expires = as.Expires
		}
	}
	if err := u.Update(LinkTable, ch, l.ID); err != nil {
		return err
	}
	if err := u.Remove(WaitingLinkTable, l.ID); err != nil {
		return err
	}
	l.Subtype, l.WaitingOn = Permanent, ""
	if err := m.fireHook(u, "promote", l, nil); err != nil {
		return err
	}
	return m.repoint(u, l)
}

// repoint makes l, whose row has just turned permanent in u, the link
// the waiters on its entity wait on: a waiter never waits on a link that
// is gone or is itself tentative (a deleted blocker, a bumped link
// re-queued under its own id), so every tentative link there that names
// one names l from here on. One queued without a blocker stays as it is.
func (m *Manager) repoint(u *store.Tx, l *Link) error {
	var buf [8][2]string // a waiter's id and the link it waits on
	waiters := buf[:0]
	u.ViewEq(LinkTable, "owner_entity", l.Owner.Entity, func(r store.Row) {
		if id, on := r.Str("id"), r.Str("waiting_on"); on != "" && id != l.ID {
			waiters = append(waiters, [2]string{id, on})
		}
	})
	for _, w := range waiters {
		id, on := w[0], w[1]
		held := false
		u.View(LinkTable, func(b store.Row) { held = b.Str("subtype") == string(Permanent) }, on)
		if held {
			continue
		}
		ch := m.linksT.NewRow()
		ch.SetStr("waiting_on", l.ID)
		if err := u.Update(LinkTable, ch, id); err != nil {
			return err
		}
		wch := m.waitingT.NewRow()
		wch.SetStr("waiting_on", l.ID)
		if err := u.Update(WaitingLinkTable, wch, id); err != nil {
			return err
		}
	}
	return nil
}

// promoteWaiters converts the highest-priority waiting group blocked on
// the deleted blockerID from tentative to permanent in u and queues
// their "promote" triggers behind the unit's commit; the rest wait on
// the first of them from then on. A winner that votes (voteTrigger) is
// left as it is: the offer that follows the deletion marks the entity
// for it, and the Commit of that vote turns its row permanent.
func (m *Manager) promoteWaiters(u *store.Tx, blockerID string) error {
	if m.waitingT.Count() == 0 {
		return nil
	}
	var buf [8]waiter
	rows := buf[:0]
	u.ViewEq(WaitingLinkTable, "waiting_on", blockerID, func(r store.Row) {
		rows = append(rows, waiter{r.Str("id"), r.Str("grp"), r.Int("priority")})
	})
	if len(rows) == 0 {
		return nil
	}
	// Highest priority wins (the lowest id of a tie); its whole group
	// converts together.
	best := rows[0]
	for _, r := range rows[1:] {
		if r.prio > best.prio {
			best = r
		}
	}
	for _, r := range rows {
		if r.id != best.id && (best.grp == "" || r.grp != best.grp) {
			continue
		}
		l, ok := m.getLink(u, r.id)
		if !ok {
			continue // a waiting entry whose link row is gone
		}
		if _, votes := l.voteTrigger(); votes {
			continue
		}
		if err := m.promote(u, l, nil); err != nil {
			return err
		}
		u.AfterCommit(func(ctx context.Context) { m.fireTriggers(ctx, l, "promote", nil) })
	}
	return nil
}

// PromoteLink converts a local tentative link to permanent, in the
// step's unit u, outside a deletion (used when a tentative participant
// becomes available and the renegotiation succeeds, §5). Unlike
// waiting-table promotion this does not fire "promote" triggers — the
// caller just completed the work those triggers would start. A non-nil
// as is the permanent link the row becomes, the one an AddLink of as
// would have installed: its type, constraint and triggers replace the
// tentative link's, and a non-zero as.Expires is its expiry.
func (m *Manager) PromoteLink(u *store.Tx, id string, as *Link) error {
	l, ok := m.getLink(u, id)
	if !ok {
		return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("links: no link %q on %s", id, m.self)}
	}
	if l.Subtype == Permanent {
		return nil
	}
	return m.promote(u, l, as)
}

// --- §4.2 op 4 / §4.4: cascading deletion ------------------------------------

// A deletion (SyD_deleteLink(), §4.2 op 4, §4.4) is two steps on a
// device: Unlink, the unit that takes the row out and updates the
// application state, and Retract, what follows from it on other devices —
// the freed entity offered to the best of its waiters, the deletion
// cascaded to the link's other participants. Whoever holds a mark of its
// own around the decision to delete (a calendar's Hold on a meeting) runs
// Unlink under it and Retract once it is released: Retract's sends come
// back to this device (a waiter's vote makes its initiator confirm).
//
// Note on ordering: the paper lists "convert waiting links" before
// "delete the local link / update the calendar database". We release
// the application state (delete triggers + hook) first, in the same
// unit, because a waiter takes over the resource the deleted link held
// (the §5 scenario: a cancelled meeting's slot is grabbed by the
// highest-priority tentative meeting) and must find it free.

// DeleteLink is both steps. visited carries the users already processed
// to terminate the cascade on cyclic link graphs.
func (m *Manager) DeleteLink(ctx context.Context, id string, visited []string) error {
	if contains(visited, m.self) {
		return nil
	}
	d, err := m.unlink(ctx, id, visited, true)
	if err != nil {
		return err
	}
	_, err = m.Retract(ctx, d)
	return err
}

// Unlinked is a deletion between its two steps.
type Unlinked struct {
	Link   *Link      // the row Unlink took out; nil when this device held none
	entity string     // what it was attached to
	tok    string     // entity's lock, when Unlink took it for the offer
	owed   journalRec // the delete row Unlink wrote, less its peers; no Args: none
}

// Unlink removes this device's row of link id, the hook releasing what
// it held, converts the waiters that convert at once and owes the link's
// other participants the cascade (oweDelete), as one unit.
func (m *Manager) Unlink(ctx context.Context, id string) (Unlinked, error) {
	return m.unlink(ctx, id, nil, true)
}

// unlink is Unlink after visited; without cascade it owes nobody.
func (m *Manager) unlink(ctx context.Context, id string, visited []string, cascade bool) (Unlinked, error) {
	// With someone queued on the entity, take its lock before the unit
	// that frees it, if it can be had: no newcomer's Mark comes between
	// "freed" and "offered". A negotiation that holds it offers on release.
	var d Unlinked
	m.linksT.View(func(r store.Row) { d.entity = r.Str("owner_entity") }, id)
	if d.entity != "" && m.queuedOn(d.entity, id) {
		d.tok, _ = m.Locks.TryLock(d.entity, m.self)
	}
	err := m.db.Unit(ctx, func(u *store.Tx) (err error) {
		d.owed = journalRec{}
		if d.Link, err = m.unlinkIn(u, id); err != nil || d.Link == nil || !cascade {
			return err
		}
		return m.oweDelete(u, &d, visited)
	})
	if err != nil {
		m.Locks.Unlock(d.entity, d.tok)
	}
	return d, err
}

// oweDelete writes in u, and keeps in d, the delete row owing d.Link's
// participants outside visited and this device its cascade, if it has
// any, due one backoff out: Retract runs its first round.
func (m *Manager) oweDelete(u *store.Tx, d *Unlinked, visited []string) error {
	var buf [8]journalTarget
	peers := owedPeers(d.Link, m.self, visited, buf[:0])
	if len(peers) == 0 {
		return nil
	}
	if len(visited) == 0 {
		visited = m.selfOnly
	} else {
		visited = append(visited[:len(visited):len(visited)], m.self)
	}
	id, now := d.Link.ID, m.clk.Now()
	next := now.Add(backoffAfter(1))
	d.owed = journalRec{ID: id, Kind: kindDelete, Created: now, NextRetry: next,
		Args: wire.Args{wire.Str("id", id), wire.Strs("visited", visited)}}
	rec := d.owed
	rec.Pending = peers
	return m.journalBegin(u, id, next, &rec)
}

// owedPeers appends to buf, as outbox targets, the distinct users l
// references (owner and targets), sorted, but self and those in visited.
func owedPeers(l *Link, self string, visited []string, buf []journalTarget) []journalTarget {
	var users [8]string
	all := append(users[:0], l.Owner.User)
	for _, t := range l.Targets {
		all = append(all, t.User)
	}
	slices.Sort(all)
	for _, p := range slices.Compact(all) {
		if p != self && !contains(visited, p) {
			buf = append(buf, journalTarget{Ref: EntityRef{User: p}})
		}
	}
	return buf
}

// unlinkIn is Unlink's unit. Without a local row local waiters may still
// reference the id (the blocker lived elsewhere).
func (m *Manager) unlinkIn(u *store.Tx, id string) (*Link, error) {
	l, ok := m.getLink(u, id)
	if ok {
		if err := m.removeLink(u, l); err != nil {
			return nil, err
		}
	}
	return l, m.promoteWaiters(u, id)
}

// Retract sends what Unlink left to send: the freed entity offered to the
// waiters that vote, then the cascade the deletion owes (§4.4 steps
// 4/6-7). It returns the participants still owed, out of reach.
func (m *Manager) Retract(ctx context.Context, d Unlinked) ([]string, error) {
	if d.entity != "" {
		m.offer(ctx, d.entity, d.tok, "")
	}
	if d.owed.Args == nil {
		return nil, nil
	}
	var buf [8]journalTarget
	rec := d.owed
	still, err := m.deliverDelete(ctx, rec.ID, rec.Args, owedPeers(d.Link, m.self, rec.Args.Strings("visited"), buf[:0]))
	rec.Pending = append([]journalTarget(nil), still...) // the row's, not buf's: settled once
	rec.Attempts, rec.NextRetry = 1, m.clk.Now().Add(backoffAfter(1))
	m.journalSettle(ctx, &rec)
	return rec.peers(), err
}

// removeLink deletes l's local row (and any waiting entry) in u, queues
// the link's "delete" triggers behind the commit and lets the
// application hook release what the link held (§4.4 step 5: "update the
// calendar database of the user").
func (m *Manager) removeLink(u *store.Tx, l *Link) error {
	if err := u.Delete(LinkTable, l.ID); err != nil {
		return err
	}
	if err := u.Remove(WaitingLinkTable, l.ID); err != nil {
		return err
	}
	if len(l.TriggersFor("delete")) > 0 {
		u.AfterCommit(func(ctx context.Context) { m.fireTriggers(ctx, l, "delete", nil) })
	}
	return m.fireHook(u, "delete", l, nil)
}

// RemoveLink takes this node's row of link id out inside another step's
// unit u — the Commit that bumps a meeting off its slot re-queues the
// meeting's link this way. The row goes and the hook runs; the entity
// passes to that step, which holds its lock, so nobody is offered it and
// the link's voting waiters wait on the link the step installs (AddLink).
func (m *Manager) RemoveLink(u *store.Tx, id string) error {
	_, err := m.unlinkIn(u, id)
	return err
}

// deliverDelete sends link id's DeleteLink with args to each peer owed, in
// turn, and returns, in owed, those a transient failure left in doubt,
// and the first refusal (which, like an answer, settles its peer).
func (m *Manager) deliverDelete(ctx context.Context, id string, args wire.Args, owed []journalTarget) (still []journalTarget, firstErr error) {
	still = owed[:0]
	for _, t := range owed {
		err := m.eng.Invoke(ctx, m.service(t.Ref.User), "DeleteLink", args, nil)
		if engine.IsTransient(err) {
			still = append(still, t)
		} else if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("links: cascade delete %s at %s: %w", id, t.Ref.User, err)
		}
	}
	return still, firstErr
}

// DeleteLinkLocal removes only this node's row of a link — the offer to
// local waiters and local "delete" triggers still run, but the deletion
// does not cascade (nor is it owed). Used when a single participant leaves
// a link (dropout) while the logical link lives on elsewhere.
func (m *Manager) DeleteLinkLocal(ctx context.Context, id string) error {
	if !m.linksT.Has(id) {
		return nil
	}
	d, err := m.unlink(ctx, id, nil, false)
	if err == nil {
		_, err = m.Retract(ctx, d)
	}
	return err
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// --- §4.2 op 6: link expiry ---------------------------------------------------

// ExpireSweep deletes every local link whose expiry time has passed
// (cascading, like any other deletion) and returns the expired ids.
func (m *Manager) ExpireSweep(ctx context.Context, now time.Time) []string {
	var expired []string
	m.linksT.ViewAll(func(r store.Row) {
		if exp := r.Time("expires"); !exp.IsZero() && exp.Before(now) {
			expired = append(expired, r.Str("id"))
		}
	})
	slices.Sort(expired)
	for _, id := range expired {
		// Best effort: the outbox owes whom the cascade missed, and a link
		// that failed to go is found again by the next sweep.
		_ = m.DeleteLink(ctx, id, nil)
	}
	return expired
}

// --- trigger firing -----------------------------------------------------------

// TriggerResult is the outcome of firing one trigger of one link.
type TriggerResult struct {
	LinkID      string
	Trigger     Trigger
	Negotiation *Result // set for negotiation-action triggers
	Err         error
}

// TriggerEntity announces an attempted change ("Mark X", §4.3) on a
// local entity: every permanent link attached to the entity whose
// triggers match event fires. Negotiation links must succeed —
// a failed negotiation vetoes the change and TriggerEntity returns an
// error; the caller must not apply its local change. Subscription
// links fire best-effort. Among tentative links only the
// highest-priority one fires (§5: "if the tentative link back to A is
// of highest priority, it will get triggered").
func (m *Manager) TriggerEntity(ctx context.Context, entity, event string, args wire.Args) ([]TriggerResult, error) {
	var results []TriggerResult
	var veto, inDoubt error
	for _, l := range triggered(m.LinksOn(entity), event) {
		res := m.fireTriggers(ctx, l, event, args)
		results = append(results, res...)
		if l.Type == Negotiation {
			for _, r := range res {
				if r.Err == nil {
					continue
				}
				if IsInDoubt(r.Err) {
					// Not a veto: the COMMIT decision is journaled and
					// recovery is re-driving the stragglers. The caller
					// may proceed; the error still surfaces — but it
					// must never mask a genuine veto from another link.
					if inDoubt == nil {
						inDoubt = r.Err
					}
				} else if veto == nil {
					veto = fmt.Errorf("links: negotiation link %s vetoed %s on %s: %w", l.ID, event, entity, r.Err)
				}
			}
		}
	}
	if veto != nil {
		return results, veto
	}
	return results, inDoubt
}

// triggered picks, from the links on an entity, the ones event fires:
// every permanent link with a matching trigger and the highest-priority
// tentative one.
func triggered(linksOn []*Link, event string) []*Link {
	var toFire []*Link
	var bestTentative *Link
	for _, l := range linksOn {
		if len(l.TriggersFor(event)) == 0 {
			continue
		}
		if l.Subtype == Tentative {
			if bestTentative == nil || l.Priority > bestTentative.Priority {
				bestTentative = l
			}
			continue
		}
		toFire = append(toFire, l)
	}
	if bestTentative != nil {
		toFire = append(toFire, bestTentative)
	}
	return toFire
}

// fireTriggers executes every trigger of l matching event.
func (m *Manager) fireTriggers(ctx context.Context, l *Link, event string, args wire.Args) []TriggerResult {
	var out []TriggerResult
	for _, t := range l.TriggersFor(event) {
		merged := t.Args.With(args...)
		res := TriggerResult{LinkID: l.ID, Trigger: t}
		tctx, span := trace.Start(ctx, "links.Trigger")
		if span != nil {
			span.Annotate(trace.String("link", l.ID), trace.String("event", event), trace.String("type", string(l.Type)))
		}
		switch {
		case t.Method != "":
			// A voter's trigger fired from here is the plain announcement:
			// only the offer of a freed entity marks it first (offer).
			for _, tgt := range l.Targets {
				if err := m.invokeTrigger(tctx, l, t, tgt, merged); err != nil && res.Err == nil {
					res.Err = err
				}
			}
		case t.Action != "" && l.Type == Negotiation:
			r, err := m.Negotiate(tctx, Spec{
				Action:     t.Action,
				Args:       merged,
				Targets:    l.Targets,
				Constraint: l.Constraint,
				K:          l.EffectiveK(),
			})
			res.Negotiation = r
			res.Err = err
		case t.Action != "" && l.Type == Subscription:
			// Best-effort information flow to every subscriber.
			for _, tgt := range l.Targets {
				err := m.applyRemote(tctx, tgt, t.Action, merged)
				if err != nil && res.Err == nil {
					res.Err = err
				}
			}
		default:
			res.Err = fmt.Errorf("links: trigger on %s has neither action nor method", l.ID)
		}
		span.FinishErr(res.Err)
		out = append(out, res)
	}
	return out
}

// invokeTrigger calls trigger t's method at tgt, one of l's targets,
// with args plus who is calling about what.
func (m *Manager) invokeTrigger(ctx context.Context, l *Link, t Trigger, tgt EntityRef, callArgs wire.Args) error {
	svc := t.Service
	if svc == "" {
		svc = "cal.%s"
	}
	if containsPercent(svc) {
		svc = fmt.Sprintf(svc, tgt.User)
	}
	callArgs = callArgs.With(wire.Str("link", l.ID), wire.Str("source", m.self), wire.Str("targetEntity", tgt.Entity))
	return m.eng.Invoke(ctx, svc, t.Method, callArgs, nil)
}

func containsPercent(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 's' {
			return true
		}
	}
	return false
}

// applyRemote runs an entity action on a (possibly remote) entity
// without negotiation locking.
func (m *Manager) applyRemote(ctx context.Context, tgt EntityRef, action string, args wire.Args) error {
	if tgt.User == m.self {
		return m.checkAndApply(ctx, tgt.Entity, action, args)
	}
	return m.eng.Invoke(ctx, m.service(tgt.User), "Apply", wire.Args{
		wire.Str("entity", tgt.Entity), wire.Str("action", action), wire.Sub("args", args),
	}, nil)
}

// checkAndApply runs an entity action on a local entity without
// negotiation locking, as one commit unit.
func (m *Manager) checkAndApply(ctx context.Context, entity, action string, args wire.Args) error {
	a, err := m.action(action)
	if err != nil {
		return err
	}
	if a.Check != nil {
		if err := a.Check(entity, args); err != nil {
			return err
		}
	}
	if a.Apply == nil {
		return nil
	}
	return m.db.Unit(ctx, func(u *store.Tx) error { return a.Apply(u, entity, args) })
}

// InstallAt adds a link row at the given user's link database (local
// or remote) — the building block for negotiated links and
// subscriptions.
func (m *Manager) InstallAt(ctx context.Context, user string, l *Link) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if user == m.self {
		return m.db.Unit(ctx, func(u *store.Tx) error { return m.AddLink(u, l) })
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return m.eng.Invoke(ctx, m.service(user), "AddLink", wire.Args{wire.Str("link", string(raw))}, nil)
}
