package calendar

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/jsonrec"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/wire"
)

// reserveArgs builds the negotiation arguments for a meeting's slot
// reservation.
func reserveArgs(m *Meeting, allowBump bool) wire.Args {
	return wire.Args{
		wire.Str("meeting", m.ID), wire.Int("priority", m.Priority), wire.Bool("allowBump", allowBump),
		wire.Str("day", m.Slot.Day), wire.Int("hour", m.Slot.Hour),
	}
}

// backLinkTriggers are the ECA rules on a reserved participant's back
// link: any change attempt at their slot consults the initiator (§5:
// "this attempt by D would trigger its back link to A").
func backLinkTriggers(meetingID, user string) []links.Trigger {
	return []links.Trigger{{
		Event: "change", Service: ServicePrefix + "%s", Method: "ParticipantChange",
		Args: wire.Args{wire.Str("meeting", meetingID), wire.Str("user", user)},
	}}
}

// supervisorTriggers are the rules on a supervisor's subscription back
// link: the supervisor may change at will, A is merely informed (§5).
func supervisorTriggers(meetingID, user string) []links.Trigger {
	return []links.Trigger{{
		Event: "change", Service: ServicePrefix + "%s", Method: "SupervisorChanged",
		Args: wire.Args{wire.Str("meeting", meetingID), wire.Str("user", user)},
	}}
}

// tentativeTriggers is the rule on a tentative back link queued at an
// unavailable participant: when the slot becomes available, reserve it
// and tell the initiator so (§5: "whenever C becomes available ...
// informing A of C's availability"). Naming both the action and the
// method makes the link vote (links.Manager.Offer).
func tentativeTriggers(meetingID, user string) []links.Trigger {
	return []links.Trigger{{
		Event: "avail", Action: ActionReserve, Service: ServicePrefix + "%s", Method: "SlotAvailable",
		Args: wire.Args{wire.Str("meeting", meetingID), wire.Str("user", user)},
	}}
}

// FindCommonSlots implements the §5 slot search: ask every participant's
// calendar for its availability over the window in one group round trip,
// intersect the musts' and supervisors' with the initiator's own, and
// keep the slots where every or-group can still meet its quorum. A
// required participant that cannot answer fails the search; an or-group
// member that cannot merely counts as unavailable.
func (c *Calendar) FindCommonSlots(ctx context.Context, req Request) ([]Slot, error) {
	w, err := NewWindow(req.FromDay, req.ToDay, req.Hours)
	if err != nil {
		return nil, err
	}
	// Everyone else, asked once each: the required in request order,
	// then the or-group members.
	var users []string
	ask := func(list []string) {
		for _, u := range list {
			if u != c.user && !slices.Contains(users, u) {
				users = append(users, u)
			}
		}
	}
	ask(req.Must)
	ask(req.Supervisors)
	required := len(users)
	for _, g := range req.OrGroups {
		ask(g.Members)
	}
	avail, errs := QueryAvailability(ctx, c.eng, w, users)

	common := c.availability(w)
	for i, u := range users[:required] {
		if errs[i] != nil {
			return nil, fmt.Errorf("calendar: free slots of %s: %w", u, errs[i])
		}
		common.and(avail[i])
	}
	for _, g := range req.OrGroups {
		k, members := g.K, make([]Availability, 0, len(g.Members))
		for _, u := range g.Members {
			if u == c.user {
				k-- // free at every slot still common
			} else if i := slices.Index(users, u); errs[i] == nil {
				members = append(members, avail[i])
			}
		}
		common.requireQuorum(k, members)
	}
	return common.Slots(), nil
}

// SetupMeeting implements the §5 meeting setup: find (or take) a slot,
// reserve it across participants under the appropriate negotiation
// constraints, install the coordination links, and notify everyone.
// A meeting that cannot reserve all required participants is created
// tentative with tentative back links queued at the unavailable
// participants.
func (c *Calendar) SetupMeeting(ctx context.Context, req Request) (*Meeting, error) {
	id := req.ID
	if id == "" {
		id = newMeetingID()
	}
	m := &Meeting{
		ID:          id,
		Title:       req.Title,
		Initiator:   c.user,
		Priority:    req.Priority,
		Must:        append([]string(nil), req.Must...),
		Supervisors: append([]string(nil), req.Supervisors...),
		OrGroups:    append([]OrGroup(nil), req.OrGroups...),
		LinkID:      links.NewLinkID(),
	}
	// Pick the slot.
	if req.PinSlot || req.Day != "" {
		m.Slot = Slot{Day: req.Day, Hour: req.Hour}
		if !m.Slot.Valid() {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("calendar: bad slot %v", m.Slot)}
		}
	} else {
		candidates, err := c.FindCommonSlots(ctx, req)
		if err != nil {
			return nil, err
		}
		if len(candidates) == 0 {
			return nil, wire.Refuse(wire.ReasonNoCommonSlot, "calendar: no common free slot in the window")
		}
		m.Slot = candidates[0]
	}
	args, entity := reserveArgs(m, req.AllowBump), m.Slot.Entity()

	// Reserve the initiator's own slot first ("Mark A for change and
	// Lock A"): without it there is no meeting at all.
	_, err := c.lm.Negotiate(ctx, links.Spec{
		Action: ActionReserve, Args: args, Constraint: links.And,
		Local: &links.LocalChange{Entity: entity, Action: ActionReserve, Args: args},
	})
	if err != nil {
		return nil, fmt.Errorf("calendar: initiator slot: %w", err)
	}
	m.Reserved = []string{c.user}

	// Reserve musts and supervisors: try them all, keep whoever can
	// be reserved (failures make the meeting tentative, §5).
	sent := map[string]*Meeting{}
	m.Missing = append(append([]string(nil), m.Must...), m.Supervisors...)
	if len(m.Missing) > 0 {
		m, _ = c.reserve(ctx, m, links.Spec{
			Args: args, Targets: slotRefs(m.Missing, entity), Constraint: links.Or, K: 1,
		}, req.Expires, sent)
	}

	// Reserve each or-group under its quorum; a group that cannot
	// meet its quorum reserves nobody (atomic k-of-n, §4.3).
	for _, g := range m.OrGroups {
		if members := excludeReserved(g.Members, m); len(members) > 0 {
			m, _ = c.reserve(ctx, m, links.Spec{
				Args: args, Targets: slotRefs(members, entity), Constraint: links.Or, K: g.K,
			}, req.Expires, sent)
		}
	}
	m.Status = m.standing() // as a reserve's record has it already

	if err := c.linkAndPublish(ctx, m, entity, req.Expires, sent); err != nil {
		return nil, err
	}
	c.notifyParticipants(ctx, notice{m: m})
	return m, nil
}

// reserve negotiates m's slot with spec's targets and returns the record
// as it stands afterwards. Every Commit carries the record as decided
// (the marked targets reserved too) as "rec", and the link expiry; the
// participant's ActionReserve Apply installs its back link and stores
// that record, so Mark and Commit are all a reserved participant is sent.
// sent notes the record each acknowledged Commit carried. When every
// marked target accepted, the record returned is the one decided. An
// in-doubt outcome is not a rejection: the accepted targets did commit
// (only stragglers are still being re-driven), so they count as reserved
// either way; any other failure leaves the record as it was and is
// returned with it.
func (c *Calendar) reserve(ctx context.Context, m *Meeting, spec links.Spec, expires time.Time, sent map[string]*Meeting) (*Meeting, error) {
	var decided *Meeting
	var marked []links.EntityRef
	spec.Action = ActionReserve
	spec.Decide = func(refs []links.EntityRef) wire.Args {
		decided, marked = m.holding(refs), refs
		rec := wire.Sub("rec", recordArgs(decided))
		if expires.IsZero() {
			return wire.Args{rec}
		}
		// A time with no JSON form leaves raw empty, which the journal
		// refuses as json.Marshal refuses the time.
		raw, _ := jsonrec.AppendTime(nil, expires)
		return wire.Args{rec, wire.Raw("expires", raw)}
	}
	res, err := c.lm.Negotiate(ctx, spec)
	if err != nil && !links.IsInDoubt(err) {
		return m, err
	}
	for _, ref := range res.Accepted {
		sent[ref.User] = decided
	}
	if decided != nil && slices.Equal(res.Accepted, marked) {
		return decided, nil
	}
	return m.holding(res.Accepted), nil
}

// slotRefs maps users to their refs of the slot entity.
func slotRefs(users []string, entity string) []links.EntityRef {
	out := make([]links.EntityRef, len(users))
	for i, u := range users {
		out[i] = links.EntityRef{User: u, Entity: entity}
	}
	return out
}

// excludeReserved filters out users already reserved (a member may be
// in several groups or also a must).
func excludeReserved(users []string, m *Meeting) []string {
	var out []string
	for _, u := range users {
		if !m.isReserved(u) && u != m.Initiator {
			out = append(out, u)
		}
	}
	return out
}

// backLink is the permanent back link of a reserved participant on
// entity, m's slot: a negotiation link for a must or or-member, a
// subscription link for a supervisor (§5).
func backLink(m *Meeting, user, entity string) links.Link {
	l := links.Link{
		ID: m.LinkID, Group: m.ID, Priority: m.Priority, Subtype: links.Permanent,
		Owner:   links.EntityRef{User: user, Entity: entity},
		Targets: []links.EntityRef{{User: m.Initiator, Entity: entity}},
		Type:    links.Negotiation, Constraint: links.And, Triggers: backLinkTriggers(m.ID, user),
	}
	if containsString(m.Supervisors, user) {
		l.Type, l.Constraint, l.Triggers = links.Subscription, "", supervisorTriggers(m.ID, user)
	}
	return l
}

// linkAndPublish is the step that makes a negotiated meeting stand at
// its initiator: the forward negotiation-and link on entity, m's slot, and
// the meeting record are one commit unit. Once it is logged the record is
// pushed to everyone sent does not show holding it, and that push is all
// of the §5 link topology the negotiation did not install: a reserved
// participant installed its back link when its Commit applied
// (acceptDecided), an unreserved one queues its tentative back link when
// the record reaches it (acceptRecord), by push now or by pull once it is
// back.
func (c *Calendar) linkAndPublish(ctx context.Context, m *Meeting, entity string, expires time.Time, sent map[string]*Meeting) error {
	// The forward link targets *every* participant (reserved or still
	// missing) so the §4.4 cancel cascade reaches users who joined after
	// setup (a tentative participant who confirmed later) and clears
	// queued tentative links.
	fwd := links.Link{
		ID:         m.LinkID,
		Group:      m.ID,
		Priority:   m.Priority,
		Expires:    expires,
		Type:       links.Negotiation,
		Subtype:    links.Permanent,
		Constraint: links.And,
		Owner:      links.EntityRef{User: m.Initiator, Entity: entity},
		Triggers:   []links.Trigger{{Event: "change", Action: ActionReserve, Args: reserveArgs(m, false)}},
	}
	var buf [8]string
	if ps := m.appendParticipants(buf[:0]); len(ps) > 1 {
		fwd.Targets = make([]links.EntityRef, 0, len(ps)-1)
		for _, p := range ps {
			if p != m.Initiator {
				fwd.Targets = append(fwd.Targets, links.EntityRef{User: p, Entity: entity})
			}
		}
	}
	return c.db.Unit(ctx, func(u *store.Tx) error {
		if err := c.lm.AddLink(u, &fwd); err != nil {
			return err
		}
		return c.publishIn(u, m, sent)
	})
}

// publish stores the meeting record, as a step of its own, and
// best-effort sends it to every participant but those sent shows holding
// it already (nil: nobody does).
func (c *Calendar) publish(ctx context.Context, m *Meeting, sent map[string]*Meeting) error {
	return c.db.Unit(ctx, func(u *store.Tx) error { return c.publishIn(u, m, sent) })
}

// publishIn is publish inside the step's unit u: the record is written
// with the step's other rows and the sends follow its commit. A
// participant whose acknowledged Commit carried exactly m (sent) is
// skipped; one whose commit-time record has gone stale is not.
func (c *Calendar) publishIn(u *store.Tx, m *Meeting, sent map[string]*Meeting) error {
	if err := c.putMeeting(u, m); err != nil {
		return err
	}
	var to []string
	var buf [8]string
	for _, p := range m.appendParticipants(buf[:0]) {
		if had := sent[p]; p != c.user && (had == nil || !had.equal(m)) {
			to = append(to, p)
		}
	}
	if len(to) > 0 {
		u.AfterCommit(func(ctx context.Context) { c.push(ctx, m, to) })
	}
	return nil
}

// push sends the record m, as recordArgs, to each of to. Best effort: a
// participant that misses the push pulls the record when it next syncs.
func (c *Calendar) push(ctx context.Context, m *Meeting, to []string) {
	args := wire.Args{wire.Sub("rec", recordArgs(m))}
	for _, p := range to {
		_ = c.eng.Invoke(ctx, ServiceFor(p), "MeetingUpdate", args, nil)
	}
}

// CancelMeeting cancels a meeting this user administers (§4.4): the
// link cascade releases every participant's slot and promotes the
// highest-priority tentative meetings waiting on those slots.
func (c *Calendar) CancelMeeting(ctx context.Context, meetingID string) error {
	return c.cancelMeetingAs(ctx, meetingID, c.user)
}

// cancelMeetingAs is a cancel by byUser: the decision, then, with the
// meeting's mark released, its retraction.
func (c *Calendar) cancelMeetingAs(ctx context.Context, id, byUser string) error {
	m, d, err := c.decideCancel(ctx, id, byUser)
	if err != nil || m == nil {
		return err
	}
	return c.retract(ctx, m, d, byUser)
}

// decideCancel cancels meeting id at its initiator, in one unit: the
// forward link goes, and its "delete" hook frees the initiator's slot and
// writes the cancelled record (linkHook). It returns that record and what
// is left to retract, or no record when the meeting is cancelled already.
func (c *Calendar) decideCancel(ctx context.Context, id, byUser string) (m *Meeting, d links.Unlinked, err error) {
	release, err := c.holdMeeting(ctx, id, links.HoldStep)
	if err != nil {
		return nil, d, err
	}
	defer release()
	m, ok := c.Meeting(id)
	if !ok {
		return nil, d, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", id)}
	}
	if err := m.mayCancel(byUser); err != nil {
		return nil, d, err
	}
	if m.Status == StatusCancelled {
		return nil, d, nil
	}
	d, err = c.lm.Unlink(ctx, m.LinkID)
	m.Status, m.Reserved = StatusCancelled, nil
	if err == nil && d.Link == nil {
		// No forward link to delete (a meeting queued offline and never set
		// up): the record is all there is to cancel.
		err = c.db.Unit(ctx, func(u *store.Tx) error { return c.putReleased(u, m) })
	}
	return m, d, err
}

// mayCancel refuses, as an auth error, a cancel by a user who may not
// administer the meeting.
func (m *Meeting) mayCancel(user string) error {
	if m.canAdminister(user) {
		return nil
	}
	return &wire.RemoteError{Code: wire.CodeAuth,
		Msg: fmt.Sprintf("calendar: %s may not cancel %s (initiator %s)", user, m.ID, m.Initiator)}
}

// retract is the second half of a cancel, run with no mark held: straight
// after decideCancel, or, for a cancel decided offline (CancelOrQueue),
// when its queued op drains. The slot the forward link held is offered to
// its waiters and the deletion cascades; a participant the cascade reached
// wrote the cancelled record m itself when its link row went (linkHook),
// one it could not reach is owed it in the outbox and still gets the
// best-effort push; a device that was away pulls the record on reconnect.
func (c *Calendar) retract(ctx context.Context, m *Meeting, d links.Unlinked, byUser string) error {
	unreached, err := c.lm.Retract(ctx, d)
	if len(unreached) > 0 {
		c.push(ctx, m, unreached)
	}
	if err != nil {
		return err
	}
	c.notifyParticipants(ctx, notice{m: m, what: "cancelled", by: byUser})
	return nil
}

// TryConfirm attempts to convert a tentative meeting to confirmed by
// reserving the still-missing participants and or-group shortfalls
// (§5's "another round of negotiations"). Safe to call repeatedly; it
// runs at the initiator.
func (c *Calendar) TryConfirm(ctx context.Context, meetingID string) (*Meeting, error) {
	return c.tryConfirm(ctx, meetingID, nil)
}

// tryConfirm is TryConfirm, asking every missing participant, or, with
// a vote (a missing participant's slot came free and is locked for this
// meeting already), reserving the voter and only the voter, without a
// Mark: every other missing participant holds a tentative link of its
// own and votes when its own slot frees. An error declines the vote, and
// a vote is declined at once while a confirm or a move of the meeting
// runs.
func (c *Calendar) tryConfirm(ctx context.Context, meetingID string, vote *links.Vote) (*Meeting, error) {
	how := links.HoldNegotiation
	if vote != nil {
		how = links.HoldVote
	}
	release, err := c.holdMeeting(ctx, meetingID, how)
	if err != nil {
		return nil, err
	}
	defer release()
	m, ok := c.Meeting(meetingID)
	if !ok {
		return nil, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	stored := *m
	if m.Status == StatusCancelled {
		return m, wire.Refuse(wire.ReasonMeetingCancelled, "calendar: meeting is cancelled")
	}
	args := reserveArgs(m, false)
	prev := m.Status
	sent := map[string]*Meeting{}

	switch {
	case vote != nil:
		spec, err := m.voteSpec(vote, args)
		if err == nil {
			m, err = c.reserve(ctx, m, spec, time.Time{}, sent)
		}
		if err != nil {
			return m, err
		}
	case m.Status == StatusConfirmed && m.satisfied():
		return m, nil
	default:
		// Missing musts/supervisors one by one (each independently useful
		// even if others stay missing). Only an acknowledged commit counts:
		// a plain failure or an in-doubt outcome whose ack never arrived
		// leaves u missing (a later TryConfirm round retries; the
		// participant side is idempotent, so a retried reserve that already
		// landed acks). The Commit that reserves u also promotes its
		// tentative back link.
		for _, u := range append([]string(nil), m.Missing...) {
			m, _ = c.reserve(ctx, m, links.Spec{
				Args: args, Targets: slotRefs([]string{u}, m.Slot.Entity()), Constraint: links.And,
			}, time.Time{}, sent)
		}

		// Or-group shortfalls.
		for gi := range m.OrGroups {
			short := m.quorumShortfall()[gi]
			members := excludeReserved(m.OrGroups[gi].Members, m)
			if short == 0 || len(members) < short {
				continue
			}
			m, _ = c.reserve(ctx, m, links.Spec{
				Args: args, Targets: slotRefs(members, m.Slot.Entity()), Constraint: links.Or, K: short,
			}, time.Time{}, sent)
		}
	}
	m.Status = m.standing()

	// A round that changed nothing has nothing to store and nobody to tell.
	if m.equal(&stored) {
		return m, nil
	}
	if err := c.publish(ctx, m, sent); err != nil {
		return m, err
	}
	if prev != m.Status && m.Status == StatusConfirmed {
		c.notifyParticipants(ctx, notice{m: m, what: "confirmed"})
	}
	return m, nil
}

// voteSpec is the negotiation a vote for m's slot gets: the voter alone
// when it is a missing must or supervisor; as an or-group member, under
// the group's shortfall, with the other unreserved members asked as well
// when that wants more than one. A voter m holds already or has no use
// for, or one that locked another slot than m's, is declined.
func (m *Meeting) voteSpec(v *links.Vote, args wire.Args) (links.Spec, error) {
	u, spec := v.Ref.User, links.Spec{Vote: v, Args: args, Constraint: links.And}
	wanted := containsString(m.Missing, u)
	for gi, short := range m.quorumShortfall() {
		members := excludeReserved(m.OrGroups[gi].Members, m)
		if wanted || short == 0 || len(members) < short || !containsString(members, u) {
			continue
		}
		wanted, spec.Constraint, spec.K = true, links.Or, short
		if short > 1 {
			spec.Targets = slotRefs(removeString(members, u), m.Slot.Entity())
		}
	}
	if !wanted || m.isReserved(u) || v.Ref.Entity != m.Slot.Entity() {
		return spec, wire.Refuse(wire.ReasonVoteDeclined, "calendar: %s has no use for %s at %s", m.ID, u, v.Ref.Entity)
	}
	return spec, nil
}

// DropOut removes this user from a meeting they participate in: the
// initiator is informed, the slot is released, and tentative meetings
// waiting on the slot promote automatically (§1: "remove oneself from
// a meeting ... resulting in automatic triggers being executed that
// may possibly convert tentative meetings into confirmed ones").
func (c *Calendar) DropOut(ctx context.Context, meetingID string) error {
	m, ok := c.Meeting(meetingID)
	if !ok {
		return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if m.Initiator == c.user {
		return wire.Refuse(wire.ReasonNotAllowed, "calendar: the initiator cancels, not drops out")
	}
	return c.eng.Invoke(ctx, ServiceFor(m.Initiator), "DropOut", wire.Args{
		wire.Str("meeting", meetingID), wire.Str("user", c.user),
	}, nil)
}

// dropParticipant runs at the initiator: user leaves the meeting, which
// is downgraded if its constraints no longer hold. user's link row goes
// first, with no mark held, its "delete" hook freeing the slot before any
// waiter is offered it; the decision follows the deletion, not the other
// way round, because a record that lists user missing while user still
// holds the slot lets a concurrent TryConfirm reserve user again just
// before the deletion lands. Then the record is pushed, on which user
// queues a tentative back link, so the meeting can heal if they free up
// again.
func (c *Calendar) dropParticipant(ctx context.Context, meetingID, user string) error {
	m, ok := c.Meeting(meetingID)
	if !ok {
		return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if m.droppable(user) {
		_ = c.eng.Invoke(ctx, links.ServiceFor(user), "DeleteLinkLocal", wire.Args{wire.Str("id", m.LinkID)}, nil)
	}
	m, prev, err := c.decideDrop(ctx, meetingID, user)
	if err != nil {
		return err
	}
	c.push(ctx, m, removeString(m.Participants(), c.user))
	if prev != m.Status {
		c.notifyParticipants(ctx, notice{m: m, what: "now tentative", by: user})
	}
	return nil
}

// droppable reports whether user holds the slot and is not the initiator,
// who cancels.
func (m *Meeting) droppable(user string) bool { return m.isReserved(user) && user != m.Initiator }

// decideDrop moves user from reserved to missing in the record of
// meetingID, in one unit, and returns the record and the status it had.
func (c *Calendar) decideDrop(ctx context.Context, meetingID, user string) (*Meeting, string, error) {
	release, err := c.holdMeeting(ctx, meetingID, links.HoldStep)
	if err != nil {
		return nil, "", err
	}
	defer release()
	m, ok := c.Meeting(meetingID)
	if !ok || !m.droppable(user) {
		return nil, "", wire.Refuse(wire.ReasonNotAllowed, "calendar: %s is not a droppable participant of %s", user, meetingID)
	}
	m.Reserved = removeString(m.Reserved, user)
	if containsString(m.Must, user) || containsString(m.Supervisors, user) {
		if !containsString(m.Missing, user) {
			m.Missing = append(m.Missing, user)
		}
	}
	prev := m.Status
	if !m.satisfied() {
		m.Status = StatusTentative
	}
	return m, prev, c.db.Unit(ctx, func(u *store.Tx) error { return c.putMeeting(u, m) })
}

// ChangeMeetingSlot moves a meeting to a new slot: the new slot is
// negotiated with every current participant first; only if all agree
// is the old slot released (§5: "if not all can agree, then D would be
// unable to change the schedule of the meeting").
func (c *Calendar) ChangeMeetingSlot(ctx context.Context, meetingID string, newSlot Slot) error {
	old, m, err := c.decideMove(ctx, meetingID, newSlot)
	if err != nil {
		return err
	}
	// All agreed and the moved meeting stands: tear down the old link graph,
	// releasing the old slots to their waiters. The record has moved on from
	// the old link, whose deletion cancels nothing (linkHook).
	err = c.lm.DeleteLink(ctx, old.LinkID, nil)
	c.notifyParticipants(ctx, notice{m: m, what: "moved", from: old.Slot})
	return err
}

// decideMove negotiates newSlot for meetingID and, all agreeing, makes
// the moved meeting stand (linkAndPublish). It returns the record as it
// was and as it is.
func (c *Calendar) decideMove(ctx context.Context, meetingID string, newSlot Slot) (old, m *Meeting, err error) {
	release, err := c.holdMeeting(ctx, meetingID, links.HoldNegotiation)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	m, ok := c.Meeting(meetingID)
	if !ok {
		return nil, nil, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if !m.canAdminister(c.user) {
		return nil, nil, &wire.RemoteError{Code: wire.CodeAuth, Msg: fmt.Sprintf("calendar: %s may not change %s", c.user, m.ID)}
	}
	if !newSlot.Valid() {
		return nil, nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("calendar: bad slot %v", newSlot)}
	}
	was := *m
	m.Slot = newSlot
	// The new link id is minted before the negotiation, because the
	// Commit that reserves a participant's new slot also installs its
	// new back link and stores the moved record.
	m.LinkID = links.NewLinkID()
	m.Status = m.standing()
	args, entity := reserveArgs(m, false), newSlot.Entity()

	var others []string
	sent := map[string]*Meeting{}
	for _, u := range was.Reserved {
		if u != m.Initiator {
			others = append(others, u)
			sent[u] = m
		}
	}
	sort.Strings(others)
	_, err = c.lm.Negotiate(ctx, links.Spec{
		Action: ActionReserve, Args: args,
		Targets:    slotRefs(others, entity),
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: entity, Action: ActionReserve, Args: args},
		Decide:     func([]links.EntityRef) wire.Args { return wire.Args{wire.Sub("rec", recordArgs(m))} },
	})
	if err != nil {
		return nil, nil, fmt.Errorf("calendar: change to %s rejected: %w", newSlot, err)
	}
	return &was, m, c.linkAndPublish(ctx, m, entity, time.Time{}, sent)
}

// meetingBumpedLocally records a bump at the initiator: the bumped
// user moves to missing, the meeting turns tentative, everyone is
// told (§6: automatic rescheduling follows when the slot frees up via
// the tentative link queued by the bumping device).
func (c *Calendar) meetingBumpedLocally(ctx context.Context, meetingID, user string) {
	release, err := c.holdMeeting(ctx, meetingID, links.HoldStep)
	if err != nil {
		return
	}
	defer release()
	m, ok := c.Meeting(meetingID)
	if !ok {
		return
	}
	if m.isReserved(user) {
		m.Reserved = removeString(m.Reserved, user)
	}
	if (containsString(m.Must, user) || containsString(m.Supervisors, user) || user == m.Initiator) &&
		!containsString(m.Missing, user) {
		m.Missing = append(m.Missing, user)
	}
	m.Status = StatusTentative
	_ = c.publish(ctx, m, nil)
	c.notifyParticipants(ctx, notice{m: m, what: "bumped", by: user})
}

// Delegate grants user the right to cancel/change the meeting (§5's
// scheduling-authority transfer).
func (c *Calendar) Delegate(ctx context.Context, meetingID, user string) error {
	release, err := c.holdMeeting(ctx, meetingID, links.HoldStep)
	if err != nil {
		return err
	}
	defer release()
	m, ok := c.Meeting(meetingID)
	if !ok {
		return &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if m.Initiator != c.user {
		return &wire.RemoteError{Code: wire.CodeAuth, Msg: "calendar: only the initiator delegates"}
	}
	if !containsString(m.Delegates, user) {
		m.Delegates = append(m.Delegates, user)
	}
	return c.publish(ctx, m, nil)
}
