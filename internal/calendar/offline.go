package calendar

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/offline"
	"repro/internal/store"
	"repro/internal/wire"
)

// Offline op kinds queued while disconnected and replayed on reconnect.
const (
	opSchedule = "schedule"
	opCancel   = "cancel"
)

// meetingEntity returns the entity id of a meeting record: what its sync
// versions count and what its mark holds (holdMeeting).
func meetingEntity(meetingID string) string { return "meeting:" + meetingID }

// EnableSync wires this calendar into the node's disconnected-operation
// manager: the calendar becomes the sync source (meeting docs filtered
// by participation), the applier for pulled docs, and the replayer for
// queued ops — which drain through SetupMeeting/CancelMeeting so that
// conflicting offline bookings reconcile via the normal tentative-link
// promotion machinery rather than an ad-hoc merge.
func (c *Calendar) EnableSync(om *offline.Manager) {
	c.offline = om
	c.syncVers = om.Versions()
	om.Attach(&syncAdapter{c: c})
	// Seed versions for meetings created before sync was enabled, so
	// the first Pull against this device sees them.
	for _, m := range c.Meetings() {
		if c.syncVers.Get(meetingEntity(m.ID)) == 0 {
			c.syncVers.Bump(context.Background(), meetingEntity(m.ID))
		}
	}
}

// syncAdapter adapts the calendar to the offline package's App.
type syncAdapter struct{ c *Calendar }

// Peers lists every other user this calendar shares a meeting with: the
// set worth pulling from after a disconnect.
func (a *syncAdapter) Peers() []string {
	seen := map[string]bool{a.c.user: true}
	var out []string
	for _, m := range a.c.Meetings() {
		for _, u := range m.Participants() {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ScheduleOrQueue sets up a meeting when online. In local mode it
// pre-mints the meeting id, parks the request in the offline op queue,
// and records the meeting locally as tentative (occupying a pinned slot
// so local reads reflect the intent). Returns queued=true when the op
// was deferred.
func (c *Calendar) ScheduleOrQueue(ctx context.Context, req Request) (m *Meeting, queued bool, err error) {
	if c.offline == nil || c.offline.State() == offline.StateOnline {
		m, err = c.SetupMeeting(ctx, req)
		if err == nil || !offline.IsLocalMode(err) {
			return m, false, err
		}
		// The manager flipped to local mode mid-setup; fall through and
		// queue instead.
	}
	if req.ID == "" {
		req.ID = newMeetingID()
	}
	if req.PinSlot || req.Day != "" {
		slot := Slot{Day: req.Day, Hour: req.Hour}
		if !slot.Valid() {
			return nil, false, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("calendar: bad slot %v", slot)}
		}
		// Local validation: an offline booking may not double-book this
		// device's own calendar.
		if info := c.slotInfo(slot); info.Meeting != "" && info.Meeting != req.ID {
			return nil, false, wire.Refuse(slotHeld(info.Meeting), "calendar: %s/%s holds %s", c.user, slot, info.Meeting)
		}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	if _, err := c.offline.EnqueueOp(ctx, opSchedule, req.ID, payload); err != nil {
		return nil, false, err // queue full: refused, nothing written
	}
	// Record the intent locally: tentative, no LinkID (the replay that
	// runs SetupMeeting stamps one — that is the idempotency marker).
	m = &Meeting{
		ID:          req.ID,
		Title:       req.Title,
		Initiator:   c.user,
		Status:      StatusTentative,
		Priority:    req.Priority,
		Must:        append([]string(nil), req.Must...),
		Supervisors: append([]string(nil), req.Supervisors...),
		OrGroups:    append([]OrGroup(nil), req.OrGroups...),
		Missing:     append([]string(nil), req.Must...),
	}
	pinned := req.PinSlot || req.Day != ""
	if pinned {
		m.Slot = Slot{Day: req.Day, Hour: req.Hour}
	}
	err = c.db.Unit(ctx, func(u *store.Tx) error {
		if pinned {
			if err := c.setSlot(u, m.Slot, m.ID, m.Priority); err != nil {
				return err
			}
		}
		return c.putMeeting(u, m)
	})
	if err != nil {
		return nil, false, err
	}
	return m, true, nil
}

// CancelOrQueue cancels a meeting when online; in local mode it queues
// the cancellation and marks the local record cancelled (freeing the
// local slot) so disconnected reads see it gone.
func (c *Calendar) CancelOrQueue(ctx context.Context, meetingID string) (queued bool, err error) {
	return c.cancelOrQueueAs(ctx, meetingID, c.user)
}

// cancelOrQueueAs is CancelOrQueue by byUser, who must administer the
// meeting whether the cancel runs now or is queued.
func (c *Calendar) cancelOrQueueAs(ctx context.Context, meetingID, byUser string) (queued bool, err error) {
	if c.offline == nil || c.offline.State() == offline.StateOnline {
		err = c.cancelMeetingAs(ctx, meetingID, byUser)
		if err == nil || !offline.IsLocalMode(err) {
			return false, err
		}
	}
	m, ok := c.Meeting(meetingID)
	if !ok {
		return false, &wire.RemoteError{Code: wire.CodeNoService, Msg: fmt.Sprintf("calendar: unknown meeting %s", meetingID)}
	}
	if err := m.mayCancel(byUser); err != nil {
		return false, err
	}
	if _, err := c.offline.EnqueueOp(ctx, opCancel, meetingID, nil); err != nil {
		return false, err
	}
	m.Status = StatusCancelled
	m.Reserved = nil
	return true, c.db.Unit(ctx, func(u *store.Tx) error { return c.putReleased(u, m) })
}

// ReplayOp drains one queued op during the reconnect push phase (the
// manager's replayer; exported so a re-delivered drain can be tested
// directly).
func (c *Calendar) ReplayOp(ctx context.Context, op offline.Op) error {
	switch op.Kind {
	case opSchedule:
		// Idempotency: the local offline stub has no LinkID; a meeting
		// that already carries one was set up by an earlier (interrupted)
		// drain of this same op.
		if m, ok := c.Meeting(op.ID); ok {
			if m.LinkID != "" {
				return nil
			}
			if m.Status == StatusCancelled {
				return nil // cancelled while still offline; nothing to push
			}
		}
		var req Request
		if err := json.Unmarshal(op.Payload, &req); err != nil {
			return err
		}
		req.ID = op.ID
		_, err := c.SetupMeeting(ctx, req)
		return err
	case opCancel:
		m, ok := c.Meeting(op.ID)
		if !ok {
			return nil // never materialized; nothing to cancel anywhere
		}
		if m.LinkID == "" {
			return nil // offline-only stub: cancelled before it was ever pushed
		}
		// The cancel was decided when it was queued (CancelOrQueue); what
		// is left is the forward link's row and the second half of any
		// cancel. Both are idempotent, so a duplicate drain is safe.
		d, err := c.lm.Unlink(ctx, m.LinkID)
		if err != nil {
			return err
		}
		return c.retract(ctx, m, d, c.user)
	default:
		return fmt.Errorf("calendar: unknown offline op kind %q", op.Kind)
	}
}

// Replay drains one queued op (ReplayOp).
func (a *syncAdapter) Replay(ctx context.Context, op offline.Op) error { return a.c.ReplayOp(ctx, op) }

// Relevant implements the relevance predicate: a meeting concerns the
// requester iff they participate in it (initiator, must, supervisor, or
// or-group member). Everything else never leaves this device.
func (a *syncAdapter) Relevant(requester, entity string) bool {
	id, ok := strings.CutPrefix(entity, "meeting:")
	if !ok {
		return false
	}
	m, ok := a.c.Meeting(id)
	if !ok {
		return false
	}
	return m.involves(requester)
}

// Snapshot returns the meeting's current document: json.Marshal of the
// record.
func (a *syncAdapter) Snapshot(entity string) (json.RawMessage, bool) {
	id, ok := strings.CutPrefix(entity, "meeting:")
	if !ok {
		return nil, false
	}
	m, ok := a.c.Meeting(id)
	if !ok {
		return nil, false
	}
	doc, err := json.Marshal(m)
	return doc, err == nil
}

// Apply lands a pulled meeting doc. The initiator's record is
// authoritative (same trust model as the MeetingUpdate push), so a
// pulled doc simply replaces the local copy — and releases/occupies the
// local slot to match, as linkHook would have done had we been online.
func (a *syncAdapter) Apply(entity string, _ int64, doc json.RawMessage) error {
	id, ok := strings.CutPrefix(entity, "meeting:")
	if !ok {
		return fmt.Errorf("calendar: bad sync entity %q", entity)
	}
	m := new(Meeting)
	if err := json.Unmarshal(doc, m); err != nil || m.ID == "" || m.ID != id {
		return fmt.Errorf("calendar: bad meeting doc for %q", entity)
	}
	if m.Initiator == a.c.user {
		// Our own meetings are authoritative locally; a peer's stale
		// copy must not roll back what the push phase just negotiated.
		return nil
	}
	return a.c.db.Unit(context.TODO(), func(u *store.Tx) error {
		if m.Status == StatusCancelled {
			return a.c.putReleased(u, m)
		}
		return a.c.acceptRecord(u, m)
	})
}

// putReleased stores a cancelled meeting's record in u and frees the
// slot it held here, if it still holds it.
func (c *Calendar) putReleased(u *store.Tx, m *Meeting) error {
	if c.slotInfoIn(u, m.Slot).Meeting == m.ID {
		if err := c.setSlot(u, m.Slot, "", 0); err != nil {
			return err
		}
	}
	return c.putMeeting(u, m)
}
