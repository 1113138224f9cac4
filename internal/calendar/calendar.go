package calendar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/links"
	"repro/internal/notify"
	"repro/internal/offline"
	"repro/internal/store"
	"repro/internal/wire"
)

// ServicePrefix prefixes the calendar service name.
const ServicePrefix = "cal."

// ServiceFor returns the calendar service name for a user.
func ServiceFor(user string) string { return ServicePrefix + user }

// Entity action names registered with the links manager.
const (
	ActionReserve = "cal.reserve"
	ActionRelease = "cal.release"
)

// DefaultHours is the candidate meeting-hour window when a Request
// does not specify one.
var DefaultHours = []int{9, 10, 11, 12, 13, 14, 15, 16, 17}

// Calendar is one user's calendar application instance. Each user
// stores only their own slots and meeting records (§6: "each user's
// local machine stores only that particular user's information").
//
// A Calendar normally rides on a core.Node (New); NewDetached builds
// one over explicit kernel parts.
type Calendar struct {
	user     string
	db       *store.DB
	lm       *links.Manager
	eng      *engine.Engine
	notifier notify.Notifier

	slots    *store.Table
	meetings *store.Table

	// offline/syncVers are set by EnableSync (before any concurrent
	// use): the disconnected-operation manager and the per-entity
	// version counters bumped on every meeting mutation.
	offline  *offline.Manager
	syncVers *offline.Versions
}

// holdMeeting marks meeting id in the node's lock table, as how, and
// returns the release; nothing of it is left once that has run. A
// meeting's mark serialises the ops on its record (a confirm racing a
// dropout racing a bump), and guards a record, never a deletion: it
// covers reading the record, deciding (for a confirm or a move, the
// negotiation) and the one unit that logs the decision, with the record
// pushes that unit queues, and it is released before a link is deleted
// on another device. Such a deletion offers the slot it frees to a
// waiter, whose vote makes that waiter's initiator mark its own meeting
// (SlotAvailable). So every op that deletes is a decide… function, which
// holds the mark by defer and deletes nothing remotely, and a caller that
// holds nothing and sends the deletion itself. A vote is declined while a
// negotiation holds the meeting (links.HoldVote): that negotiation may be
// waiting on the voter.
func (c *Calendar) holdMeeting(ctx context.Context, id string, how links.Hold) (func(), error) {
	return c.lm.Hold(ctx, meetingEntity(id), how)
}

// Option configures a Calendar.
type Option func(*Calendar)

// WithNotifier sets the e-mail notifier (§5.1). Default: none, and no
// notice is built.
func WithNotifier(n notify.Notifier) Option {
	return func(c *Calendar) { c.notifier = n }
}

// New attaches a calendar application to node: creates the calendar
// tables in the node's database, registers the slot actions with the
// links manager, installs the link-lifecycle hook, and publishes the
// cal.<user> service.
func New(ctx context.Context, node *core.Node, opts ...Option) (*Calendar, error) {
	c, err := NewDetached(node.User, node.DB, node.Links, node.Engine, opts...)
	if err != nil {
		return nil, err
	}
	if err := node.RegisterService(ctx, ServiceFor(node.User), c.ServiceObject()); err != nil {
		return nil, err
	}
	return c, nil
}

// NewDetached builds a calendar over explicit kernel parts without
// publishing its service (the caller registers ServiceObject where it
// sees fit, such as a test listener).
func NewDetached(user string, db *store.DB, lm *links.Manager, eng *engine.Engine, opts ...Option) (*Calendar, error) {
	c := &Calendar{user: user, db: db, lm: lm, eng: eng}
	for _, o := range opts {
		o(c)
	}
	var err error
	c.slots, err = db.EnsureTable(store.Schema{
		Name: slotTable,
		Columns: []store.Column{
			{Name: "day", Type: store.String},
			{Name: "hour", Type: store.Int},
			{Name: "meeting", Type: store.String},
			{Name: "priority", Type: store.Int},
		},
		Key: []string{"day", "hour"},
	})
	if err != nil {
		return nil, err
	}
	if err := c.slots.CreateIndex("meeting"); err != nil {
		return nil, err
	}
	if c.meetings, err = db.EnsureTable(meetingSchema); err != nil {
		return nil, err
	}
	if s := c.meetings.Schema(); !slices.Equal(s.Columns, meetingSchema.Columns) || !slices.Equal(s.Key, meetingSchema.Key) {
		return nil, fmt.Errorf("%w: %v keyed on %v", ErrMeetingSchema, s.Columns, s.Key)
	}

	c.registerActions()
	lm.SetEventHook(c.linkHook)
	return c, nil
}

// User returns the calendar owner's user id.
func (c *Calendar) User() string { return c.user }

// Links exposes the underlying link manager (tests, diagnostics).
func (c *Calendar) Links() *links.Manager { return c.lm }

// newMeetingID mints a meeting id in the links id scheme: ids are
// unique across devices and sort in mint order, which keeps a meeting
// table's iteration, and so a same-seed simulation run, reproducible.
func newMeetingID() string { return links.MintOrdered("M-") }

// --- slot state --------------------------------------------------------------

// SlotInfo is a slot's occupancy.
type SlotInfo struct {
	Slot     Slot   `json:"slot"`
	Meeting  string `json:"meeting,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// The calendar's two tables.
const (
	slotTable    = "cal_slots"
	meetingTable = "cal_meetings"
)

// slotInfo reads a slot row ("" meeting = free).
func (c *Calendar) slotInfo(s Slot) SlotInfo {
	info := SlotInfo{Slot: s}
	// View, not Get: slot probes run inside every negotiation check and
	// free-slot scan, and cloning the row just to read two columns is
	// measurable there.
	c.slots.View(info.fromRow, s.Day, int64(s.Hour))
	return info
}

// slotInfoIn is slotInfo as the step's unit u sees the slot. A step
// that has written the slot must ask through its unit: the "delete" hook
// of a bumped link asks who holds the slot the bumping Commit just took,
// and the stored row would say the bumped meeting still does.
func (c *Calendar) slotInfoIn(u *store.Tx, s Slot) SlotInfo {
	info := SlotInfo{Slot: s}
	u.View(slotTable, info.fromRow, s.Day, int64(s.Hour))
	return info
}

func (i *SlotInfo) fromRow(r store.Row) {
	i.Meeting = r.Str("meeting")
	i.Priority = int(r.Int("priority"))
}

// Slot reports the occupancy of one slot.
func (c *Calendar) Slot(s Slot) SlotInfo { return c.slotInfo(s) }

// setSlot writes slot occupancy in u (meeting "" frees the slot).
func (c *Calendar) setSlot(u *store.Tx, s Slot, meeting string, priority int) error {
	if meeting == "" {
		return u.Remove(slotTable, s.Day, int64(s.Hour))
	}
	r := c.slots.NewRow()
	r.SetStr("meeting", meeting)
	r.SetInt("priority", int64(priority))
	if u.Has(slotTable, s.Day, int64(s.Hour)) {
		return u.Update(slotTable, r, s.Day, int64(s.Hour))
	}
	r.SetStr("day", s.Day)
	r.SetInt("hour", int64(s.Hour))
	return u.Insert(slotTable, r)
}

// FreeSlots lists this user's free slots in [fromDay, toDay] at the
// given hours (none = DefaultHours), sorted by day then hour. A window
// NewWindow refuses has no slots.
func (c *Calendar) FreeSlots(fromDay, toDay string, hours []int) []Slot {
	w, err := NewWindow(fromDay, toDay, hours)
	if err != nil {
		return nil
	}
	return c.availability(w).Slots()
}

// MarkBusy reserves a slot for a personal appointment (no meeting
// coordination). label defaults to "busy".
func (c *Calendar) MarkBusy(s Slot, label string, priority int) error {
	if label == "" {
		label = "busy"
	}
	return c.db.Unit(context.TODO(), func(u *store.Tx) error {
		if info := c.slotInfoIn(u, s); info.Meeting != "" {
			return wire.Refuse(slotHeld(info.Meeting), "calendar: %s already holds %s", s, info.Meeting)
		}
		return c.setSlot(u, s, "personal:"+label, priority)
	})
}

// isPersonal reports whether a slot occupancy is a personal
// appointment rather than a coordinated meeting.
func isPersonal(meeting string) bool {
	return len(meeting) >= 9 && meeting[:9] == "personal:"
}

// slotHeld is the reason a slot held by meeting refuses another.
func slotHeld(meeting string) wire.Reason {
	if isPersonal(meeting) {
		return wire.ReasonSlotPersonal
	}
	return wire.ReasonSlotMeeting
}

// ReleaseSlot frees a slot the user holds for a personal appointment
// and wakes any tentative links queued on it (§5: "whenever C becomes
// available ... it will get triggered"). It refuses to release a slot
// held by a coordinated meeting — use DropOut or CancelMeeting there.
func (c *Calendar) ReleaseSlot(ctx context.Context, s Slot) error {
	info := c.slotInfo(s)
	if info.Meeting == "" {
		return nil
	}
	if !isPersonal(info.Meeting) {
		return wire.Refuse(wire.ReasonNotAllowed, "calendar: %s is held by meeting %s; use DropOut or CancelMeeting", s, info.Meeting)
	}
	if err := c.db.Unit(ctx, func(u *store.Tx) error { return c.setSlot(u, s, "", 0) }); err != nil {
		return err
	}
	// The highest-priority tentative back link queued at this slot votes
	// it to its meeting's initiator.
	c.lm.Offer(ctx, s.Entity())
	return nil
}

// --- meeting records -----------------------------------------------------------

// recordLists are the keys of a record's user lists in its wire form and
// the names of their columns.
var recordLists = [...]string{"must", "supervisors", "delegates", "reserved", "missing"}

// recordArgs is m's wire form, the typed arguments a Commit and a
// MeetingUpdate carry: the scalars, each user list that is not empty, and
// the or-groups as their JSON text (an argument has no list-of-lists
// kind). What meetingFromArgs reads back equals m.
func recordArgs(m *Meeting) wire.Args {
	a := append(make(wire.Args, 0, 14), wire.Str("id", m.ID), wire.Str("title", m.Title), wire.Str("initiator", m.Initiator),
		wire.Str("day", m.Slot.Day), wire.Int("hour", m.Slot.Hour), wire.Str("status", m.Status), wire.Int("priority", m.Priority))
	for i, l := range m.userLists() {
		if len(*l) > 0 {
			a = append(a, wire.Strs(recordLists[i], *l))
		}
	}
	if len(m.OrGroups) > 0 {
		raw, _ := json.Marshal(m.OrGroups) // a []OrGroup always has its JSON form
		a = append(a, wire.Raw("orGroups", raw))
	}
	if m.LinkID != "" {
		a = append(a, wire.Str("linkID", m.LinkID))
	}
	return a
}

// meetingFromArgs reads the record recordArgs wrote, from a frame or from
// the arguments' JSON form (a journal row, a QueryOutcome answer). Its
// lists are a's own, not copies. A record with no id is bad arguments.
func meetingFromArgs(a wire.Args) (Meeting, error) {
	m := Meeting{ID: a.String("id"), Title: a.String("title"), Initiator: a.String("initiator"),
		Slot: Slot{Day: a.String("day"), Hour: a.Int("hour")}, Status: a.String("status"),
		Priority: a.Int("priority"), LinkID: a.String("linkID")}
	for i, l := range m.userLists() {
		*l = a.Strings(recordLists[i])
	}
	var err error
	if a.Has("orGroups") {
		var groups []OrGroup // its own variable, so that m stays off the heap
		err = a.Decode("orGroups", &groups)
		m.OrGroups = groups
	}
	if err != nil || m.ID == "" {
		return m, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "bad meeting"}
	}
	return m, nil
}

// The meetings table holds a record as typed columns: its scalars, each
// user list as a list column named as in recordLists, and the or-groups,
// which are rare, as their JSON text. A record is written by setting
// columns and read by reading them.
var meetingSchema = store.Schema{Name: meetingTable, Key: []string{"id"}, Columns: []store.Column{
	{Name: "id", Type: store.String}, {Name: "title", Type: store.String}, {Name: "initiator", Type: store.String},
	{Name: "day", Type: store.String}, {Name: "hour", Type: store.Int}, {Name: "status", Type: store.String},
	{Name: "priority", Type: store.Int}, {Name: "must", Type: store.Strings}, {Name: "supervisors", Type: store.Strings},
	{Name: "delegates", Type: store.Strings}, {Name: "reserved", Type: store.Strings}, {Name: "missing", Type: store.Strings},
	{Name: "link_id", Type: store.String}, {Name: "or_groups", Type: store.String},
}}

// ErrMeetingSchema refuses a meetings table of another schema, such as a
// record as one JSON text column: nothing converts it.
var ErrMeetingSchema = errors.New("calendar: the meetings table has another schema")

// userLists are m's user lists, in recordLists' order.
func (m *Meeting) userLists() [len(recordLists)]*[]string {
	return [...]*[]string{&m.Must, &m.Supervisors, &m.Delegates, &m.Reserved, &m.Missing}
}

// meetingOf reads the record a meetings row holds. Its lists are the
// row's, capped, so that an append to one copies (store.Row.Strs).
func meetingOf(r store.Row) Meeting {
	m := Meeting{ID: r.Str("id"), Title: r.Str("title"), Initiator: r.Str("initiator"),
		Slot: Slot{Day: r.Str("day"), Hour: int(r.Int("hour"))}, Status: r.Str("status"),
		Priority: int(r.Int("priority")), LinkID: r.Str("link_id")}
	for i, l := range m.userLists() {
		*l = r.Strs(recordLists[i])
	}
	if text := r.Str("or_groups"); text != "" {
		var groups []OrGroup                      // its own variable, so that m stays off the heap
		_ = json.Unmarshal([]byte(text), &groups) // json.Marshal's text
		m.OrGroups = groups
	}
	return m
}

// meetingRow is the row that stores m over was (nil: none, an insert):
// the columns that differ from was, an unset column reading as its zero
// value. The row keeps m's lists: nothing writes an element of one.
func (c *Calendar) meetingRow(m, was *Meeting) store.Row {
	r := c.meetings.NewRow()
	if was == nil {
		was = new(Meeting)
		r.SetStr("id", m.ID)
	}
	for _, s := range [...][3]string{{"title", m.Title, was.Title}, {"initiator", m.Initiator, was.Initiator},
		{"day", m.Slot.Day, was.Slot.Day}, {"status", m.Status, was.Status}, {"link_id", m.LinkID, was.LinkID}} {
		if s[1] != s[2] {
			r.SetStr(s[0], s[1])
		}
	}
	if m.Slot.Hour != was.Slot.Hour {
		r.SetInt("hour", int64(m.Slot.Hour))
	}
	if m.Priority != was.Priority {
		r.SetInt("priority", int64(m.Priority))
	}
	old := was.userLists()
	for i, l := range m.userLists() {
		if !slices.Equal(*l, *old[i]) {
			r.SetStrs(recordLists[i], *l)
		}
	}
	if !sameGroups(m.OrGroups, was.OrGroups) {
		raw, _ := json.Marshal(m.OrGroups) // a []OrGroup always has its JSON form
		r.SetStr("or_groups", string(raw))
	}
	return r
}

// equal reports whether m and o are the same record. An empty list is
// the same as none.
func (m *Meeting) equal(o *Meeting) bool {
	ml, ol := m.userLists(), o.userLists()
	return m.ID == o.ID && m.Title == o.Title && m.Initiator == o.Initiator && m.Slot == o.Slot && m.Status == o.Status &&
		m.Priority == o.Priority && m.LinkID == o.LinkID && sameGroups(m.OrGroups, o.OrGroups) &&
		slices.EqualFunc(ml[:], ol[:], func(a, b *[]string) bool { return slices.Equal(*a, *b) })
}

// sameGroups reports whether a and b are the same or-groups; no members
// and none are not the same (JSON writes null and []).
func sameGroups(a, b []OrGroup) bool {
	return slices.EqualFunc(a, b, func(x, y OrGroup) bool {
		return x.Name == y.Name && x.K == y.K && (x.Members == nil) == (y.Members == nil) && slices.Equal(x.Members, y.Members)
	})
}

// putMeeting stores m in u: an insert, or an update of the columns that
// differ from the stored record. A record stored already (a push of what
// a Commit carried, a delegation granted twice) is left alone: no row, no
// version bump.
func (c *Calendar) putMeeting(u *store.Tx, m *Meeting) error {
	var was Meeting
	var err error
	switch has := u.View(meetingTable, func(r store.Row) { was = meetingOf(r) }, m.ID); {
	case !has:
		err = u.Insert(meetingTable, c.meetingRow(m, nil))
	case m.equal(&was):
		return nil
	default:
		err = u.Update(meetingTable, c.meetingRow(m, &was), m.ID)
	}
	if id := m.ID; err == nil && c.syncVers != nil {
		u.AfterCommit(func(ctx context.Context) { c.syncVers.Bump(ctx, meetingEntity(id)) })
	}
	return err
}

// Meeting fetches a meeting record by id.
func (c *Calendar) Meeting(id string) (*Meeting, bool) {
	var m Meeting
	if !c.meetings.View(func(r store.Row) { m = meetingOf(r) }, id) {
		return nil, false
	}
	return &m, true
}

// meetingIn is Meeting as the step's unit u sees the record.
func (c *Calendar) meetingIn(u *store.Tx, id string) (m Meeting, ok bool) {
	ok = u.View(meetingTable, func(r store.Row) { m = meetingOf(r) }, id)
	return m, ok
}

// Meetings lists all locally known meetings sorted by id.
func (c *Calendar) Meetings() []*Meeting {
	out := make([]*Meeting, 0, c.meetings.Count())
	c.meetings.ViewAll(func(r store.Row) {
		m := meetingOf(r)
		out = append(out, &m)
	})
	slices.SortFunc(out, func(a, b *Meeting) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// --- entity actions -------------------------------------------------------------

// registerActions installs the slot actions the coordination links
// negotiate with.
func (c *Calendar) registerActions() {
	c.lm.RegisterAction(ActionReserve, links.Action{
		Check: func(entity string, args wire.Args) error {
			s, err := SlotFromEntity(entity)
			if err != nil {
				return err
			}
			meeting := args.String("meeting")
			info := c.slotInfo(s)
			switch {
			case info.Meeting == "" || info.Meeting == meeting:
				return nil
			case args.Bool("allowBump") && args.Int("priority") > info.Priority:
				return nil // higher priority may bump (§6)
			default:
				return wire.Refuse(slotHeld(info.Meeting), "calendar: %s/%s holds %s (prio %d)", c.user, s, info.Meeting, info.Priority)
			}
		},
		Apply: func(u *store.Tx, entity string, args wire.Args) error {
			s, err := SlotFromEntity(entity)
			if err != nil {
				return err
			}
			// A Commit carries the meeting record as decided (reserve);
			// a bad one must leave slot, link and record all untouched.
			var decided Meeting
			if args.Has("rec") {
				if decided, err = meetingFromArgs(args.Sub("rec")); err != nil {
					return err
				}
			}
			meeting := args.String("meeting")
			prio := args.Int("priority")
			info := c.slotInfoIn(u, s)
			bumped := ""
			if info.Meeting != "" && info.Meeting != meeting {
				bumped = info.Meeting
			}
			if err := c.setSlot(u, s, meeting, prio); err != nil {
				return err
			}
			if bumped != "" {
				if err := c.handleBumpedMeeting(u, bumped, s, meeting); err != nil {
					return err
				}
			}
			if decided.ID == "" {
				return nil
			}
			// After the bump handling, whose blocker lookup must not see
			// this meeting's own back link yet.
			return c.acceptDecided(u, &decided, entity, args)
		},
	})
	c.lm.RegisterAction(ActionRelease, links.Action{
		Apply: func(u *store.Tx, entity string, args wire.Args) error {
			s, err := SlotFromEntity(entity)
			if err != nil {
				return err
			}
			meeting := args.String("meeting")
			if meeting != "" && c.slotInfoIn(u, s).Meeting != meeting {
				return nil // slot has moved on; nothing to release
			}
			return c.setSlot(u, s, "", 0)
		},
	})
}

// linkHook reacts to link lifecycle events on this node, in the unit u
// that changes the link row. Link groups carry the meeting id, so a
// deleted link means "this meeting released my slot". No slot is written
// for a meeting here: only a Commit's reserve does that, under its lock.
func (c *Calendar) linkHook(u *store.Tx, kind string, l *links.Link, _ wire.Args) error {
	meetingID := l.Group
	s, err := SlotFromEntity(l.Owner.Entity)
	if meetingID == "" || err != nil || kind != "delete" {
		return nil
	}
	if c.slotInfoIn(u, s).Meeting == meetingID {
		if err := c.setSlot(u, s, "", 0); err != nil {
			return err
		}
	}
	// The retraction of the meeting's link is the cancellation (§4.4):
	// write the record the initiator writes, no message follows. A link
	// the record has moved on from (ChangeMeetingSlot) cancels nothing.
	// Its update sets status and reserved alone.
	if m, ok := c.meetingIn(u, meetingID); ok && m.Status != StatusCancelled && (m.LinkID == "" || m.LinkID == l.ID) {
		m.Status, m.Reserved = StatusCancelled, nil
		return c.putMeeting(u, &m)
	}
	return nil
}

// acceptDecided finishes a reservation whose Commit carried the meeting
// record, in the Commit's unit u: the permanent back link to the
// initiator on entity, the slot reserved, goes in (a tentative row queued
// here earlier is promoted to it instead: its triggers, type and the
// Commit's expiry) and the record is stored, its lists carved from the
// Commit's frame. It runs
// under the slot's entity lock; running it again (a redriven Commit, a
// retried reserve) leaves one link row, one record.
func (c *Calendar) acceptDecided(u *store.Tx, m *Meeting, entity string, args wire.Args) error {
	if m.Initiator == c.user {
		// TryConfirm re-reserving the initiator's own bumped slot: its
		// forward link turns permanent again, the caller stores the
		// record. ChangeMeetingSlot comes this way too, before its new
		// forward link exists, and has nothing to promote.
		if err := c.lm.PromoteLink(u, m.LinkID, nil); err != nil && wire.CodeOf(err) != wire.CodeNoService {
			return err
		}
		return nil
	}
	back := backLink(m, c.user, entity)
	if args.Has("expires") {
		if err := args.Decode("expires", &back.Expires); err != nil {
			return &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "calendar: bad link expiry in reserve"}
		}
	}
	var err error
	if u.Has(links.LinkTable, m.LinkID) {
		err = c.lm.PromoteLink(u, m.LinkID, &back)
	} else {
		err = c.lm.AddLink(u, &back)
	}
	if err != nil {
		return err
	}
	return c.putMeeting(u, m)
}

// acceptRecord is where a meeting record sent to this device lands (a
// MeetingUpdate push, a pulled copy), in the step's unit u: it is stored
// as sent, and the record is the install. A live record that wants this
// user and does not hold them reserved makes the user queue its own
// tentative back link (§4.2 op 3), waiting on the first permanent link
// of another meeting on the slot as u sees it, or queued at the slot when
// nothing link-managed holds it: blocker lookup and waiting row are one
// local step. A row already here under the link id — queued by an earlier
// push or a bump, or the permanent one a Commit installed — is left as it
// is; an offline stub (no link id yet) queues nothing.
func (c *Calendar) acceptRecord(u *store.Tx, m *Meeting) error {
	if err := c.putMeeting(u, m); err != nil {
		return err
	}
	if m.Status == StatusCancelled || m.LinkID == "" || m.Initiator == c.user || m.isReserved(c.user) ||
		u.Has(links.LinkTable, m.LinkID) || !m.involves(c.user) {
		return nil
	}
	l := links.Link{
		ID: m.LinkID, Group: m.ID, Priority: m.Priority, Subtype: links.Tentative,
		Owner:   links.EntityRef{User: c.user, Entity: m.Slot.Entity()},
		Targets: []links.EntityRef{{User: m.Initiator, Entity: m.Slot.Entity()}},
		Type:    links.Negotiation, Constraint: links.And, Triggers: tentativeTriggers(m.ID, c.user),
	}
	l.WaitingOn = c.lm.BlockerIn(u, l.Owner.Entity, m.ID)
	return c.lm.AddLink(u, &l)
}

// handleBumpedMeeting runs on the device whose slot was just taken by
// a higher-priority meeting, in the unit u of the Commit that took it:
// re-queue a tentative back link for the bumped meeting and, once u is
// logged, tell its initiator (§6: "a low priority meeting can be bumped
// ... and is then automatically rescheduled").
func (c *Calendar) handleBumpedMeeting(u *store.Tx, bumpedMeeting string, s Slot, byMeeting string) error {
	if isPersonal(bumpedMeeting) {
		return nil // personal appointments are simply overwritten
	}
	initiator := ""
	if m, ok := c.meetingIn(u, bumpedMeeting); ok {
		initiator = m.Initiator
	}
	// Replace the bumped meeting's back link (if any) with a
	// tentative one waiting on the bumping meeting's link.
	onSlot := c.lm.LinksOnIn(u, s.Entity())
	var blockerID string
	for _, l := range onSlot {
		if l.Group == byMeeting && l.Subtype == links.Permanent {
			blockerID = l.ID
		}
	}
	for _, l := range onSlot {
		if l.Group != bumpedMeeting {
			continue
		}
		if initiator == "" && len(l.Targets) > 0 {
			initiator = l.Targets[0].User
		}
		nl := *l
		nl.Subtype = links.Tentative
		nl.WaitingOn = blockerID
		nl.Triggers = tentativeTriggers(bumpedMeeting, c.user)
		if err := c.lm.RemoveLink(u, l.ID); err != nil {
			return err
		}
		if err := c.lm.AddLink(u, &nl); err != nil {
			return err
		}
	}
	// The delete hook marks the local meeting record cancelled; the
	// meeting is only bumped, so restore it to tentative.
	if m, ok := c.meetingIn(u, bumpedMeeting); ok && m.Status == StatusCancelled {
		m.Status = StatusTentative
		if err := c.putMeeting(u, &m); err != nil {
			return err
		}
	}
	// The initiator hears of it inside the bumping negotiation's commit,
	// with the slot's entity lock still held, and records it under the
	// bumped meeting's mark as a local step (meetingBumpedLocally). That
	// waits while a confirm or a move of the bumped meeting runs; such a
	// negotiation only ever *try-locks* entities, so it fails fast on this
	// slot's lock instead of waiting on it, and the wait is bounded by the
	// Commit's ctx.
	switch initiator {
	case "":
	case c.user:
		u.AfterCommit(func(ctx context.Context) { c.meetingBumpedLocally(ctx, bumpedMeeting, c.user) })
	default:
		u.AfterCommit(func(ctx context.Context) {
			// Best effort: an initiator that cannot be told now finds
			// the participant missing at its next TryConfirm.
			_ = c.eng.Invoke(ctx, ServiceFor(initiator), "MeetingBumped", wire.Args{
				wire.Str("meeting", bumpedMeeting), wire.Str("user", c.user), wire.Str("by", byMeeting),
			}, nil)
		})
	}
	return nil
}

// notice is one §5.1 e-mail about m: what happened, the subject's last
// words ("" for a schedule: m's status), by whom, and the slot a move left.
type notice struct {
	m        *Meeting
	what, by string
	from     Slot
}

// notifyParticipants sends the §5.1 e-mail n, formatted only when the
// calendar has a notifier.
func (c *Calendar) notifyParticipants(ctx context.Context, n notice) {
	if c.notifier == nil {
		return
	}
	m, what := n.m, n.what
	var body string
	switch what {
	case "":
		what, body = m.Status, fmt.Sprintf("%s at %s, initiated by %s.", m.Title, m.Slot, m.Initiator)
	case "cancelled":
		body = fmt.Sprintf("%s at %s was cancelled by %s.", m.Title, m.Slot, n.by)
	case "confirmed":
		body = fmt.Sprintf("%s at %s is now confirmed.", m.Title, m.Slot)
	case "now tentative":
		body = fmt.Sprintf("%s dropped out of %s at %s.", n.by, m.Title, m.Slot)
	case "moved":
		body = fmt.Sprintf("%s moved from %s to %s.", m.Title, n.from, m.Slot)
	case "bumped":
		body = fmt.Sprintf("%s was bumped off %s by a higher-priority meeting; %s is now tentative.", n.by, m.Slot, m.Title)
	}
	_ = c.notifier.Notify(ctx, notify.Message{To: m.Participants(), Subject: fmt.Sprintf("Meeting %s (%s) %s", m.ID, m.Title, what), Body: body})
}
