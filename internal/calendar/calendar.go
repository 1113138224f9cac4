package calendar

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// A Calendar normally rides on a core.Node (New); the proxy subsystem
// builds detached instances over a restored snapshot (NewDetached).
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

	// meetMu serializes read-modify-write sequences on one meeting
	// record (TryConfirm racing a dropout racing a bump). Keyed by
	// meeting id; values are *sync.Mutex.
	meetMu sync.Map
}

// lockMeeting serializes mutations of one meeting record and returns
// the unlock function.
func (c *Calendar) lockMeeting(id string) func() {
	mi, _ := c.meetMu.LoadOrStore(id, &sync.Mutex{})
	mu := mi.(*sync.Mutex)
	mu.Lock()
	return mu.Unlock
}

// Option configures a Calendar.
type Option func(*Calendar)

// WithNotifier sets the e-mail notifier (§5.1). Default: discard.
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
// sees fit — a proxy host, or a test listener).
func NewDetached(user string, db *store.DB, lm *links.Manager, eng *engine.Engine, opts ...Option) (*Calendar, error) {
	c := &Calendar{user: user, db: db, lm: lm, eng: eng, notifier: notify.Discard{}}
	for _, o := range opts {
		o(c)
	}
	var err error
	c.slots, err = db.EnsureTable(store.Schema{
		Name: "cal_slots",
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
	c.meetings, err = db.EnsureTable(store.Schema{
		Name: "cal_meetings",
		Columns: []store.Column{
			{Name: "id", Type: store.String},
			{Name: "doc", Type: store.String}, // JSON Meeting
		},
		Key: []string{"id"},
	})
	if err != nil {
		return nil, err
	}

	c.registerActions()
	lm.SetEventHook(c.linkHook)
	return c, nil
}

// User returns the calendar owner's user id.
func (c *Calendar) User() string { return c.user }

// Links exposes the underlying link manager (tests, diagnostics).
func (c *Calendar) Links() *links.Manager { return c.lm }

// Meeting ids follow the links id scheme: a random per-process prefix
// for cross-device uniqueness plus a zero-padded counter so ids sort
// in mint order — meeting ids are store keys, and deterministic
// iteration order keeps same-seed simulation runs reproducible.
var (
	meetingPrefix  = newMeetingPrefix()
	meetingCounter atomic.Uint64
)

func newMeetingPrefix() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("calendar: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// newMeetingID mints a meeting id.
func newMeetingID() string {
	return fmt.Sprintf("M-%s-%012d", meetingPrefix, meetingCounter.Add(1))
}

// --- slot state --------------------------------------------------------------

// SlotInfo is a slot's occupancy.
type SlotInfo struct {
	Slot     Slot   `json:"slot"`
	Meeting  string `json:"meeting,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// slotInfo reads a slot row ("" meeting = free).
func (c *Calendar) slotInfo(s Slot) SlotInfo {
	info := SlotInfo{Slot: s}
	// View, not Get: slot probes run inside every negotiation check and
	// free-slot scan, and cloning the row just to read two columns is
	// measurable there.
	c.slots.View(func(r store.Row) {
		info.Meeting = r["meeting"].(string)
		info.Priority = int(r["priority"].(int64))
	}, s.Day, int64(s.Hour))
	return info
}

// Slot reports the occupancy of one slot.
func (c *Calendar) Slot(s Slot) SlotInfo { return c.slotInfo(s) }

// setSlot writes slot occupancy (meeting "" frees the slot).
func (c *Calendar) setSlot(s Slot, meeting string, priority int) error {
	if meeting == "" {
		if c.slots.Has(s.Day, int64(s.Hour)) {
			return c.slots.Delete(s.Day, int64(s.Hour))
		}
		return nil
	}
	if c.slots.Has(s.Day, int64(s.Hour)) {
		return c.slots.Update(store.Row{"meeting": meeting, "priority": int64(priority)}, s.Day, int64(s.Hour))
	}
	return c.slots.Insert(store.Row{"day": s.Day, "hour": int64(s.Hour), "meeting": meeting, "priority": int64(priority)})
}

// FreeSlots lists this user's free slots in [fromDay, toDay] at the
// given hours (nil = DefaultHours), sorted by day then hour.
func (c *Calendar) FreeSlots(fromDay, toDay string, hours []int) []Slot {
	if hours == nil {
		hours = append([]int(nil), DefaultHours...)
	}
	sort.Ints(hours)
	var out []Slot
	for _, day := range DaysBetween(fromDay, toDay) {
		for _, h := range hours {
			s := Slot{Day: day, Hour: h}
			if c.slotInfo(s).Meeting == "" {
				out = append(out, s)
			}
		}
	}
	return out
}

// SlotCount reports how many slot rows this user stores — their own
// occupancy only, never replicas of other users (§6's storage claim).
func (c *Calendar) SlotCount() int { return c.slots.Count() }

// MarkBusy reserves a slot for a personal appointment (no meeting
// coordination). label defaults to "busy".
func (c *Calendar) MarkBusy(s Slot, label string, priority int) error {
	if label == "" {
		label = "busy"
	}
	if info := c.slotInfo(s); info.Meeting != "" {
		return &wire.RemoteError{Code: wire.CodeConflict, Msg: fmt.Sprintf("calendar: %s already holds %s", s, info.Meeting)}
	}
	return c.setSlot(s, "personal:"+label, priority)
}

// isPersonal reports whether a slot occupancy is a personal
// appointment rather than a coordinated meeting.
func isPersonal(meeting string) bool {
	return len(meeting) >= 9 && meeting[:9] == "personal:"
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
		return &wire.RemoteError{Code: wire.CodeConflict,
			Msg: fmt.Sprintf("calendar: %s is held by meeting %s; use DropOut or CancelMeeting", s, info.Meeting)}
	}
	if err := c.setSlot(s, "", 0); err != nil {
		return err
	}
	// Fire availability triggers: the highest-priority tentative
	// back link queued at this slot informs its meeting's initiator.
	_, err := c.lm.TriggerEntity(ctx, s.Entity(), "avail", wire.Args{
		"user": c.user, "day": s.Day, "hour": s.Hour,
	})
	return err
}

// --- meeting records -----------------------------------------------------------

// encodeMeeting renders a meeting record in its one encoding: what the
// meetings table stores is also what travels, inside a Commit or a
// MeetingUpdate, and a receiver stores the text it was sent. A Meeting
// holds strings, ints and slices of them, which Marshal cannot refuse.
func encodeMeeting(m *Meeting) string {
	doc, _ := json.Marshal(m)
	return string(doc)
}

// decodeMeeting is the one decode a received record gets.
func decodeMeeting(doc string) (*Meeting, error) {
	var m Meeting
	if err := json.Unmarshal([]byte(doc), &m); err != nil || m.ID == "" {
		return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "bad meeting"}
	}
	return &m, nil
}

// putMeeting upserts a meeting record.
func (c *Calendar) putMeeting(m *Meeting) error {
	return c.storeMeeting(m.ID, encodeMeeting(m))
}

// storeMeeting upserts an encoded meeting record.
func (c *Calendar) storeMeeting(id, doc string) error {
	var err error
	if c.meetings.Has(id) {
		err = c.meetings.Update(store.Row{"doc": doc}, id)
	} else {
		err = c.meetings.Insert(store.Row{"id": id, "doc": doc})
	}
	if err == nil && c.syncVers != nil {
		c.syncVers.Bump(meetingEntity(id))
	}
	return err
}

// Meeting fetches a meeting record by id.
func (c *Calendar) Meeting(id string) (*Meeting, bool) {
	r, ok := c.meetings.Get(id)
	if !ok {
		return nil, false
	}
	var m Meeting
	if err := json.Unmarshal([]byte(r["doc"].(string)), &m); err != nil {
		return nil, false
	}
	return &m, true
}

// Meetings lists all locally known meetings sorted by id.
func (c *Calendar) Meetings() []*Meeting {
	rows := c.meetings.Select(nil)
	out := make([]*Meeting, 0, len(rows))
	for _, r := range rows {
		var m Meeting
		if json.Unmarshal([]byte(r["doc"].(string)), &m) == nil {
			out = append(out, &m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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
				return &wire.RemoteError{Code: wire.CodeConflict,
					Msg: fmt.Sprintf("calendar: %s/%s holds %s (prio %d)", c.user, s, info.Meeting, info.Priority)}
			}
		},
		Apply: func(entity string, args wire.Args) error {
			s, err := SlotFromEntity(entity)
			if err != nil {
				return err
			}
			// A Commit carries the meeting record as decided (reserve);
			// a bad one must leave slot, link and record all untouched.
			var decided *Meeting
			doc := args.String("doc")
			if doc != "" {
				if decided, err = decodeMeeting(doc); err != nil {
					return err
				}
			}
			meeting := args.String("meeting")
			prio := args.Int("priority")
			info := c.slotInfo(s)
			bumped := ""
			if info.Meeting != "" && info.Meeting != meeting {
				bumped = info.Meeting
			}
			if err := c.setSlot(s, meeting, prio); err != nil {
				return err
			}
			if bumped != "" {
				c.handleBumpedMeeting(bumped, s, meeting)
			}
			if decided == nil {
				return nil
			}
			// After the bump handling, whose blocker lookup must not see
			// this meeting's own back link yet.
			return c.acceptDecided(decided, doc, args)
		},
	})
	c.lm.RegisterAction(ActionRelease, links.Action{
		Apply: func(entity string, args wire.Args) error {
			s, err := SlotFromEntity(entity)
			if err != nil {
				return err
			}
			meeting := args.String("meeting")
			info := c.slotInfo(s)
			if meeting != "" && info.Meeting != meeting {
				return nil // slot has moved on; nothing to release
			}
			return c.setSlot(s, "", 0)
		},
	})
}

// linkHook reacts to link lifecycle events on this node. Link groups
// carry the meeting id, so a deleted link means "this meeting released
// my slot" and a promoted link means "my tentative reservation may
// become real".
func (c *Calendar) linkHook(kind string, l *links.Link, _ wire.Args) {
	meetingID := l.Group
	if meetingID == "" {
		return
	}
	switch kind {
	case "delete", "expire":
		s, err := SlotFromEntity(l.Owner.Entity)
		if err != nil {
			return
		}
		freed := false
		if info := c.slotInfo(s); info.Meeting == meetingID {
			_ = c.setSlot(s, "", 0)
			freed = true
		}
		// The retraction of the meeting's link is the cancellation (§4.4):
		// write the record the initiator writes, no message follows. A link
		// the record has moved on from (ChangeMeetingSlot) cancels nothing.
		if m, ok := c.Meeting(meetingID); ok && m.Status != StatusCancelled && (m.LinkID == "" || m.LinkID == l.ID) {
			m.Status = StatusCancelled
			m.Reserved = nil
			_ = c.putMeeting(m)
		}
		if freed {
			// Wake tentative links queued at the freed slot that are
			// not tracked by the waiting table (their blocker was
			// unknown when they were queued — e.g. bump re-queues).
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = c.lm.TriggerEntity(ctx, l.Owner.Entity, "avail", wire.Args{
				"user": c.user, "day": s.Day, "hour": s.Hour,
			})
		}
	case "promote":
		s, err := SlotFromEntity(l.Owner.Entity)
		if err != nil {
			return
		}
		if info := c.slotInfo(s); info.Meeting == "" {
			prio := l.Priority
			if m, ok := c.Meeting(meetingID); ok {
				prio = m.Priority
			}
			_ = c.setSlot(s, meetingID, prio)
		}
	}
}

// acceptDecided finishes a reservation whose Commit carried the meeting
// record: the permanent back link to the initiator goes in (a tentative
// row queued here earlier is promoted instead) and the record is stored
// as sent. It runs under the slot's entity lock; running it again (a
// redriven Commit, a retried reserve) leaves one link row, one record.
func (c *Calendar) acceptDecided(m *Meeting, doc string, args wire.Args) error {
	if m.Initiator == c.user {
		// TryConfirm re-reserving the initiator's own bumped slot: its
		// forward link turns permanent again, the caller stores the record.
		_ = c.lm.PromoteLink(m.LinkID)
		return nil
	}
	back := backLink(m, c.user)
	if _, ok := args["expires"]; ok {
		if err := args.Decode("expires", &back.Expires); err != nil {
			return &wire.RemoteError{Code: wire.CodeBadArgs, Msg: "calendar: bad link expiry in reserve"}
		}
	}
	err := c.lm.AddLink(&back)
	if wire.CodeOf(err) == wire.CodeConflict {
		err = c.lm.PromoteLink(m.LinkID)
	}
	if err != nil {
		return err
	}
	return c.storeMeeting(m.ID, doc)
}

// handleBumpedMeeting runs on the device whose slot was just taken by
// a higher-priority meeting: re-queue a tentative back link for the
// bumped meeting and tell its initiator (§6: "a low priority meeting
// can be bumped ... and is then automatically rescheduled").
func (c *Calendar) handleBumpedMeeting(bumpedMeeting string, s Slot, byMeeting string) {
	if isPersonal(bumpedMeeting) {
		return // personal appointments are simply overwritten
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	initiator := ""
	if m, ok := c.Meeting(bumpedMeeting); ok {
		initiator = m.Initiator
	}
	// Replace the bumped meeting's back link (if any) with a
	// tentative one waiting on the bumping meeting's link.
	var blockerID string
	for _, l := range c.lm.LinksOn(s.Entity()) {
		if l.Group == byMeeting && l.Subtype == links.Permanent {
			blockerID = l.ID
		}
	}
	for _, l := range c.lm.LinksOn(s.Entity()) {
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
		_, _ = c.lm.DeleteLinkLocal(ctx, l.ID)
		_ = c.lm.AddLink(&nl)
	}
	// The delete hook marks the local meeting record cancelled; the
	// meeting is only bumped, so restore it to tentative.
	if m, ok := c.Meeting(bumpedMeeting); ok && m.Status == StatusCancelled {
		m.Status = StatusTentative
		_ = c.putMeeting(m)
	}
	// The initiator notification runs inline inside the bumping
	// negotiation's commit. This cannot deadlock against the meeting
	// locks: any holder of the bumped meeting's lock only ever
	// *try-locks* entities, so it fails fast instead of waiting on
	// the bumping negotiation's entity locks.
	if initiator != "" && initiator != c.user {
		_ = c.eng.Invoke(ctx, ServiceFor(initiator), "MeetingBumped", wire.Args{
			"meeting": bumpedMeeting, "user": c.user, "by": byMeeting,
		}, nil)
	} else if initiator == c.user {
		c.meetingBumpedLocally(ctx, bumpedMeeting, c.user)
	}
}

// notifyParticipants sends the §5.1 e-mail notification.
func (c *Calendar) notifyParticipants(ctx context.Context, m *Meeting, subject, body string) {
	_ = c.notifier.Notify(ctx, notify.Message{
		To:      m.Participants(),
		Subject: subject,
		Body:    body,
	})
}
