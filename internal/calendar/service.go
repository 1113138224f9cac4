package calendar

import (
	"context"
	"fmt"

	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/store"
	"repro/internal/wire"
)

// ServiceObject returns the cal.<user> device object: the calendar's
// remote surface, covering both the data queries of §5 ("query each
// table for free slots") and the coordination callbacks the link
// triggers invoke.
func (c *Calendar) ServiceObject() *listener.Object {
	obj := listener.NewObject()

	// GetFreeSlots: the window travels as from, to and the hour set (one
	// int, bit h = hour h, absent = DefaultHours); the answer is the
	// availability's words and nothing else.
	obj.Handle("GetFreeSlots", func(ctx context.Context, call *listener.Call) (any, error) {
		w, err := windowFromArgs(call.Args)
		if err != nil {
			return nil, err
		}
		return c.availability(w).words, nil
	})

	obj.Handle("SlotInfo", func(ctx context.Context, call *listener.Call) (any, error) {
		s := Slot{Day: call.Args.String("day"), Hour: call.Args.Int("hour")}
		if !s.Valid() {
			return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("bad slot %v", s)}
		}
		return c.slotInfo(s), nil
	})

	obj.Handle("ListMeetings", func(ctx context.Context, call *listener.Call) (any, error) {
		return c.Meetings(), nil
	})

	obj.Handle("GetMeeting", func(ctx context.Context, call *listener.Call) (any, error) {
		m, ok := c.Meeting(call.Args.String("meeting"))
		if !ok {
			return nil, &wire.RemoteError{Code: wire.CodeNoService, Msg: "unknown meeting"}
		}
		return m, nil
	})

	// Schedule: set up a meeting with this node's user as initiator —
	// the remote surface behind the sydcal CLI (the paper's split of
	// client interface vs server application, §3.1). In local mode the
	// answer is the queued tentative meeting.
	obj.Handle("Schedule", func(ctx context.Context, call *listener.Call) (any, error) {
		var req Request
		if call.Args.Has("request") {
			if err := call.Args.Decode("request", &req); err != nil {
				return nil, &wire.RemoteError{Code: wire.CodeBadArgs, Msg: fmt.Sprintf("bad request: %v", err)}
			}
		} else {
			req = Request{
				Title:   call.Args.String("title"),
				FromDay: call.Args.String("from"),
				ToDay:   call.Args.String("to"),
				Must:    call.Args.Strings("must"),
			}
		}
		m, _, err := c.ScheduleOrQueue(ctx, req)
		if err != nil {
			return nil, err
		}
		return m, nil
	})

	// MeetingUpdate: the initiator pushes the authoritative meeting
	// record, as its typed arguments (recordArgs); it is read once, to
	// check it and to see whether it leaves this user a tentative link to
	// queue, and stored.
	obj.Handle("MeetingUpdate", func(ctx context.Context, call *listener.Call) (any, error) {
		m, err := meetingFromArgs(call.Args.Sub("rec"))
		if err != nil {
			return nil, err
		}
		if err := c.db.Unit(ctx, func(u *store.Tx) error { return c.acceptRecord(u, &m) }); err != nil {
			return nil, err
		}
		return true, nil
	})

	// SlotAvailable: a tentative participant's slot freed up — try to
	// confirm the meeting. With a token it is the participant's vote: its
	// slot is locked for the meeting under it, and an error declines it.
	obj.Handle("SlotAvailable", func(ctx context.Context, call *listener.Call) (any, error) {
		var vote *links.Vote
		if token := call.Args.String("token"); token != "" {
			vote = &links.Vote{
				Ref:   links.EntityRef{User: call.Args.String("user"), Entity: call.Args.String("targetEntity")},
				Token: token, NID: call.Args.String("nid"),
			}
		}
		m, err := c.tryConfirm(ctx, call.Args.String("meeting"), vote)
		if err != nil {
			return nil, err
		}
		return m.Status, nil
	})

	// ParticipantChange: a reserved must-attendee attempts to change
	// their slot. A confirmed meeting vetoes unilateral changes (§5:
	// "D would be unable to change the schedule of the meeting").
	obj.Handle("ParticipantChange", func(ctx context.Context, call *listener.Call) (any, error) {
		meetingID := call.Args.String("meeting")
		user := call.Args.String("user")
		m, ok := c.Meeting(meetingID)
		if !ok {
			return nil, &wire.RemoteError{Code: wire.CodeNoService, Msg: "unknown meeting"}
		}
		if m.Status == StatusConfirmed && (containsString(m.Must, user) || user == m.Initiator) {
			return nil, wire.Refuse(wire.ReasonNotAllowed, "calendar: %s is a must-attendee of confirmed meeting %s", user, meetingID)
		}
		return true, nil
	})

	// SupervisorChanged: a supervisor changed their schedule at will;
	// the meeting loses them and goes tentative until renegotiated
	// (§5's supervisor scenario).
	obj.Handle("SupervisorChanged", func(ctx context.Context, call *listener.Call) (any, error) {
		meetingID := call.Args.String("meeting")
		user := call.Args.String("user")
		// Mutate under the meeting's mark, release, then re-confirm
		// (TryConfirm takes the same mark).
		err := func() error {
			release, err := c.holdMeeting(ctx, meetingID, links.HoldStep)
			if err != nil {
				return err
			}
			defer release()
			m, ok := c.Meeting(meetingID)
			if !ok {
				return &wire.RemoteError{Code: wire.CodeNoService, Msg: "unknown meeting"}
			}
			if m.isReserved(user) {
				m.Reserved = removeString(m.Reserved, user)
			}
			if !containsString(m.Missing, user) {
				m.Missing = append(m.Missing, user)
			}
			m.Status = StatusTentative
			return c.publish(ctx, m, nil)
		}()
		if err != nil {
			return nil, err
		}
		// Immediately try to re-confirm (the supervisor may only
		// have moved within the same free window).
		if _, err := c.TryConfirm(ctx, meetingID); err != nil {
			return nil, err
		}
		return true, nil
	})

	// MeetingBumped: a participant's device reports its slot was
	// taken by a higher-priority meeting.
	obj.Handle("MeetingBumped", func(ctx context.Context, call *listener.Call) (any, error) {
		c.meetingBumpedLocally(ctx, call.Args.String("meeting"), call.Args.String("user"))
		return true, nil
	})

	// DropOut: a participant leaves the meeting.
	obj.Handle("DropOut", func(ctx context.Context, call *listener.Call) (any, error) {
		if err := c.dropParticipant(ctx, call.Args.String("meeting"), call.Args.String("user")); err != nil {
			return nil, err
		}
		return true, nil
	})

	// CancelMeeting: remote cancellation by the initiator or a
	// delegate (checked against the claimed caller identity; with
	// RequireAuth the listener substitutes the authenticated one). In
	// local mode the cancel is queued.
	obj.Handle("CancelMeeting", func(ctx context.Context, call *listener.Call) (any, error) {
		if _, err := c.cancelOrQueueAs(ctx, call.Args.String("meeting"), call.Caller); err != nil {
			return nil, err
		}
		return true, nil
	})

	return obj
}
