package calendar_test

import (
	"strings"
	"testing"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/wire"
)

// invoke is a helper that calls a calendar service method from another
// user's engine.
func invoke(w *world, caller, target, method string, args wire.Args, out any) error {
	return w.nodes[caller].Engine.Invoke(ctxBg(), calendar.ServiceFor(target), method, args, out)
}

func TestServiceGetFreeSlotsAndSlotInfo(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	if err := w.cals["phil"].MarkBusy(slot(day1, 9), "x", 3); err != nil {
		t.Fatal(err)
	}
	free := func(hours []int) []calendar.Slot {
		t.Helper()
		win, err := calendar.NewWindow(day1, day1, hours)
		if err != nil {
			t.Fatal(err)
		}
		avail, errs := calendar.QueryAvailability(ctxBg(), w.nodes["andy"].Engine, win, []string{"phil"})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return avail[0].Slots()
	}
	if slots := free(nil); len(slots) != len(calendar.DefaultHours)-1 {
		t.Fatalf("slots = %d", len(slots))
	}
	// Restricted hours.
	if slots := free([]int{10, 9}); len(slots) != 1 || slots[0].Hour != 10 {
		t.Fatalf("restricted slots = %v", slots)
	}
	// The reply is the availability's words and nothing else: eight free
	// hours of nine, hour 9 (bit 0) taken.
	var words []uint64
	if err := invoke(w, "andy", "phil", "GetFreeSlots", wire.Args{wire.Str("from", day1), wire.Str("to", day1)}, &words); err != nil {
		t.Fatal(err)
	}
	if len(words) != 1 || words[0] != 0b111111110 {
		t.Fatalf("reply words = %b", words)
	}
	var info calendar.SlotInfo
	if err := invoke(w, "andy", "phil", "SlotInfo", wire.Args{wire.Str("day", day1), wire.Int("hour", 9)}, &info); err != nil {
		t.Fatal(err)
	}
	if info.Meeting != "personal:x" || info.Priority != 3 {
		t.Fatalf("info = %+v", info)
	}
	// Bad slot args.
	err := invoke(w, "andy", "phil", "SlotInfo", wire.Args{wire.Str("day", "garbage"), wire.Int("hour", 9)}, nil)
	if wire.CodeOf(err) != wire.CodeBadArgs {
		t.Fatalf("bad slot: %v", err)
	}
}

func TestServiceScheduleRemote(t *testing.T) {
	w := newWorld(t, "phil", "andy", "suzy")
	var m calendar.Meeting
	err := invoke(w, "suzy", "phil", "Schedule", wire.Args{
		wire.Str("title", "remote"),
		wire.Str("from", day1),
		wire.Str("to", day1),
		wire.Strs("must", []string{"andy"}),
	}, &m)
	if err != nil {
		t.Fatal(err)
	}
	// The meeting is initiated by the node's owner, not the caller.
	if m.Initiator != "phil" || m.Status != calendar.StatusConfirmed {
		t.Fatalf("m = %+v", m)
	}
	if got := w.slotMeeting("andy", m.Slot); got != m.ID {
		t.Fatalf("andy slot = %q", got)
	}
	// Structured request form with priority.
	err = invoke(w, "suzy", "phil", "Schedule", wire.Args{
		wire.Sub("request", wire.Args{
			wire.Str("title", "structured"),
			wire.Str("day", day1),
			wire.Int("hour", 16),
			wire.Bool("pinSlot", true),
			wire.Strs("must", []string{"suzy"}),
			wire.Int("priority", 5),
		}),
	}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Priority != 5 || m.Slot.Hour != 16 {
		t.Fatalf("structured m = %+v", m)
	}
}

func TestServiceGetMeetingAndUpdateValidation(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	m, err := w.cals["phil"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"andy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got calendar.Meeting
	if err := invoke(w, "andy", "phil", "GetMeeting", wire.Args{wire.Str("meeting", m.ID)}, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Title != "m" {
		t.Fatalf("got = %+v", got)
	}
	err = invoke(w, "andy", "phil", "GetMeeting", wire.Args{wire.Str("meeting", "nope")}, nil)
	if wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("unknown meeting: %v", err)
	}
	// MeetingUpdate rejects garbage: no record, a record that is no
	// argument list, a record with no id, or-groups that do not decode.
	for _, bad := range []wire.Args{
		nil,
		{wire.Str("rec", "not-a-list")},
		{wire.Sub("rec", wire.Args{wire.Str("title", "no id")})},
		{wire.Sub("rec", wire.Args{wire.Str("id", "M-y"), wire.Raw("orGroups", []byte(`{"k":1}`))})},
	} {
		if err := invoke(w, "andy", "phil", "MeetingUpdate", bad, nil); wire.CodeOf(err) != wire.CodeBadArgs {
			t.Fatalf("update %v: %v, want bad-args", bad, err)
		}
	}
	// A reservation whose record has no id is refused the same way and
	// leaves the slot as it was.
	err = w.nodes["andy"].Engine.Invoke(ctxBg(), links.ServiceFor("phil"), "Apply", wire.Args{
		wire.Str("entity", slot(day1, 11).Entity()), wire.Str("action", calendar.ActionReserve),
		wire.Sub("args", wire.Args{wire.Str("meeting", "M-y"), wire.Sub("rec", wire.Args{wire.Str("title", "no id")})}),
	}, nil)
	if wire.CodeOf(err) != wire.CodeBadArgs || w.slotMeeting("phil", slot(day1, 11)) != "" {
		t.Fatalf("reserve with a record of no id: %v, slot %q; want bad-args and the slot free", err, w.slotMeeting("phil", slot(day1, 11)))
	}
	// ... and stores the record it was sent, in the stored encoding.
	sent := calendar.Meeting{ID: "M-x", Title: "sent", Initiator: "andy", Slot: slot("2003-04-22", 9), Status: calendar.StatusTentative}
	if err := invoke(w, "andy", "phil", "MeetingUpdate", wire.Args{wire.Sub("rec", calendar.RecordArgs(&sent))}, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := rawRecord(t, w, "phil", "M-x"), `{"id":"M-x","title":"sent","initiator":"andy","slot":{"day":"2003-04-22","hour":9},"status":"tentative","priority":0}`; got != want {
		t.Fatalf("stored update = %s, want %s", got, want)
	}
}

func TestServiceNotificationContents(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	m, err := w.cals["phil"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "design review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"andy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox := w.mail.inbox("andy")
	if len(inbox) != 1 {
		t.Fatalf("inbox = %d", len(inbox))
	}
	msg := inbox[0]
	for _, want := range []string{m.ID, "design review", "confirmed"} {
		if !containsSub(msg.Subject, want) && !containsSub(msg.Body, want) {
			t.Fatalf("notification missing %q: subject=%q body=%q", want, msg.Subject, msg.Body)
		}
	}
	if err := w.cals["phil"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	inbox = w.mail.inbox("andy")
	if len(inbox) != 2 || !containsSub(inbox[1].Subject, "cancelled") {
		t.Fatalf("cancel notification: %+v", inbox)
	}
}

func containsSub(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
