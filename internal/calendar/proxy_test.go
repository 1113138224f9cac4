package calendar_test

import (
	"testing"

	"repro/internal/calendar"
	"repro/internal/notify"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// startProxy adds a calendar-aware proxy host to the world.
func (w *world) startProxy(id string) *proxy.Host {
	w.t.Helper()
	h, err := proxy.StartHost(ctxBg(), proxy.HostConfig{
		ID: id, Net: w.net, DirAddr: "dir",
		Adopter: calendar.NewProxyAdopter(w.net, "dir", notify.Discard{}),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return h
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	w := newWorld(t, "phil", "andy")
	c := w.cals["phil"]
	if err := c.MarkBusy(slot(day1, 9), "x", 3); err != nil {
		t.Fatal(err)
	}
	m, err := c.SetupMeeting(ctxBg(), calendar.Request{
		Title: "m", Day: day1, Hour: 10, PinSlot: true, Must: []string{"andy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Wipe the slot, then restore: state comes back.
	if err := c.ReleaseSlot(ctxBg(), slot(day1, 9)); err != nil {
		t.Fatal(err)
	}
	if c.Slot(slot(day1, 9)).Meeting != "" {
		t.Fatal("precondition failed")
	}
	if err := c.Restore(ctxBg(), snap); err != nil {
		t.Fatal(err)
	}
	if got := c.Slot(slot(day1, 9)).Meeting; got != "personal:x" {
		t.Fatalf("slot = %q", got)
	}
	if got := c.Slot(m.Slot).Meeting; got != m.ID {
		t.Fatalf("meeting slot = %q", got)
	}
	if _, ok := c.Meeting(m.ID); !ok {
		t.Fatal("meeting record lost")
	}
	if _, ok := c.Links().GetLink(m.LinkID); !ok {
		t.Fatal("link row lost")
	}
}

// TestMeetingWithProxiedParticipant: a user goes offline behind a
// proxy; a new meeting is still negotiated with the proxy holding
// their calendar, and the reservation survives the handback.
func TestMeetingWithProxiedParticipant(t *testing.T) {
	w := newWorld(t, "a")
	w.startProxy("p1")
	// b registers after the proxy so it gets assigned.
	w.addUser("b", 0)

	b := w.cals["b"]
	if err := b.MarkBusy(slot(day1, 9), "gym", 0); err != nil {
		t.Fatal(err)
	}
	// b disconnects deliberately.
	bNode := w.nodes["b"]
	if err := b.GoOffline(ctxBg(), w.net, bNode.Dir); err != nil {
		t.Fatal(err)
	}
	w.net.SetDown(bNode.Addr(), true)

	// a sets up a meeting with b: the proxy negotiates for b. The
	// 9:00 slot is busy in the proxied state, so the search must pick
	// 10:00.
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "with-proxied", FromDay: day1, ToDay: day1, Must: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusConfirmed {
		t.Fatalf("status = %s missing=%v", m.Status, m.Missing)
	}
	if m.Slot.Hour == 9 {
		t.Fatal("proxy ignored b's busy slot")
	}

	// b returns and pulls the proxied state: the meeting reservation
	// made through the proxy is now on the device.
	w.net.SetDown(bNode.Addr(), false)
	if err := b.ComeBack(ctxBg(), w.net, bNode.Dir); err != nil {
		t.Fatal(err)
	}
	if got := b.Slot(m.Slot).Meeting; got != m.ID {
		t.Fatalf("b slot after comeback = %q", got)
	}
	if got := b.Slot(slot(day1, 9)).Meeting; got != "personal:gym" {
		t.Fatalf("b gym slot = %q", got)
	}
	// And the device answers directly again.
	var info calendar.SlotInfo
	err = w.cals["a"].Engine().Invoke(ctxBg(), calendar.ServiceFor("b"), "SlotInfo",
		wire.Args{"day": m.Slot.Day, "hour": m.Slot.Hour}, &info)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meeting != m.ID {
		t.Fatalf("direct SlotInfo = %+v", info)
	}
}
