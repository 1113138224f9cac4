package calendar_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/calendar"
)

// TestNoticeText pins the §5.1 e-mail of each kind of notice, byte for
// byte as a notify.Writer prints it (Message.Render): a schedule, a bump,
// the confirm that follows the bumper's cancel, the cancel, a move and a
// dropout. a initiates "low" and x "high", each with b as a must.
func TestNoticeText(t *testing.T) {
	w := newWorld(t, "a", "b", "x")
	low, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "low", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := w.cals["x"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "high", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b"}, Priority: 9, AllowBump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cals["x"].CancelMeeting(ctxBg(), high.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].ChangeMeetingSlot(ctxBg(), low.ID, slot(day1, 14)); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["b"].DropOut(ctxBg(), low.ID); err != nil {
		t.Fatal(err)
	}

	mail := func(id, subject, body string) string {
		to := "a, b"
		if id == high.ID {
			to = "x, b"
		}
		return "To: " + to + "\nSubject: Meeting " + id + " " + subject + "\n\n" + body + "\n"
	}
	want := map[string][]string{
		"a": {
			mail(low.ID, "(low) confirmed", "low at 2003-04-22 10:00, initiated by a."),
			mail(low.ID, "(low) bumped", "b was bumped off 2003-04-22 10:00 by a higher-priority meeting; low is now tentative."),
			mail(low.ID, "(low) confirmed", "low at 2003-04-22 10:00 is now confirmed."),
			mail(low.ID, "(low) moved", "low moved from 2003-04-22 10:00 to 2003-04-22 14:00."),
			mail(low.ID, "(low) now tentative", "b dropped out of low at 2003-04-22 14:00."),
		},
		"x": {
			mail(high.ID, "(high) confirmed", "high at 2003-04-22 10:00, initiated by x."),
			mail(high.ID, "(high) cancelled", "high at 2003-04-22 10:00 was cancelled by x."),
		},
	}
	for user, want := range want {
		var got []string
		for _, m := range w.mail.inbox(user) {
			got = append(got, m.Render())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s's inbox:\n%s\nwant:\n%s", user, strings.Join(got, "--\n"), strings.Join(want, "--\n"))
		}
	}
}
