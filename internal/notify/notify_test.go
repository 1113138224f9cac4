package notify

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestMailboxDelivery(t *testing.T) {
	mb := NewMailbox()
	ctx := context.Background()
	msg := Message{To: []string{"phil", "andy"}, Subject: "Meeting M1 confirmed", Body: "2003-04-22 14:00"}
	if err := mb.Notify(ctx, msg); err != nil {
		t.Fatal(err)
	}
	if mb.Count("phil") != 1 || mb.Count("andy") != 1 || mb.Count("suzy") != 0 {
		t.Fatalf("counts = %d %d %d", mb.Count("phil"), mb.Count("andy"), mb.Count("suzy"))
	}
	if mb.Total() != 2 {
		t.Fatalf("total = %d", mb.Total())
	}
	in := mb.Inbox("phil")
	if len(in) != 1 || in[0].Subject != "Meeting M1 confirmed" {
		t.Fatalf("inbox = %+v", in)
	}
}

func TestMailboxTimestamps(t *testing.T) {
	mb := NewMailbox()
	before := time.Now()
	if err := mb.Notify(context.Background(), Message{To: []string{"phil"}, Subject: "s"}); err != nil {
		t.Fatal(err)
	}
	if got := mb.Inbox("phil")[0].Sent; got.Before(before) || got.After(time.Now()) {
		t.Fatalf("sent = %v, not between %v and now", got, before)
	}
}

func TestMessageRender(t *testing.T) {
	m := Message{
		To:      []string{"phil", "andy"},
		Subject: "Meeting cancelled",
		Body:    "The 14:00 meeting was cancelled.",
		Sent:    time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC),
	}
	got := m.Render()
	for _, want := range []string{"To: phil, andy\n", "Subject: Meeting cancelled\n", "Date: ", "cancelled.\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("render missing %q:\n%s", want, got)
		}
	}
}

func TestWriterNotifier(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Notify(context.Background(), Message{To: []string{"phil"}, Subject: "hello"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Subject: hello") {
		t.Fatalf("output = %q", buf.String())
	}
}
