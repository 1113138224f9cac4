// Package notify delivers meeting notifications, the paper's "e-mail
// message" (§5.1): an in-memory mailbox with an RFC-822-style rendering,
// so experiments can assert on deliveries, and a writer-backed notifier
// for the CLI binaries. There is no default notifier: a calendar without
// one builds no message at all.
package notify

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Message is one notification.
type Message struct {
	To      []string
	Subject string
	Body    string
	Sent    time.Time
}

// Render formats the message in a familiar e-mail shape.
func (m Message) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "To: %s\n", strings.Join(m.To, ", "))
	fmt.Fprintf(&b, "Subject: %s\n", m.Subject)
	if !m.Sent.IsZero() {
		fmt.Fprintf(&b, "Date: %s\n", m.Sent.Format(time.RFC1123Z))
	}
	b.WriteString("\n")
	b.WriteString(m.Body)
	if !strings.HasSuffix(m.Body, "\n") {
		b.WriteString("\n")
	}
	return b.String()
}

// Notifier delivers messages.
type Notifier interface {
	Notify(ctx context.Context, m Message) error
}

// Mailbox is an in-memory Notifier with per-recipient inboxes. Safe
// for concurrent use.
type Mailbox struct {
	mu    sync.Mutex
	boxes map[string][]Message
}

// NewMailbox creates an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{boxes: make(map[string][]Message)}
}

// Notify implements Notifier: the message is copied into every
// recipient's inbox.
func (mb *Mailbox) Notify(_ context.Context, m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	m.Sent = time.Now()
	for _, to := range m.To {
		mb.boxes[to] = append(mb.boxes[to], m)
	}
	return nil
}

// Count returns the number of messages delivered to user.
func (mb *Mailbox) Count(user string) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.boxes[user])
}

// Total returns the number of deliveries across all inboxes.
func (mb *Mailbox) Total() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := 0
	for _, box := range mb.boxes {
		n += len(box)
	}
	return n
}

// Writer is a Notifier that renders every message to an io.Writer
// (used by the CLI binaries to print notifications).
type Writer struct {
	mu sync.Mutex
	W  io.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{W: w} }

// Notify implements Notifier.
func (wn *Writer) Notify(_ context.Context, m Message) error {
	wn.mu.Lock()
	defer wn.mu.Unlock()
	_, err := io.WriteString(wn.W, m.Render()+"\n")
	return err
}
