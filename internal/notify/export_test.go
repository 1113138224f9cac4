package notify

// Inbox returns a copy of the recipient's inbox in delivery order.
func (mb *Mailbox) Inbox(user string) []Message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return append([]Message(nil), mb.boxes[user]...)
}
