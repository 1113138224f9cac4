package calendar_test

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// A device's protocol step is one record on its write-ahead log, so a
// crash cuts its history between steps and never inside one. These
// tests crash devices at every such cut: by truncating a copy of the
// log after each record and recovering it with wal.Open, and by
// restarting a live device from nothing but a copy of its log.

// addDurable boots user on a write-ahead log under dir (no checkpoints:
// recovery is replay alone), replacing any node the world holds for it.
func (w *world) addDurable(user, dir string) {
	w.t.Helper()
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{
		User: user, Net: w.network(user), DirAddr: "dir", Clock: w.clk,
		DataDir: dir, WALSync: wal.SyncNone,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = n.Close(context.Background()) })
	c, err := calendar.New(ctx, n, calendar.WithNotifier(w.mail))
	if err != nil {
		w.t.Fatal(err)
	}
	w.cals[user], w.nodes[user] = c, n
}

// crashAndRestart takes user's device down as a power cut would: the
// node that comes back has a copy of the log as it stood, and nothing
// the old process kept in memory or wrote while shutting down.
func (w *world) crashAndRestart(user, dir string) string {
	w.t.Helper()
	survived := copyLog(w.t, dir)
	if err := w.nodes[user].Close(context.Background()); err != nil {
		w.t.Fatal(err)
	}
	w.addDurable(user, survived)
	return survived
}

// copyLog copies the log segments of dir (not its checkpoints) into a
// new directory.
func copyLog(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments under %s (%v)", dir, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// recordEnds returns the offset at which each record of a log segment
// ends: [4B length][4B CRC][payload] frames, back to back.
func recordEnds(t *testing.T, log []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(log); {
		if off+8 > len(log) {
			t.Fatalf("log ends inside a frame header at %d", off)
		}
		off += 8 + int(binary.BigEndian.Uint32(log[off:]))
		ends = append(ends, off)
	}
	return ends
}

// recovered is what a device holds of one meeting after recovery.
type recovered struct {
	slot, link bool
	record     string // "", or the record's status
	decided    int    // decided tokens on record
	journal    int    // journal rows
}

func recoverAt(t *testing.T, log []byte, cut int, m *calendar.Meeting) recovered {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), log[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("recovery of the log cut at %d: %v", cut, err)
	}
	defer d.Close()
	if st := d.Stats(); st.TornTail {
		t.Fatalf("log cut at record boundary %d recovered with a torn tail", cut)
	}
	table := func(name string) *store.Table {
		tab, err := d.DB.Table(name)
		if err != nil {
			return nil // its DDL record is past the cut
		}
		return tab
	}
	var got recovered
	if tab := table("cal_slots"); tab != nil {
		tab.View(func(r store.Row) { got.slot = r.Str("meeting") == m.ID }, m.Slot.Day, int64(m.Slot.Hour))
	}
	if tab := table(links.LinkTable); tab != nil {
		got.link = tab.Has(m.LinkID)
	}
	if tab := table("cal_meetings"); tab != nil {
		tab.View(func(r store.Row) { got.record = r.Str("status") }, m.ID)
	}
	if tab := table(links.NegotiationDecided); tab != nil {
		got.decided = tab.Count()
	}
	if tab := table(links.NegotiationJournal); tab != nil {
		got.journal = tab.Count()
	}
	return got
}

// TestCrashAtEveryLogRecord: schedule and cancel a meeting on durable
// devices, then recover each device from its log cut after every
// record. Whatever the cut, a participant holds slot, back link, record
// and decided token all together or not at all, and once cancelled has
// lost link row and slot and has the record cancelled, all together;
// the initiator holds forward link and record together and gives up
// link row, slot and record together.
func TestCrashAtEveryLogRecord(t *testing.T) {
	w := newWorld(t)
	dirs := map[string]string{}
	for _, u := range []string{"a", "b", "c", "d"} {
		dirs[u] = t.TempDir()
		w.addDurable(u, dirs[u])
	}
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Supervisors: []string{"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}

	for u, dir := range dirs {
		log, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		var history []recovered
		for _, cut := range append([]int{0}, recordEnds(t, log)...) {
			got := recoverAt(t, log, cut, m)
			if len(history) == 0 || history[len(history)-1] != got {
				history = append(history, got)
			}
		}
		var want []recovered
		if u == "a" {
			want = []recovered{
				{},
				{slot: true},             // own slot
				{slot: true, journal: 1}, // COMMIT decided for b, c and d
				{slot: true},             // all three acknowledged, decision retired
				{slot: true, link: true, record: calendar.StatusConfirmed},
				{record: calendar.StatusCancelled, journal: 1}, // the cascade owed to b, c and d
				{record: calendar.StatusCancelled},             // all three answered, row retired
			}
		} else {
			want = []recovered{
				{},
				{slot: true, link: true, record: calendar.StatusConfirmed, decided: 1},
				{record: calendar.StatusCancelled, decided: 1},
			}
		}
		if len(history) != len(want) {
			t.Fatalf("%s recovers through %d distinct states, want %d:\n got %+v\nwant %+v", u, len(history), len(want), history, want)
		}
		for i := range want {
			if history[i] != want[i] {
				t.Errorf("%s state %d = %+v, want %+v", u, i, history[i], want[i])
			}
		}
	}
}

// TestRedeliveryAfterCrashConverges: b crashes without having seen its
// Commit, and again without having seen the cancel cascade; each time it
// comes back from its log alone and the initiator's outbox sweep (a
// commit row, then a delete row) brings it level. After the cancel every
// device holds the rows of testdata/cancel.golden, as if nothing had been
// lost.
func TestRedeliveryAfterCrashConverges(t *testing.T) {
	w := newWorld(t, "a", "c", "d")
	dir := t.TempDir()
	w.addDurable("b", dir)

	commitsLostTo(w, "b")
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Supervisors: []string{"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != calendar.StatusTentative {
		t.Fatalf("status with b's Commit lost = %s", m.Status)
	}
	dir = w.crashAndRestart("b", dir)
	if got := w.slotMeeting("b", m.Slot); got != "" {
		t.Fatalf("b slot after a restart without its Commit = %q", got)
	}
	w.nodes["a"].Links.SetCommitFault(nil)
	retryCommits(t, w)
	if got, ok := w.nodes["b"].Links.GetLink(m.LinkID); !ok || got.Subtype != links.Permanent || w.slotMeeting("b", m.Slot) != m.ID {
		t.Fatalf("b after the redriven Commit: link %+v, slot %q", got, w.slotMeeting("b", m.Slot))
	}
	if got, err := w.cals["a"].TryConfirm(ctxBg(), m.ID); err != nil || got.Status != calendar.StatusConfirmed {
		t.Fatalf("TryConfirm: %v, %+v", err, got)
	}
	for _, u := range []string{"b", "c", "d"} {
		if got, want := rawRecord(t, w, u, m.ID), rawRecord(t, w, "a", m.ID); got != want {
			t.Errorf("%s record = %s\nwant the initiator's %s", u, got, want)
		}
	}

	// The cancel reaches c and d; b is down and is still owed it.
	survived := copyLog(t, dir)
	if err := w.nodes["b"].Close(ctxBg()); err != nil {
		t.Fatal(err)
	}
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatal(err)
	}
	wantOwed(t, w, links.Owed{Kind: "delete", ID: m.LinkID, Peers: []string{"b"}})
	w.addDurable("b", survived)
	if got := w.slotMeeting("b", m.Slot); got != m.ID {
		t.Fatalf("b slot after a restart without the cascade = %q", got)
	}
	if n := sweep(w); n != 1 {
		t.Fatalf("the sweep resolved %d rows, want 1", n)
	}
	wantOwed(t, w)
	wantState(t, "cancel", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d"))
}

// wantOwed holds what a's outbox owes to want, in id order.
func wantOwed(t *testing.T, w *world, want ...links.Owed) {
	t.Helper()
	if got := w.nodes["a"].Links.JournalPending(); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
		t.Fatalf("a owes %+v, want %+v", got, want)
	}
}

// sweep runs a's outbox sweep once every row it holds is due, and returns
// the rows it resolved.
func sweep(w *world) int {
	w.clk.Advance(time.Minute)
	return w.nodes["a"].Links.RetryCommits(ctxBg(), w.clk.Now())
}

// crashAtFirst is the network of a device that loses power as its first
// request for method leaves: the log it recovers from is the one copied
// then, and nothing it sends from then on arrives.
type crashAtFirst struct {
	transport.Network
	method string
	crash  func()
	down   *atomic.Bool
}

func (n crashAtFirst) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	if req.Method == n.method && n.down.CompareAndSwap(false, true) {
		n.crash()
	}
	if n.down.Load() {
		return nil, transport.ErrUnreachable
	}
	return n.Network.Call(ctx, addr, req)
}

// TestCancelCascadeSurvivesInitiatorCrash: the initiator loses power
// between the cancel's unit and its first DeleteLink. The unit that took
// the forward link out also wrote the delete row owed to b, c and d, so
// the restarted initiator's first sweep delivers the cascade and every
// device holds the rows of testdata/cancel.golden.
func TestCancelCascadeSurvivesInitiatorCrash(t *testing.T) {
	w := newWorld(t, "b", "c", "d")
	dir, survived := t.TempDir(), ""
	var down atomic.Bool
	w.wrapNet = func(n transport.Network) transport.Network {
		return crashAtFirst{Network: n, method: "DeleteLink", down: &down,
			crash: func() { survived = copyLog(t, dir) }}
	}
	w.addDurable("a", dir)
	w.wrapNet = nil
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Supervisors: []string{"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.cals["a"].CancelMeeting(ctxBg(), m.ID) // the power goes mid-cancel
	if survived == "" {
		t.Fatal("the cancel sent no DeleteLink")
	}
	if err := w.nodes["a"].Close(ctxBg()); err != nil {
		t.Fatal(err)
	}
	w.addDurable("a", survived)
	wantOwed(t, w, links.Owed{Kind: "delete", ID: m.LinkID, Peers: []string{"b", "c", "d"}})
	if n := sweep(w); n != 1 {
		t.Fatalf("the sweep resolved %d rows, want 1", n)
	}
	wantOwed(t, w)
	wantState(t, "cancel", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d"))
}

// answerLost is a network on which the answer to method from addr does
// not come back while on is set: the request is delivered and handled, and
// the caller waits out its deadline. (sim.PartitionOneWay cannot say this:
// it refuses the request, and what it refuses was never handled.)
type answerLost struct {
	transport.Network
	addr, method string
	on           *atomic.Bool
}

func (n answerLost) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := n.Network.Call(ctx, addr, req)
	if n.on.Load() && addr == n.addr && req.Method == n.method {
		return nil, context.DeadlineExceeded
	}
	return resp, err
}

// TestCascadeAnswerLostIsRetried: the cancel cascade reaches b and b's
// answer is lost. The cancel stands, b stays owed the deletion like a
// participant that was out of reach, the sweep keeps the row for as long
// as answers are lost and retires it with the first one that arrives (the
// deletion it re-sends finds nothing left to do), and every device holds
// the rows of testdata/cancel.golden.
func TestCascadeAnswerLostIsRetried(t *testing.T) {
	w := newWorld(t, "b", "c", "d")
	var lost atomic.Bool
	w.wrapNet = func(n transport.Network) transport.Network {
		return answerLost{Network: n, addr: "node-b", method: "DeleteLink", on: &lost}
	}
	w.addUser("a", 0)
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"}, Supervisors: []string{"d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lost.Store(true)
	if err := w.cals["a"].CancelMeeting(ctxBg(), m.ID); err != nil {
		t.Fatalf("cancel with b's answer lost: %v", err)
	}
	owedB := links.Owed{Kind: "delete", ID: m.LinkID, Peers: []string{"b"}}
	wantOwed(t, w, owedB)
	if n := sweep(w); n != 0 {
		t.Fatalf("the sweep resolved %d rows with the answer still lost", n)
	}
	wantOwed(t, w, owedB)
	lost.Store(false)
	if n := sweep(w); n != 1 {
		t.Fatalf("the sweep resolved %d rows, want 1", n)
	}
	wantOwed(t, w)
	wantState(t, "cancel", deviceState(t, w, meetingIDs(m), "a", "b", "c", "d"))
}
