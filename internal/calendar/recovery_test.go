package calendar_test

import (
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A reserved participant gets its slot, its back link and the meeting
// record from one Commit. These tests take that Commit away — its ack,
// the Commit itself, the lock it was marked under, the process that was
// marked — and hold every recovery path to the same three rows, once.

// loseFirstAck lets a node apply its first Commit and then reports the
// request lost, as a dropped response would look to the coordinator.
func loseFirstAck() func(transport.HandlerFunc) transport.HandlerFunc {
	var once sync.Once
	return func(next transport.HandlerFunc) transport.HandlerFunc {
		return func(ctx context.Context, req *transport.Request) transport.Response {
			resp := next(ctx, req)
			if req.Method == "Commit" && resp.OK {
				once.Do(func() { resp = transport.ErrorResponse(req, wire.CodeUnavailable, "injected: ack lost") })
			}
			return resp
		}
	}
}

// commitsLostTo makes a's Commits to user fail before they are sent.
// markTTL is how long a links mark outlives its negotiation.
const markTTL = 30 * time.Second

func commitsLostTo(w *world, user string) {
	w.nodes["a"].Links.SetCommitFault(func(_ string, ref links.EntityRef) error {
		if ref.User == user {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: commit lost"}
		}
		return nil
	})
}

func rawRecord(t *testing.T, w *world, user, id string) string {
	t.Helper()
	tab, err := w.nodes[user].DB.Table("cal_meetings")
	if err != nil {
		t.Fatal(err)
	}
	var text string
	tab.View(func(r store.Row) { text = recordText(t, r) }, id)
	return text
}

// recordText is json.Marshal of the record a meetings row holds: the
// text the row held while the record was stored as one JSON column.
func recordText(t *testing.T, row store.Row) string {
	t.Helper()
	m := calendar.MeetingOfRow(row)
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// wantInstalled holds user's device to the three things a Commit leaves:
// the slot, exactly one link row of the meeting, permanent, and record.
func wantInstalled(t *testing.T, w *world, user string, m *calendar.Meeting, record string) {
	t.Helper()
	if got := w.slotMeeting(user, m.Slot); got != m.ID {
		t.Errorf("%s slot = %q, want %s", user, got, m.ID)
	}
	all := w.linkRows(user)
	if len(all) != 1 || all[0].ID != m.LinkID || all[0].Subtype != links.Permanent {
		t.Errorf("%s link rows = %+v, want one permanent %s", user, all, m.LinkID)
	}
	if got := rawRecord(t, w, user, m.ID); got != record {
		t.Errorf("%s record = %s\nwant %s", user, got, record)
	}
}

// retryCommits runs a's journal sweep once the backoff has passed and
// wants the one pending row resolved.
func retryCommits(t *testing.T, w *world) {
	t.Helper()
	w.clk.Advance(time.Second)
	if n := w.nodes["a"].Links.RetryCommits(ctxBg(), w.clk.Now()); n != 1 {
		t.Fatalf("RetryCommits resolved %d rows, want 1", n)
	}
	if p := w.nodes["a"].Links.JournalPending(); len(p) != 0 {
		t.Fatalf("journal not retired: %v", p)
	}
}

// setupBC schedules a's meeting with b and c at day1 10:00.
func setupBC(t *testing.T, w *world) *calendar.Meeting {
	t.Helper()
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true, Must: []string{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// decidedRecord is the record b's and c's Commits carried: the meeting
// as decided, with both marked participants reserved.
func decidedRecord(t *testing.T, m *calendar.Meeting) string {
	return recordReserving(t, m, "a", "b", "c")
}

// recordReserving is m confirmed with reserved holding the slot, in the
// encoding the initiator stores.
func recordReserving(t *testing.T, m *calendar.Meeting, reserved ...string) string {
	t.Helper()
	d := *m
	d.Reserved, d.Missing, d.Status = reserved, nil, calendar.StatusConfirmed
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// confirmAndCompare re-runs the negotiation at the initiator and wants
// every device on the initiator's record.
func confirmAndCompare(t *testing.T, w *world, m *calendar.Meeting) {
	t.Helper()
	got, err := w.cals["a"].TryConfirm(ctxBg(), m.ID)
	if err != nil || got.Status != calendar.StatusConfirmed {
		t.Fatalf("TryConfirm: %v, %+v", err, got)
	}
	for _, u := range []string{"b", "c"} {
		wantInstalled(t, w, u, m, rawRecord(t, w, "a", m.ID))
	}
}

// setupOrGroup schedules a's meeting at day1 10:00 with c as a must and
// members as an or-group that wants them all, its links expiring in a
// day: b's Commit carries or-groups, which travel as JSON text inside the
// typed record, and the expiry beside it. A group of two or more is
// reserved in two phases, a group of one in one.
func setupOrGroup(t *testing.T, w *world, members ...string) *calendar.Meeting {
	t.Helper()
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review <q&a>", Day: day1, Hour: 10, PinSlot: true, Must: []string{"c"},
		OrGroups: []calendar.OrGroup{{Name: "g<&>", Members: members, K: len(members)}}, Expires: w.clk.Now().Add(24 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// setupPair schedules a's meeting at day1 10:00 with b and c as an
// or-group that wants both, so their reserve marks them both (each must
// is reserved on its own Check, in one phase, with no mark).
func setupPair(t *testing.T, w *world) *calendar.Meeting {
	t.Helper()
	return setupPairExpiring(t, w, time.Time{})
}

// setupPairExpiring is setupPair with the meeting's links expiring at
// expires (zero: never).
func setupPairExpiring(t *testing.T, w *world, expires time.Time) *calendar.Meeting {
	t.Helper()
	m, err := w.cals["a"].SetupMeeting(ctxBg(), calendar.Request{
		Title: "review", Day: day1, Hour: 10, PinSlot: true,
		OrGroups: []calendar.OrGroup{{Members: []string{"b", "c"}, K: 2}}, Expires: expires,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wantExpiry holds user's link of m to the expiry setupOrGroup and
// setupPairExpiring give it.
func wantExpiry(t *testing.T, w *world, user string, m *calendar.Meeting, setup time.Time) {
	t.Helper()
	if l, ok := w.cals[user].Links().GetLink(m.LinkID); !ok || !l.Expires.Equal(setup.Add(24*time.Hour)) {
		t.Errorf("%s link = %+v, want it to expire a day after setup", user, l)
	}
}

// TestLostCommitAckInstallsOnce: b applies its Commit, the ack is lost.
// The redriven Commit is acked as a duplicate, the tentative link the
// initiator queues at the unreserved b bounces off the row b already
// holds, and a later TryConfirm finds everything in place, b's record the
// initiator's byte for byte. b is a must, or an or-group's member with an
// expiry on the links.
func TestLostCommitAckInstallsOnce(t *testing.T) {
	t.Run("musts", func(t *testing.T) {
		w := newWorld(t, "a", "c")
		w.wrapNet = onRequests(loseFirstAck())
		w.addUser("b", 0)
		m := setupBC(t, w)
		if m.Status != calendar.StatusTentative || len(m.Missing) != 1 || m.Missing[0] != "b" {
			t.Fatalf("meeting = %+v, want tentative with b missing", m)
		}
		// b holds the initiator's corrective push: it is missing there.
		wantInstalled(t, w, "b", m, rawRecord(t, w, "a", m.ID))
		retryCommits(t, w)
		wantInstalled(t, w, "b", m, rawRecord(t, w, "a", m.ID))
		confirmAndCompare(t, w, m)
	})
	t.Run("or-group with expiry", func(t *testing.T) {
		w := newWorld(t, "a", "c")
		w.wrapNet = onRequests(loseFirstAck())
		w.addUser("b", 0)
		setup := w.clk.Now()
		m := setupOrGroup(t, w, "b")
		if m.Status != calendar.StatusTentative || m.Satisfied() {
			t.Fatalf("meeting = %+v, want tentative short of the or-group", m)
		}
		wantInstalled(t, w, "b", m, rawRecord(t, w, "a", m.ID))
		retryCommits(t, w)
		wantInstalled(t, w, "b", m, rawRecord(t, w, "a", m.ID))
		confirmAndCompare(t, w, m)
		wantExpiry(t, w, "b", m, setup)
	})
}

// TestSilentCoordinatorInstallsFromOutcome: the Commit never reaches b.
// b's own sweep asks a, hears "commit" with the journaled arguments, and
// installs slot, link (promoting the tentative row a queued) and record
// from them, the record the initiator decided byte for byte; a's late
// Commit is a duplicate. b holds a mark to ask about, so its reserve is
// two-phase: b is one of a pair that must both come (an or-group with
// k = 2), or one of such a pair beside a must, the links expiring or
// not; the link b promotes takes the expiry the Commit carried, as c's,
// installed by its Commit, does.
func TestSilentCoordinatorInstallsFromOutcome(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    func(*testing.T, *world) *calendar.Meeting
		reserved []string // as b's Commit decided it
		expiring bool
	}{
		{"musts", setupPair, []string{"a", "b", "c"}, false},
		{"musts with expiry", func(t *testing.T, w *world) *calendar.Meeting {
			return setupPairExpiring(t, w, w.clk.Now().Add(24*time.Hour))
		}, []string{"a", "b", "c"}, true},
		{"or-group with expiry", func(t *testing.T, w *world) *calendar.Meeting {
			return setupOrGroup(t, w, "b", "d")
		}, []string{"a", "c", "b", "d"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, "a", "b", "c", "d")
			commitsLostTo(w, "b")
			setup := w.clk.Now()
			m := tc.setup(t, w)
			if got := w.slotMeeting("b", m.Slot); got != "" {
				t.Fatalf("b slot = %q before any Commit", got)
			}
			if n := w.nodes["b"].Links.ResolvePendingMarks(ctxBg(), w.clk.Now()); n != 1 {
				t.Fatalf("resolved %d marks, want 1", n)
			}
			decided := recordReserving(t, m, tc.reserved...)
			wantInstalled(t, w, "b", m, decided)
			w.nodes["a"].Links.SetCommitFault(nil)
			retryCommits(t, w)
			wantInstalled(t, w, "b", m, decided)
			confirmAndCompare(t, w, m)
			if tc.expiring {
				for _, u := range []string{"b", "c"} {
					wantExpiry(t, w, u, m, setup)
				}
			}
		})
	}
}

// TestLateCommitInstallsAllOrNone: b's mark lapses (lock expired, not
// stolen) before the Commit arrives. The late commit re-checks the slot:
// still free, and slot, link and record all land; taken meanwhile, and
// none of them does. b and c are a pair that must both come, which is
// reserved in two phases.
func TestLateCommitInstallsAllOrNone(t *testing.T) {
	lateCommitInstallsAllOrNone(t, setupPair)
}

// TestLateCommitInstallsAllOrNoneOnePhase: the same delay when b and c
// are musts, reserved in one phase: b's Commit left and was lost, and the
// redriven one locks, checks and applies all or nothing.
func TestLateCommitInstallsAllOrNoneOnePhase(t *testing.T) {
	lateCommitInstallsAllOrNone(t, setupBC)
}

func lateCommitInstallsAllOrNone(t *testing.T, setup func(*testing.T, *world) *calendar.Meeting) {
	t.Run("all", func(t *testing.T) {
		w := newWorld(t, "a", "b", "c")
		commitsLostTo(w, "b")
		m := setup(t, w)
		w.clk.Advance(markTTL + time.Second)
		w.nodes["a"].Links.SetCommitFault(nil)
		retryCommits(t, w)
		wantInstalled(t, w, "b", m, decidedRecord(t, m))
	})
	t.Run("none", func(t *testing.T) {
		w := newWorld(t, "a", "b", "c")
		commitsLostTo(w, "b")
		m := setup(t, w)
		w.clk.Advance(markTTL + time.Second)
		if err := w.cals["b"].MarkBusy(m.Slot, "dentist", 0); err != nil {
			t.Fatal(err)
		}
		w.nodes["a"].Links.SetCommitFault(nil)
		retryCommits(t, w)
		if got := w.slotMeeting("b", m.Slot); got != "personal:dentist" {
			t.Errorf("b slot = %q, want the appointment", got)
		}
		// b still holds what the initiator sent an unreserved participant:
		// the tentative link and the record that lists it missing.
		all := w.linkRows("b")
		if len(all) != 1 || all[0].ID != m.LinkID || all[0].Subtype != links.Tentative {
			t.Errorf("b link rows = %+v, want one tentative %s", all, m.LinkID)
		}
		if got, want := rawRecord(t, w, "b", m.ID), rawRecord(t, w, "a", m.ID); got != want {
			t.Errorf("b record = %s\nwant %s", got, want)
		}
	})
}

// TestParticipantRestartBetweenMarkAndCommit: b restarts after granting
// its mark — lock table and pending marks are gone. The redriven Commit
// takes the late-commit path on the new process and installs all three.
// b and c are a pair that must both come, which is reserved in two
// phases.
func TestParticipantRestartBetweenMarkAndCommit(t *testing.T) {
	participantRestartBeforeCommit(t, setupPair)
}

// TestParticipantRestartBeforeOnePhaseCommit: b restarts while its
// one-phase Commit is lost; the redriven one locks, checks and applies on
// the new process and installs all three.
func TestParticipantRestartBeforeOnePhaseCommit(t *testing.T) {
	participantRestartBeforeCommit(t, setupBC)
}

func participantRestartBeforeCommit(t *testing.T, setup func(*testing.T, *world) *calendar.Meeting) {
	w := newWorld(t, "a", "b", "c")
	commitsLostTo(w, "b")
	m := setup(t, w)

	node := w.nodes["b"]
	lm2, err := links.NewManager("b", node.DB, node.Engine, w.clk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calendar.NewDetached("b", node.DB, lm2, node.Engine); err != nil {
		t.Fatal(err)
	}
	node.Listener.Register(links.ServiceFor("b"), lm2.Object())

	w.nodes["a"].Links.SetCommitFault(nil)
	retryCommits(t, w)
	if n := lm2.Locks.Len(); n != 0 {
		t.Fatalf("%d locks left at restarted b", n)
	}
	wantInstalled(t, w, "b", m, decidedRecord(t, m))
}

// beforeSend is a wrapNet that hands every request a node sends to
// before, before it leaves.
type beforeSend struct {
	transport.Network
	before func(req *transport.Request)
}

func (n beforeSend) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	n.before(req)
	return n.Network.Call(ctx, addr, req)
}

// TestPartitionedMustEndsMissingAndQueued: b is cut off from a while a
// reserves it, so b's one-phase Commit never leaves a, and the cut heals
// before a publishes the record. b ends as a refused Mark left it: a
// lists it missing, b queues its own tentative link on the record, and
// a owes nothing. Sweeps on every device after the heal change none of
// it: no Commit is left that could still apply at b.
func TestPartitionedMustEndsMissingAndQueued(t *testing.T) {
	w := newWorld(t)
	w.wrapNet = func(n transport.Network) transport.Network {
		return beforeSend{Network: n, before: func(req *transport.Request) {
			if req.Caller == "a" && req.Method == "MeetingUpdate" {
				w.net.Heal("a", "node-b")
			}
		}}
	}
	for _, u := range []string{"a", "b", "c"} {
		w.addUser(u, 0)
	}
	w.net.Partition("a", "node-b") // the sim keys a cut by caller and address
	m := setupBC(t, w)
	if m.Status != calendar.StatusTentative || !slices.Equal(m.Missing, []string{"b"}) {
		t.Fatalf("meeting = %+v, want tentative with b missing", m)
	}
	check := func(when string) {
		t.Helper()
		if got := w.slotMeeting("b", m.Slot); got != "" {
			t.Errorf("%s: b slot = %q, want it free", when, got)
		}
		all := w.linkRows("b")
		if len(all) != 1 || all[0].ID != m.LinkID || all[0].Subtype != links.Tentative {
			t.Errorf("%s: b link rows = %+v, want one tentative %s", when, all, m.LinkID)
		}
		if got, want := rawRecord(t, w, "b", m.ID), rawRecord(t, w, "a", m.ID); got != want {
			t.Errorf("%s: b record = %s\nwant the initiator's %s", when, got, want)
		}
		for u, n := range w.nodes {
			if l, p, j := n.Links.Locks.Len(), n.Links.PendingMarks(), n.Links.JournalPending(); l != 0 || p != 0 || len(j) != 0 {
				t.Errorf("%s: %s has %d locks, %d pending marks, journal %v", when, u, l, p, j)
			}
		}
	}
	check("after setup")
	for i := 0; i < 3; i++ {
		w.clk.Advance(time.Minute)
		for _, u := range []string{"a", "b", "c"} {
			w.nodes[u].Links.FaultSweep(ctxBg(), w.clk.Now())
		}
	}
	check("after the sweeps")
	if rec, _ := w.cals["a"].Meeting(m.ID); rec.Status != calendar.StatusTentative || !slices.Equal(rec.Missing, []string{"b"}) {
		t.Errorf("a's record after the sweeps = %+v, want b still missing", rec)
	}
}
