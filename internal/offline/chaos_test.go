package offline_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/offline"
)

// TestChaosFlappingDeviceConvergence is the disconnected-operation
// chaos proof: three devices negotiate meetings while one of them
// (mob) repeatedly drops off the network, queues work locally, and
// reconnects. Run under -race. After the final reconnect:
//
//   - no acked local op is lost: every offline booking that was not
//     cancelled exists as a fully negotiated meeting,
//   - duplicate drains are absorbed: re-replaying captured ops changes
//     nothing,
//   - conflicting offline bookings converge through tentative-link
//     promotion rather than diverging.
func TestChaosFlappingDeviceConvergence(t *testing.T) {
	w := newWorld(t, "andy", "phil", "mob")
	ctx := context.Background()
	andy, phil, mob := w.cals["andy"], w.cals["phil"], w.cals["mob"]
	mobOff := w.nodes["mob"].Offline

	// A three-way meeting while everyone is online makes andy and phil
	// sync peers of mob: the relevance pull reaches known acquaintances
	// only.
	if _, err := mob.SetupMeeting(ctx, pinned("kickoff", "2003-04-22", 9, 1, "andy", "phil")); err != nil {
		t.Fatal(err)
	}

	// Concurrent reader: a display loop on mob's device keeps reading
	// local state through every partition and reconnect. Under -race
	// this guards the offline read path against sync mutations.
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stopReads:
				return
			default:
				_ = mob.Meetings()
				_ = mob.Slot(calendar.Slot{Day: "2003-06-01", Hour: 8})
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer func() { close(stopReads); <-readsDone }()

	type booking struct {
		id        string
		day       string
		hour      int
		withPhil  bool
		cancelled bool
	}
	var acked []booking
	var andyIDs []string
	var savedOps []offline.Op
	totalQueued := 0

	const cycles = 8
	for c := 0; c < cycles; c++ {
		// mob flaps off. Extra sub-second flapping on one peer link
		// runs concurrently with the queuing phase as chaos noise.
		w.cut("mob")
		mobOff.GoOffline(ctx)
		stopFlap := w.net.FlapPartition("mob", "node-phil", time.Millisecond)

		// andy keeps scheduling meetings that include the absent mob.
		am, err := andy.SetupMeeting(ctx, pinned(
			fmt.Sprintf("standup-%d", c), fmt.Sprintf("2003-07-%02d", c+1), 9, 1, "mob"))
		if err != nil {
			t.Fatal(err)
		}
		andyIDs = append(andyIDs, am.ID)

		// mob queues six bookings; every other one includes phil.
		day := fmt.Sprintf("2003-06-%02d", c+1)
		cycleStart := len(acked)
		for i := 0; i < 6; i++ {
			req := pinned(fmt.Sprintf("offline-%d-%d", c, i), day, 8+i, 1)
			withPhil := i%2 == 0
			if withPhil {
				req.Must = []string{"phil"}
			}
			m, queued, err := mob.ScheduleOrQueue(ctx, req)
			if err != nil || !queued {
				t.Fatalf("cycle %d op %d: queued=%v err=%v", c, i, queued, err)
			}
			acked = append(acked, booking{id: m.ID, day: day, hour: 8 + i, withPhil: withPhil})
		}
		// Cancel the last booking of this cycle before it ever syncs,
		// and from cycle 1 on also cancel a meeting confirmed during an
		// earlier reconnect — the replayed-cancel path.
		last := &acked[len(acked)-1]
		if queued, err := mob.CancelOrQueue(ctx, last.id); err != nil || !queued {
			t.Fatalf("cycle %d stub cancel: queued=%v err=%v", c, queued, err)
		}
		last.cancelled = true
		if c > 0 {
			victim := &acked[cycleStart-6] // first booking of the previous cycle
			if queued, err := mob.CancelOrQueue(ctx, victim.id); err != nil || !queued {
				t.Fatalf("cycle %d replay cancel: queued=%v err=%v", c, queued, err)
			}
			victim.cancelled = true
		}

		totalQueued += mobOff.Queue().Len()
		if c == cycles/2 {
			savedOps = append(savedOps, mobOff.Queue().Ops()...)
		}

		stopFlap()
		w.heal("mob")
		if err := mobOff.TryReconnect(ctx); err != nil {
			t.Fatalf("cycle %d reconnect: %v", c, err)
		}
		if got := mobOff.Queue().Len(); got != 0 {
			t.Fatalf("cycle %d: queue not drained, %d left", c, got)
		}
	}

	if totalQueued < 50 {
		t.Fatalf("chaos run queued %d ops, want >= 50", totalQueued)
	}

	// No acked op lost, no phantom bookings.
	for _, b := range acked {
		m, ok := mob.Meeting(b.id)
		if !ok {
			t.Fatalf("acked booking %s lost", b.id)
		}
		if b.cancelled {
			if m.Status != calendar.StatusCancelled {
				t.Fatalf("cancelled booking %s = %s", b.id, m.Status)
			}
			if info := phil.Slot(calendar.Slot{Day: b.day, Hour: b.hour}); info.Meeting == b.id {
				t.Fatalf("cancelled booking %s still holds phil's slot", b.id)
			}
			continue
		}
		if m.Status != calendar.StatusConfirmed || m.LinkID == "" {
			t.Fatalf("booking %s = %s link=%q, want confirmed with link", b.id, m.Status, m.LinkID)
		}
		if b.withPhil {
			if info := phil.Slot(calendar.Slot{Day: b.day, Hour: b.hour}); info.Meeting != b.id {
				t.Fatalf("phil's slot %s/%d = %+v, want %s", b.day, b.hour, info, b.id)
			}
		}
	}
	// Every meeting andy created while mob was away reached mob.
	for _, id := range andyIDs {
		if _, ok := mob.Meeting(id); !ok {
			t.Fatalf("andy's meeting %s never pulled to mob", id)
		}
	}

	// Duplicate drain: replaying the captured mid-run queue again must
	// change nothing (pinned ids + link markers make ops idempotent).
	before := map[string]string{}
	for _, b := range acked {
		m, _ := mob.Meeting(b.id)
		before[b.id] = m.Status + "/" + m.LinkID
	}
	for _, op := range savedOps {
		if err := mob.ReplayOp(ctx, op); err != nil {
			t.Fatalf("duplicate replay of %s: %v", op.ID, err)
		}
	}
	for _, b := range acked {
		m, _ := mob.Meeting(b.id)
		if got := m.Status + "/" + m.LinkID; got != before[b.id] {
			t.Fatalf("duplicate replay changed %s: %s -> %s", b.id, before[b.id], got)
		}
	}

	// Conflict convergence: phil books a slot online while mob is away;
	// mob books the same slot offline. The replayed negotiation finds
	// the slot taken and parks mob's meeting on a tentative link; when
	// phil's meeting is cancelled, promotion confirms mob's.
	pm, err := phil.SetupMeeting(ctx, pinned("phil-wins", "2003-07-20", 9, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.cut("mob")
	mobOff.GoOffline(ctx)
	cm, queued, err := mob.ScheduleOrQueue(ctx, pinned("mob-contends", "2003-07-20", 9, 1, "phil"))
	if err != nil || !queued {
		t.Fatalf("conflict booking: queued=%v err=%v", queued, err)
	}
	w.heal("mob")
	if err := mobOff.TryReconnect(ctx); err != nil {
		t.Fatal(err)
	}
	got, _ := mob.Meeting(cm.ID)
	if got.Status == calendar.StatusConfirmed {
		t.Fatalf("conflicting booking confirmed while phil holds the slot: %+v", got)
	}
	if err := phil.CancelMeeting(ctx, pm.ID); err != nil {
		t.Fatal(err)
	}
	got, _ = mob.Meeting(cm.ID)
	if got.Status != calendar.StatusConfirmed {
		t.Fatalf("conflict did not converge after cancel: %s", got.Status)
	}
	if info := phil.Slot(calendar.Slot{Day: "2003-07-20", Hour: 9}); info.Meeting != cm.ID {
		t.Fatalf("phil's contested slot = %+v, want %s", info, cm.ID)
	}
}
