package offline_test

import (
	"context"
	"testing"

	"repro/internal/metrics"
	"repro/internal/offline"
)

// TestReconnectPullRecoversMissedMeetings: while mob is cut off, andy
// schedules three meetings with it, and each MeetingUpdate push to mob
// fails. Nothing queues them for mob; the reconnect session's pull
// alone brings all three back.
func TestReconnectPullRecoversMissedMeetings(t *testing.T) {
	w := newWorld(t, "andy", "mob")
	ctx := context.Background()
	andy, mob := w.cals["andy"], w.cals["mob"]

	// A shared meeting while both are online makes andy a sync peer of
	// mob.
	if _, err := andy.SetupMeeting(ctx, pinned("kickoff", "2003-04-22", 9, 1, "mob")); err != nil {
		t.Fatal(err)
	}

	w.cut("mob")
	w.nodes["mob"].Offline.GoOffline(ctx)
	days := []string{"2003-04-23", "2003-04-24", "2003-04-25"}
	ids := make([]string, len(days))
	for i, d := range days {
		m, err := andy.SetupMeeting(ctx, pinned("sync", d, 10, 1, "mob"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := mob.Meeting(m.ID); ok {
			t.Fatalf("meeting %s reached mob through the partition", m.ID)
		}
		ids[i] = m.ID
	}

	w.heal("mob")
	if err := w.nodes["mob"].Offline.TryReconnect(ctx); err != nil {
		t.Fatalf("TryReconnect: %v", err)
	}
	for _, id := range ids {
		if _, ok := mob.Meeting(id); !ok {
			t.Fatalf("meeting %s missing at mob after reconnect", id)
		}
	}
	if info, err := w.dir.LookupUser(ctx, "mob"); err != nil || !info.Online {
		t.Fatalf("mob after reconnect = %+v, %v; want online", info, err)
	}
	if e := w.met.Snapshot().Find(metrics.LayerSync, offline.ServiceFor("mob"), "Pull", ""); e == nil || e.Count != 1 {
		t.Fatalf("Pull metric = %+v, want count 1", e)
	}
}
