package calendar_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/replication"
	"repro/internal/wire"
)

// A stand-in serves a user's calendar while the user's device is away:
// "a proxy takes over the place of A. Once A comes back up, A takes over
// the proxy. The proxy and the SyD object act as a single entity for an
// outsider" (paper §5.2). Each row of standIns is one implementation;
// TestMeetingWithProxiedParticipant holds every row to the same
// black-box behaviour.
type standIn struct {
	name string
	// device boots user's device so that a stand-in can take its place,
	// and returns the two handoffs. away hands user over to the stand-in
	// and takes the device off the network. back hands user back to the
	// device and ends the stand-in; the world's calendar for user is the
	// device's afterwards.
	device func(w *world, user string) (away, back func())
}

var standIns = []standIn{{name: "follower", device: followerDevice}}

// followerDevice boots user's device durable and leased, with a
// replication follower of it as the stand-in. A handoff is the holder's
// Release, the successor's PromoteNow and the holder's Close; on the way
// back the device's own data dir follows the stand-in first, resuming
// from the device's last LSN.
func followerDevice(w *world, user string) (away, back func()) {
	ctx := ctxBg()
	const ttl = time.Hour
	deviceDir, standInDir := w.t.TempDir(), w.t.TempDir()
	if _, err := w.startUser(core.Config{User: user, DataDir: deviceDir, LeaseTTL: ttl, ListenAddr: "node-" + user}); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { _ = w.nodes[user].Close(ctx) })
	// follow starts a follower of user over dir, listening at addr; it
	// promotes into a calendar node at the same address.
	follow := func(dir, addr string) *replication.Follower {
		f, err := replication.StartFollower(ctx, replication.FollowerConfig{
			User: user, Net: w.net, Dir: directory.NewClient(w.net, "dir"), Clock: w.clk,
			DataDir: dir, ListenAddr: addr, LeaseTTL: ttl,
			Promote: func(ctx context.Context, holder string) (string, error) {
				if _, err := w.startUser(core.Config{User: user, DataDir: dir, LeaseTTL: ttl, LeaseHolder: holder, ListenAddr: addr}); err != nil {
					return "", err
				}
				return w.nodes[user].Addr(), nil
			},
		})
		if err != nil {
			w.t.Fatal(err)
		}
		return f
	}
	standIn := follow(standInDir, "standin-"+user)
	handOff := func(holder *core.Node, successor *replication.Follower) {
		if err := holder.Repl.Release(ctx); err != nil {
			w.t.Fatal(err)
		}
		if err := successor.PromoteNow(ctx); err != nil {
			w.t.Fatal(err)
		}
		if err := holder.Close(ctx); err != nil {
			w.t.Fatal(err)
		}
		if info, err := holder.Dir.LookupUser(ctx, user); err != nil || !info.Online || info.Addr != w.nodes[user].Addr() {
			w.t.Fatalf("after the handoff the directory has %s as %+v, %v; want online at %s", user, info, err, w.nodes[user].Addr())
		}
	}
	away = func() { handOff(w.nodes[user], standIn) }
	back = func() { handOff(w.nodes[user], follow(deviceDir, "node-"+user)) }
	return away, back
}

// TestMeetingWithProxiedParticipant: while b's device is away,
//   - outsider: a's first call on a warm route reaches b's stand-in,
//     and a meeting negotiated with b honours b's busy slot;
//   - offline queue: an op that c queued for b while c was partitioned
//     drains against the stand-in when c reconnects;
//   - writes come back: after handback b's device holds both meetings
//     made at the stand-in, its own busy slot unchanged, and answers a
//     directly again.
func TestMeetingWithProxiedParticipant(t *testing.T) {
	for _, row := range standIns {
		t.Run(row.name, func(t *testing.T) {
			ctx := ctxBg()
			w := newWorld(t)
			w.routeTTL = time.Hour // every node caches routes
			w.addUser("a", 0)
			cCal, err := w.startUser(core.Config{User: "c", OfflineQueueCap: 1024})
			if err != nil {
				t.Fatal(err)
			}
			cCal.EnableSync(w.nodes["c"].Offline)
			away, back := row.device(w, "b")

			gym := slot(day1, 9)
			if err := w.cals["b"].MarkBusy(gym, "gym", 0); err != nil {
				t.Fatal(err)
			}
			slotInfo := func(s calendar.Slot) (calendar.SlotInfo, error) {
				var info calendar.SlotInfo
				err := w.nodes["a"].Engine.Invoke(ctx, calendar.ServiceFor("b"), "SlotInfo",
					wire.Args{wire.Str("day", s.Day), wire.Int("hour", s.Hour)}, &info)
				return info, err
			}
			// Warm a's route to b's device.
			if info, err := slotInfo(gym); err != nil || info.Meeting != "personal:gym" {
				t.Fatalf("SlotInfo before going away = %+v, %v", info, err)
			}

			// c is cut off and queues a meeting with b.
			bAddr := w.nodes["b"].Addr()
			w.net.Partition("c", "dir")
			w.net.Partition("c", bAddr)
			w.nodes["c"].Offline.GoOffline(ctx)
			queuedAt := slot(day2, 10)
			cm, queued, err := cCal.ScheduleOrQueue(ctx, calendar.Request{
				Title: "queued", Day: queuedAt.Day, Hour: queuedAt.Hour, PinSlot: true, Must: []string{"b"},
			})
			if err != nil || !queued {
				t.Fatalf("ScheduleOrQueue: queued=%v err=%v", queued, err)
			}

			away()

			// Outsider: the first call on a's warm route succeeds.
			if info, err := slotInfo(gym); err != nil || info.Meeting != "personal:gym" {
				t.Fatalf("outsider: first SlotInfo at the stand-in = %+v, %v", info, err)
			}
			m, err := w.cals["a"].SetupMeeting(ctx, calendar.Request{
				Title: "with-proxied", FromDay: day1, ToDay: day1, Must: []string{"b"},
			})
			if err != nil {
				t.Fatalf("outsider: %v", err)
			}
			if m.Status != calendar.StatusConfirmed || m.Slot == gym {
				t.Fatalf("outsider: meeting = %s at %v missing=%v; want confirmed off b's busy slot", m.Status, m.Slot, m.Missing)
			}

			// Offline queue: c reconnects and its op drains against the
			// stand-in.
			w.net.Heal("c", "dir")
			w.net.Heal("c", bAddr)
			if err := w.nodes["c"].Offline.TryReconnect(ctx); err != nil {
				t.Fatalf("offline queue: TryReconnect: %v", err)
			}
			if got, _ := cCal.Meeting(cm.ID); got == nil || got.Status != calendar.StatusConfirmed {
				t.Fatalf("offline queue: c's meeting after reconnect = %+v", got)
			}
			if info, err := slotInfo(queuedAt); err != nil || info.Meeting != cm.ID {
				t.Fatalf("offline queue: stand-in slot = %+v, %v; want %s", info, err, cm.ID)
			}

			back()

			// Writes come back.
			b := w.cals["b"]
			if got := b.Slot(m.Slot).Meeting; got != m.ID {
				t.Fatalf("writes come back: b's slot %v = %q, want %s", m.Slot, got, m.ID)
			}
			if got := b.Slot(queuedAt).Meeting; got != cm.ID {
				t.Fatalf("writes come back: b's slot %v = %q, want %s", queuedAt, got, cm.ID)
			}
			if got := b.Slot(gym).Meeting; got != "personal:gym" {
				t.Fatalf("writes come back: b's gym slot = %q", got)
			}
			if info, err := slotInfo(m.Slot); err != nil || info.Meeting != m.ID {
				t.Fatalf("writes come back: direct SlotInfo = %+v, %v", info, err)
			}
		})
	}
}
