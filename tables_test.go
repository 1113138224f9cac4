package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/links"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// entrySize is the per-slot storage estimate used on both sides of T1.
const entrySize = 64

// RunT1 regenerates the §6 comparison as a measured table: the same
// seeded workload (busy calendars + meeting requests + cancellations)
// runs through the SyD calendar and through the baseline
// replicated-folder / manual-accept model, and we compare per-user
// storage, messages, and human interventions.
func RunT1() (*Result, error) {
	res := &Result{
		ID:     "T1",
		Title:  "§6 comparison: SyD calendar vs existing-application model",
		Header: []string{"metric", "SyD", "baseline", "expected shape"},
	}
	ctx := context.Background()
	const (
		nUsers    = 8
		nMeetings = 10
		fanout    = 3
		density   = 0.25
		seed      = 2003
	)
	users := workload.Users(nUsers)
	win := workload.DefaultWindow()
	plan := workload.MakeBusyPlan(users, win, density, seed)
	meetings := workload.MakeMeetingPlans(users, nMeetings, fanout, seed)

	// --- SyD side -----------------------------------------------------------
	w, err := NewWorld(users, sim.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if err := plan.ApplyToCalendar(u, w.Cals[u]); err != nil {
			return nil, err
		}
	}
	w.Net.ResetStats()
	sydInterventions := 0
	var sydMeetings []*calendar.Meeting
	for _, mp := range meetings {
		m, err := w.Cals[mp.Initiator].SetupMeeting(ctx, calendar.Request{
			Title: "t1", FromDay: win.FromDay(), ToDay: win.ToDay(),
			Must: mp.Participants, Priority: mp.Priority,
		})
		if err != nil {
			continue // window exhausted for this combination
		}
		sydInterventions++ // the initiator's single scheduling click
		sydMeetings = append(sydMeetings, m)
	}
	sydSchedStats := w.Net.Stats()
	scheduled := len(sydMeetings)

	// Cancel half the meetings; SyD repairs (promotions/releases) are
	// automatic, each cancel costs one click.
	w.Net.ResetStats()
	cancelled := 0
	for i, m := range sydMeetings {
		if i%2 == 0 {
			if err := w.Cals[m.Initiator].CancelMeeting(ctx, m.ID); err == nil {
				sydInterventions++
				cancelled++
			}
		}
	}
	sydCancelStats := w.Net.Stats()

	// SyD per-user storage: own slot rows only.
	sydStorage := 0
	for _, u := range users {
		slots, err := w.Nodes[u].DB.Table("cal_slots")
		if err != nil {
			return nil, err
		}
		sydStorage += slots.Count() * entrySize
	}
	sydStoragePerUser := sydStorage / nUsers

	// --- baseline side --------------------------------------------------------
	bl := newBaseline(users, false)
	applyToBaseline(plan, bl)
	blStorageSeeded := bl.TotalStorageBytes(entrySize) / nUsers
	bl.ResetStats()
	var blMeetings []*baselineMeeting
	blScheduled := 0
	for _, mp := range meetings {
		m, _ := bl.ScheduleMeeting(mp.Initiator, mp.Participants, baselineSlots(win))
		if m != nil {
			blScheduled++
			blMeetings = append(blMeetings, m)
		}
	}
	blSchedStats := bl.Stats()

	bl.ResetStats()
	blCancelled := 0
	for i, m := range blMeetings {
		if i%2 == 0 && bl.CancelMeeting(m.ID) {
			blCancelled++
			// §6: no automatic rescheduling — a dependent meeting
			// must be rescheduled manually from scratch. Model one
			// dependent meeting per cancellation.
			bl.ScheduleMeeting(m.Initiator, m.Participants[1:], baselineSlots(win))
		}
	}
	blCancelStats := bl.Stats()

	// --- rows -----------------------------------------------------------------
	perMeeting := func(v int64, n int) string {
		if n == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f", float64(v)/float64(n))
	}
	res.AddRow("meetings scheduled",
		fmt.Sprintf("%d/%d", scheduled, nMeetings),
		fmt.Sprintf("%d/%d", blScheduled, nMeetings), "comparable")
	res.AddRow("storage bytes/user",
		fmt.Sprintf("%d", sydStoragePerUser),
		fmt.Sprintf("%d", blStorageSeeded),
		"SyD ~ own calendar; baseline ~ N x calendars")
	res.AddRow("messages/scheduled meeting",
		perMeeting(sydSchedStats.Requests, scheduled),
		perMeeting(int64(blSchedStats.Messages), blScheduled),
		"SyD machine-to-machine; baseline includes human e-mail")
	res.AddRow("human interventions/meeting",
		fmt.Sprintf("%.1f", 1.0),
		perMeeting(int64(blSchedStats.Interventions), blScheduled),
		"SyD: 1 click; baseline: 1 + N accepts (+retries)")
	res.AddRow("interventions per cancel+repair",
		fmt.Sprintf("%.1f", 1.0),
		perMeeting(int64(blCancelStats.Interventions), blCancelled),
		"SyD auto-promotes; baseline full manual redo")
	res.AddRow("messages per cancel+repair",
		perMeeting(sydCancelStats.Requests, cancelled),
		perMeeting(int64(blCancelStats.Messages), blCancelled), "")
	// Stale-replica variant: with replication lag the baseline's
	// initiators schedule against outdated folders, producing declines
	// and manual retries — SyD queries live calendars and never sees
	// stale data (§6: "can perform real time updates").
	blLag := newBaseline(users, true)
	applyToBaseline(plan, blLag)
	blLag.ResetStats()
	lagScheduled, lagRetries := 0, 0
	for _, mp := range meetings {
		m, rounds := blLag.ScheduleMeeting(mp.Initiator, mp.Participants, baselineSlots(win))
		if m != nil {
			lagScheduled++
			lagRetries += rounds - 1
		}
	}
	res.AddRow("decline/retry rounds (stale replicas)",
		"0 (live queries)",
		fmt.Sprintf("%d over %d meetings", lagRetries, lagScheduled),
		"baseline replicas go stale; SyD cannot")
	res.AddRow("priority/bumping", "yes (measured in E3)", "no (§6)", "feature")
	res.AddRow("authentication", "TEA-sealed credentials (§5.4)", "none (§6)", "feature")
	res.AddRow("real-time updates", "trigger-driven", "manual accept", "feature")

	if sydStoragePerUser >= blStorageSeeded {
		return res, fmt.Errorf("storage shape violated: SyD %d >= baseline %d", sydStoragePerUser, blStorageSeeded)
	}
	if float64(blSchedStats.Interventions)/float64(blScheduled) <= 1.0 {
		return res, fmt.Errorf("intervention shape violated")
	}
	return res, nil
}

// addUserWithStandIn boots user's device in w, durable and leased, in a
// data dir under root, with a replication follower of it as its §5.2
// stand-in, and returns the handoff that takes the device away: the
// device's Release, the follower's PromoteNow and the device's Close.
// Afterwards w's node for user is the stand-in's.
func addUserWithStandIn(w *World, user, root string) (away func(context.Context) error, err error) {
	const ttl = time.Hour
	deviceDir, standInDir := filepath.Join(root, "device"), filepath.Join(root, "stand-in")
	if err := w.startUser(core.Config{User: user, DataDir: deviceDir, LeaseTTL: ttl}); err != nil {
		return nil, err
	}
	f, err := replication.StartFollower(context.Background(), replication.FollowerConfig{
		User: user, Net: w.Net, Dir: directory.NewClient(w.Net, "dir"), Clock: w.Clk,
		DataDir: standInDir, ListenAddr: "standin-" + user, LeaseTTL: ttl,
		Promote: func(ctx context.Context, holder string) (string, error) {
			if err := w.startUser(core.Config{User: user, DataDir: standInDir, LeaseTTL: ttl, LeaseHolder: holder, ListenAddr: "standin-" + user}); err != nil {
				return "", err
			}
			return w.Nodes[user].Addr(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) error {
		device := w.Nodes[user]
		if err := device.Repl.Release(ctx); err != nil {
			return err
		}
		if err := f.PromoteNow(ctx); err != nil {
			return err
		}
		return device.Close(ctx)
	}, nil
}

// RunT2 runs the performance sweeps implied by §5.1 ("all changes
// happen in real time") and §7 (low bandwidth, weak connectivity):
// group-invocation latency vs group size, link-op throughput,
// negotiation under contention, failover to a stand-in, and
// expiry-sweep scale.
func RunT2() (*Result, error) {
	res := &Result{
		ID:     "T2",
		Title:  "performance sweeps: group size, link throughput, contention, failover",
		Header: []string{"sweep", "parameter", "value"},
	}
	ctx := context.Background()

	// T2a: group invocation latency vs group size (200µs one-way).
	for _, size := range []int{2, 4, 8, 16} {
		users := workload.Users(size + 1)
		w, err := NewWorld(users, sim.Config{BaseLatency: 200 * time.Microsecond, Seed: 7})
		if err != nil {
			return nil, err
		}
		services := make([]string, size)
		for i, u := range users[1:] {
			services[i] = calendar.ServiceFor(u)
		}
		eng := w.Nodes[users[0]].Engine
		// Warm the directory cache effects out of the measurement.
		eng.GroupInvoke(ctx, services, "ListMeetings", nil)
		const rounds = 10
		start := time.Now()
		for i := 0; i < rounds; i++ {
			results := eng.GroupInvoke(ctx, services, "ListMeetings", nil)
			for _, r := range results {
				if r.Err != nil {
					return nil, r.Err
				}
			}
		}
		avg := time.Since(start) / rounds
		res.AddRow("T2a group invoke latency", fmt.Sprintf("group=%d", size), varies("%v", avg.Round(10*time.Microsecond)))
	}
	res.AddNote("T2a: concurrent fan-out keeps latency ~flat in group size (bounded by slowest member), message count linear")

	// T2b: link database op throughput (local). Each link has its own
	// owner entity: a delete on an entity scans every link on it, so
	// links piled onto one entity would measure that pile-up instead.
	{
		w, err := NewWorld(workload.Users(2), sim.Config{})
		if err != nil {
			return nil, err
		}
		lm := w.Cals["u00"].Links()
		const ops = 5000
		start := time.Now()
		for i := 0; i < ops; i++ {
			l := &links.Link{
				ID: fmt.Sprintf("T2b-%d", i), Type: links.Subscription, Subtype: links.Permanent,
				Owner:   links.EntityRef{User: "u00", Entity: fmt.Sprintf("T2b-entity-%d", i)},
				Targets: []links.EntityRef{{User: "u01", Entity: fmt.Sprintf("T2b-entity-%d", i)}},
			}
			if err := lm.InstallAt(ctx, "u00", l); err != nil {
				return nil, err
			}
		}
		addRate := float64(ops) / time.Since(start).Seconds()
		start = time.Now()
		for i := 0; i < ops; i++ {
			if err := lm.DeleteLinkLocal(ctx, fmt.Sprintf("T2b-%d", i)); err != nil {
				return nil, err
			}
		}
		delRate := float64(ops) / time.Since(start).Seconds()
		res.AddRow("T2b link ops", "AddLink", varies("%.0f ops/sec", addRate))
		res.AddRow("T2b link ops", "DeleteLinkLocal", varies("%.0f ops/sec", delRate))
	}

	// T2c: negotiation success under slot contention — k initiators
	// race negotiation-and for the same two target slots.
	for _, racers := range []int{2, 4, 8} {
		users := append(workload.Users(racers), "tx", "ty")
		w, err := NewWorld(users, sim.Config{})
		if err != nil {
			return nil, err
		}
		slot := calendar.Slot{Day: "2003-04-21", Hour: 10}
		var wg sync.WaitGroup
		wins := make([]bool, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := w.Cals[workload.Users(racers)[i]].Links().Negotiate(ctx, links.Spec{
					Action: calendar.ActionReserve,
					Args:   wire.Args{wire.Str("meeting", fmt.Sprintf("race-%d", i)), wire.Int("priority", 0)},
					Targets: []links.EntityRef{
						{User: "tx", Entity: slot.Entity()},
						{User: "ty", Entity: slot.Entity()},
					},
					Constraint: links.And,
				})
				wins[i] = err == nil
			}(i)
		}
		wg.Wait()
		winners := 0
		for _, okv := range wins {
			if okv {
				winners++
			}
		}
		consistent := w.Cals["tx"].Slot(slot).Meeting == w.Cals["ty"].Slot(slot).Meeting
		res.AddRow("T2c contention", fmt.Sprintf("racers=%d", racers),
			fmt.Sprintf("winners=%d consistent=%v", winners, consistent))
		if winners != 1 || !consistent {
			return res, fmt.Errorf("contention broke atomicity: winners=%d consistent=%v", winners, consistent)
		}
	}
	res.AddNote("T2c: exactly one racer wins and both targets agree — deadlock-free ordered try-locks")

	// T2d: failover to a stand-in (§5.2) — latency of a call served by
	// the device vs the caller's first call after the device handed its
	// user to a replication follower and went away.
	{
		w, err := NewWorld([]string{"caller"}, sim.Config{BaseLatency: 200 * time.Microsecond, Seed: 3})
		if err != nil {
			return nil, err
		}
		root, err := os.MkdirTemp("", "t2d-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
		away, err := addUserWithStandIn(w, "mobile", root)
		if err != nil {
			return nil, err
		}
		defer func() { _ = w.Nodes["mobile"].Close(ctx) }()
		eng := w.Nodes["caller"].Engine
		probe := func() (time.Duration, error) {
			start := time.Now()
			err := eng.Invoke(ctx, calendar.ServiceFor("mobile"), "ListMeetings", nil, nil)
			return time.Since(start), err
		}
		direct, err := probe()
		if err != nil {
			return nil, err
		}
		if err := away(ctx); err != nil {
			return nil, err
		}
		proxied, err := probe()
		if err != nil {
			return nil, err
		}
		res.AddRow("T2d failover", "direct call", varies("%v", direct.Round(10*time.Microsecond)))
		res.AddRow("T2d failover", "proxied call (device down)", varies("%v", proxied.Round(10*time.Microsecond)))
	}

	// T2e: expiry sweep at scale.
	{
		w, err := NewWorld(workload.Users(1), sim.Config{})
		if err != nil {
			return nil, err
		}
		lm := w.Cals["u00"].Links()
		const n = 2000
		for i := 0; i < n; i++ {
			l := &links.Link{
				ID: fmt.Sprintf("T2e-%d", i), Type: links.Subscription, Subtype: links.Permanent,
				Owner:   links.EntityRef{User: "u00", Entity: fmt.Sprintf("slot:2003-04-21:%d", i%24)},
				Expires: w.Clk.Now().Add(time.Duration(i%2+1) * time.Hour),
			}
			if err := lm.InstallAt(ctx, "u00", l); err != nil {
				return nil, err
			}
		}
		w.Clk.Advance(90 * time.Minute) // expire half
		start := time.Now()
		expired := lm.ExpireSweep(ctx, w.Clk.Now())
		res.AddRow("T2e expiry sweep", fmt.Sprintf("%d links, %d expired", n, len(expired)),
			varies("%v", time.Since(start).Round(100*time.Microsecond)))
		if len(expired) != n/2 {
			return res, fmt.Errorf("expired %d, want %d", len(expired), n/2)
		}
	}
	return res, nil
}
