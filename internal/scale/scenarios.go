package scale

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/links"
	"repro/internal/workload"
)

// timedOp is one scheduled step on the scenario timeline.
type timedOp struct {
	at  time.Duration // offset from the run start
	dev string        // device charged in the queueing model
	run func(ctx context.Context, w *world) opOutcome
}

// scenario is a prepared run: optional setup executed before virtual
// time starts, then a timeline the driver replays in order.
type scenario struct {
	name     string
	setup    func(ctx context.Context, w *world, cfg Config) error
	timeline []timedOp
}

// scenarioFor builds the scenario named by cfg. Timelines are fully
// materialized here from seeded generators — the world is only touched
// at run time — so the schedule itself is reproducible by construction.
func scenarioFor(cfg Config) (*scenario, error) {
	switch cfg.Scenario {
	case "storm":
		return stormScenario(cfg), nil
	case "fanout":
		return fanoutScenario(cfg), nil
	case "churn":
		return churnScenario(cfg), nil
	case "flap":
		return flapScenario(cfg), nil
	default:
		return nil, fmt.Errorf("scale: unknown scenario %q (have %v)", cfg.Scenario, Scenarios())
	}
}

// classifySchedule maps a ScheduleOrQueue result to an outcome bucket.
func classifySchedule(m *calendar.Meeting, queued bool, err error) opOutcome {
	switch {
	case err == nil && queued:
		return opOutcome{class: "queued", measure: true}
	case err == nil && m.Status == calendar.StatusConfirmed:
		return opOutcome{class: "committed", measure: true}
	case err == nil:
		return opOutcome{class: "tentative", measure: true}
	case links.IsInDoubt(err):
		return opOutcome{class: "in_doubt", measure: true}
	default:
		return opOutcome{class: "aborted", measure: true}
	}
}

// stormScenario: a meeting-setup storm with Zipf-skewed initiators and
// participants over pre-seeded personal appointments. The whole op
// budget arrives in a one-hour burst an hour into the day — the Monday
// 9am planning rush — so per-device arrival gaps shrink toward the
// modeled service time and the queueing model engages; slot contention
// on the head of the distribution drives the abort rate.
func stormScenario(cfg Config) *scenario {
	users := workload.Users(cfg.Devices)
	win := workload.DefaultWindow()
	slots := win.Slots()
	plans := workload.SkewedMeetingPlans(users, cfg.Ops, 3, 1.2, cfg.Seed)
	burst := cfg.Horizon / 8
	arrivals := workload.PoissonArrivals(cfg.Ops, burst, cfg.Seed+1)
	for i := range arrivals {
		arrivals[i] += cfg.Horizon / 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	sc := &scenario{
		name: "storm",
		setup: func(ctx context.Context, w *world, cfg Config) error {
			plan := workload.MakeBusyPlan(users, win, 0.12, cfg.Seed+7)
			for _, u := range users {
				if err := plan.ApplyToCalendar(u, w.cals[u]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for i, p := range plans {
		p := p
		slot := slots[rng.Intn(len(slots))]
		title := fmt.Sprintf("storm-%d", i)
		sc.timeline = append(sc.timeline, timedOp{
			at:  arrivals[i],
			dev: p.Initiator,
			run: func(ctx context.Context, w *world) opOutcome {
				m, queued, err := w.cals[p.Initiator].ScheduleOrQueue(ctx, calendar.Request{
					Title: title,
					Day:   slot.Day, Hour: slot.Hour, PinSlot: true,
					Must:     p.Participants,
					Priority: p.Priority,
				})
				return classifySchedule(m, queued, err)
			},
		})
	}
	return sc
}

// fanoutScenario: a few hub users (devices/64) each hold a standing
// meeting with a wide supervisor set; every operation tears the
// current meeting down and rebuilds it on a rotated slot, cascading a
// 1→N link fan-out both ways.
func fanoutScenario(cfg Config) *scenario {
	users := workload.Users(cfg.Devices)
	win := workload.DefaultWindow()
	slots := win.Slots()
	nHubs := cfg.Devices / 64
	if nHubs < 1 {
		nHubs = 1
	}
	hubs := users[:nHubs]
	width := min(16, cfg.Devices-1)
	// Supervisors: the width users following the hub, wrapping.
	supsOf := func(h int) []string {
		out := make([]string, 0, width)
		for j := 1; j <= width; j++ {
			out = append(out, users[(h+j)%len(users)])
		}
		return out
	}
	arrivals := workload.PoissonArrivals(cfg.Ops, cfg.Horizon, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	current := make(map[string]string, nHubs) // hub -> live meeting id

	sc := &scenario{
		name: "fanout",
		setup: func(ctx context.Context, w *world, cfg Config) error {
			for h, u := range hubs {
				m, _, err := w.cals[u].ScheduleOrQueue(ctx, calendar.Request{
					Title: "standup-" + u,
					Day:   slots[h%len(slots)].Day, Hour: slots[h%len(slots)].Hour, PinSlot: true,
					Supervisors: supsOf(h),
					Priority:    5,
				})
				if err != nil {
					return fmt.Errorf("fanout setup %s: %w", u, err)
				}
				current[u] = m.ID
			}
			return nil
		},
	}
	for i := 0; i < cfg.Ops; i++ {
		h := rng.Intn(nHubs)
		hub := hubs[h]
		slot := slots[(h+i+1)%len(slots)]
		title := fmt.Sprintf("standup-%s-%d", hub, i)
		sups := supsOf(h)
		sc.timeline = append(sc.timeline, timedOp{
			at:  arrivals[i],
			dev: hub,
			run: func(ctx context.Context, w *world) opOutcome {
				// One op = cancel cascade + rebuild; both fan out to every
				// supervisor and are charged to the same latency sample.
				if id := current[hub]; id != "" {
					_ = w.cals[hub].CancelMeeting(ctx, id)
					current[hub] = ""
				}
				m, queued, err := w.cals[hub].ScheduleOrQueue(ctx, calendar.Request{
					Title: title,
					Day:   slot.Day, Hour: slot.Hour, PinSlot: true,
					Supervisors: sups,
					Priority:    5,
				})
				if err == nil && !queued {
					current[hub] = m.ID
				}
				return classifySchedule(m, queued, err)
			},
		})
	}
	return sc
}

// churnScenario: registration-plane load — the fleet hammers the
// directory with service resolution, heartbeats, and offline/online
// toggles, exercising shard routing and the control plane rather than
// negotiation.
func churnScenario(cfg Config) *scenario {
	users := workload.Users(cfg.Devices)
	arrivals := workload.PoissonArrivals(cfg.Ops, cfg.Horizon, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	picker := workload.NewZipfPicker(cfg.Devices, 1.2, cfg.Seed+3)

	sc := &scenario{name: "churn"}
	for i := 0; i < cfg.Ops; i++ {
		dev := users[rng.Intn(len(users))]
		kind := rng.Float64()
		target := users[picker.Pick()]
		sc.timeline = append(sc.timeline, timedOp{
			at:  arrivals[i],
			dev: dev,
			run: func(ctx context.Context, w *world) opOutcome {
				dir := w.nodes[dev].Dir
				var err error
				switch {
				case kind < 0.60:
					_, err = dir.ResolveService(ctx, links.ServiceFor(target))
				case kind < 0.90:
					err = dir.Heartbeat(ctx, dev)
				default:
					if err = dir.SetOffline(ctx, dev, true); err == nil {
						err = dir.SetOffline(ctx, dev, false)
					}
				}
				if err != nil {
					return opOutcome{class: "error", measure: true}
				}
				return opOutcome{class: "committed", measure: true}
			},
		})
	}
	return sc
}

// flapScenario: every tenth device is a commuter running in offline
// mode; each commuter loses radio contact twice during the workday
// (isolated in both directions, including from the directory). Writes
// issued while out of range land in the durable op queue and drain
// through the reconnect session when coverage returns.
func flapScenario(cfg Config) *scenario {
	users := workload.Users(cfg.Devices)
	win := workload.DefaultWindow()
	slots := win.Slots()
	plans := workload.SkewedMeetingPlans(users, cfg.Ops, 2, 1.2, cfg.Seed)
	arrivals := workload.PoissonArrivals(cfg.Ops, cfg.Horizon, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	sc := &scenario{name: "flap"}
	for i, p := range plans {
		p := p
		slot := slots[rng.Intn(len(slots))]
		title := fmt.Sprintf("flap-%d", i)
		sc.timeline = append(sc.timeline, timedOp{
			at:  arrivals[i],
			dev: p.Initiator,
			run: func(ctx context.Context, w *world) opOutcome {
				m, queued, err := w.cals[p.Initiator].ScheduleOrQueue(ctx, calendar.Request{
					Title: title,
					Day:   slot.Day, Hour: slot.Hour, PinSlot: true,
					Must:     p.Participants,
					Priority: p.Priority,
				})
				return classifySchedule(m, queued, err)
			},
		})
	}

	// Partition windows: two per commuter, one in each half of the
	// horizon, 10–40 simulated minutes out of range.
	for i, u := range users {
		if i%10 != 9 {
			continue
		}
		u := u
		for half := 0; half < 2; half++ {
			base := time.Duration(half) * (cfg.Horizon / 2)
			tOff := base + time.Duration(rng.Float64()*float64(cfg.Horizon/2-45*time.Minute))
			dur := 10*time.Minute + time.Duration(rng.Float64()*float64(30*time.Minute))
			sc.timeline = append(sc.timeline,
				timedOp{at: tOff, dev: u, run: func(ctx context.Context, w *world) opOutcome {
					// The sim keys inbound reachability by endpoint address
					// and outbound by the request's caller (the user id), so
					// radio loss is two cuts.
					w.net.Isolate(w.nodes[u].Addr(), true)
					w.net.Isolate(u, true)
					w.nodes[u].Offline.GoOffline(ctx)
					return opOutcome{}
				}},
				timedOp{at: tOff + dur, dev: u, run: func(ctx context.Context, w *world) opOutcome {
					w.net.Isolate(w.nodes[u].Addr(), false)
					w.net.Isolate(u, false)
					before := w.nodes[u].Offline.Queue().Len()
					err := w.nodes[u].Offline.TryReconnect(ctx)
					drained := before - w.nodes[u].Offline.Queue().Len()
					if err != nil {
						return opOutcome{class: "error", drained: drained, measure: true}
					}
					return opOutcome{drained: drained}
				}},
			)
		}
	}
	return sc
}

// drive replays the scenario timeline under compressed virtual time.
// The timeline runs as the body of a clock loop with no interval, so
// the clock counts the driver as a participant from the call on, and
// the body cancels the loop once the timeline ends, so it runs once.
// Between operations — while the driver sleeps toward the next
// arrival — every staggered kernel timer in the window fires, one
// waiter at a time; while an operation runs, virtual time is frozen.
func (w *world) drive(cfg Config, sc *scenario) (*Report, error) {
	ctx := context.Background()
	wallStart := time.Now()
	if sc.setup != nil {
		if err := sc.setup(ctx, w, cfg); err != nil {
			return nil, fmt.Errorf("scale: %s setup: %w", sc.name, err)
		}
	}
	sort.SliceStable(sc.timeline, func(i, j int) bool { return sc.timeline[i].at < sc.timeline[j].at })

	rec := newRecorder(cfg.Seed)
	loopCtx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	clock.LoopGo(loopCtx, w.clk, 0, func(time.Time) {
		defer stop()
		w.clk.Resume()
		start := w.clk.Now()
		for _, op := range sc.timeline {
			if d := start.Add(op.at).Sub(w.clk.Now()); d > 0 {
				w.clk.Sleep(d)
			}
			req0 := w.net.Stats().Requests
			out := op.run(ctx, w)
			rec.record(op.dev, op.at, w.net.Stats().Requests-req0, out)
		}
		if d := start.Add(cfg.Horizon).Sub(w.clk.Now()); d > 0 {
			w.clk.Sleep(d)
		}
		w.clk.Pause()
	}, func() { close(done) })
	<-done

	var locks links.LockStats
	for _, u := range w.users {
		s := w.nodes[u].Links.Locks.Stats()
		locks.Acquired += s.Acquired
		locks.Conflicts += s.Conflicts
		locks.Steals += s.Steals
	}
	st := w.net.Stats()
	return &Report{
		Scenario:  sc.name,
		Topology:  cfg.Topology,
		Devices:   cfg.Devices,
		Ops:       cfg.Ops,
		Seed:      cfg.Seed,
		VirtualMS: cfg.Horizon.Milliseconds(),
		Latency:   rec.latencyStats(),
		Outcomes:  rec.outcomes,
		Queue:     rec.queueStats(),
		Locks:     locks,
		Net: NetStats{
			Requests:  st.Requests,
			Responses: st.Responses,
			Events:    st.Events,
			Dropped:   st.Dropped,
		},
		ClockFired: w.clk.Fired(),
		WallMS:     time.Since(wallStart).Milliseconds(),
	}, nil
}
