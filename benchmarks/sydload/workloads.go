package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/workload"
)

// workloadDef describes one workload: its population, its preload, and
// the closed-loop client that drives it.
type workloadDef struct {
	name string
	why  string
	// nodes is the population for a given client count.
	nodes   func(clients int) int
	durable bool
	// kinds are the driver calls the workload makes; kinds[0] is the
	// leading call, the one op_p50_ms times.
	kinds []opKind
	// tracedOps is the number of driver calls the traced run makes.
	tracedOps int
	// preload fills the calendars before the first op (part of setup_s).
	preload func(ctx context.Context, c *cluster, seed int64) error
	// clients builds the closed-loop clients over a booted cluster.
	clients func(c *cluster, n int, seed int64) []stepper
}

// stepper is one closed-loop client: step makes its next driver calls,
// drain cancels what it still holds open.
type stepper interface {
	step(ctx context.Context, d *driver)
	drain(ctx context.Context, d *driver)
}

var workloads = []workloadDef{
	{
		name:  "sched_mem",
		why:   "conflict-free schedule+cancel on in-memory nodes: wire, transport, engine, listener, links and store do all the work, so a change to any of them shows undiluted",
		nodes: func(clients int) int { return 4 * clients },
		kinds: []opKind{opSchedule, opCancel}, tracedOps: 2000,
		clients: schedClients,
	},
	{
		name:  "sched_durable",
		why:   "the same ops with a write-ahead log under every node (device flush left out): durable minus mem is the wal layer, so a wal change moves this and leaves sched_mem flat",
		nodes: func(clients int) int { return 4 * clients }, durable: true,
		kinds: []opKind{opSchedule, opCancel}, tracedOps: 2000,
		clients: schedClients,
	},
	{
		name:  "find_slots",
		why:   "read-only FindCommonSlots over preloaded calendars: the same layers with links and wal idle and larger replies, so a write gain paid for by reads shows here",
		nodes: func(clients int) int { return 4 * clients },
		kinds: []opKind{opFind}, tracedOps: 10000,
		preload: preloadFindSlots,
		clients: findClients,
	},
	{
		name:  "contended",
		why:   "both clients book overlapping attendees on one day: the only workload with lock conflicts, tentative meetings and promotion on cancel",
		nodes: func(clients int) int { return 3 * clients },
		kinds: []opKind{opSchedule, opCancel}, tracedOps: 2000,
		clients: contendedClients,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// --- sched_mem, sched_durable -----------------------------------------

// schedClient owns a disjoint set of users and loops schedule then
// cancel over them, so no two clients ever want the same slot.
type schedClient struct {
	own   []*member
	slots []calendar.Slot
	i     int
}

// schedClients deals the users to the clients in seeded order and gives
// each client its own seeded order of the week's slots.
func schedClients(c *cluster, n int, seed int64) []stepper {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(c.members))
	per := len(c.members) / n
	out := make([]stepper, n)
	for i := range out {
		sc := &schedClient{slots: workload.DefaultWindow().Slots()}
		for _, idx := range order[i*per : (i+1)*per] {
			sc.own = append(sc.own, c.members[idx])
		}
		rng.Shuffle(len(sc.slots), func(a, b int) { sc.slots[a], sc.slots[b] = sc.slots[b], sc.slots[a] })
		out[i] = sc
	}
	return out
}

func (s *schedClient) step(ctx context.Context, d *driver) {
	n := len(s.own)
	init := s.own[s.i%n]
	must := []string{s.own[(s.i+1)%n].user, s.own[(s.i+2)%n].user}
	slot := s.slots[(s.i/n)%len(s.slots)]
	s.i++

	var m *calendar.Meeting
	err := d.do(ctx, opSchedule, init, func(ctx context.Context) (err error) {
		m, err = init.cal.SetupMeeting(ctx, calendar.Request{
			Title: "sync", Day: slot.Day, Hour: slot.Hour, PinSlot: true, Must: must,
		})
		return err
	})
	d.noteSchedule(m, err)
	if err != nil {
		return
	}
	if m.Status != calendar.StatusConfirmed || len(m.Reserved) != 3 {
		d.wrong("schedule of %s at %s by %s: status %s, reserved %v", m.ID, slot, init.user, m.Status, m.Reserved)
	}
	_ = d.do(ctx, opCancel, init, func(ctx context.Context) error {
		return init.cal.CancelMeeting(ctx, m.ID)
	})
}

func (s *schedClient) drain(context.Context, *driver) {}

// --- find_slots -------------------------------------------------------

const (
	findDensity  = 0.3
	findMeetings = 50
)

// preloadFindSlots marks a seeded 30 % of every calendar busy and then
// books up to 50 confirmed meetings into what is left. Every user gets
// the same number of busy slots, so that the seed chooses which slots a
// reply lists and not how long the reply is: wire_bytes_per_op and
// allocs_per_op must not depend on the seed.
func preloadFindSlots(ctx context.Context, c *cluster, seed int64) error {
	users := make([]string, len(c.members))
	for i, m := range c.members {
		users[i] = m.user
	}
	win := workload.DefaultWindow()
	rng := rand.New(rand.NewSource(seed))
	slots := win.Slots()
	for _, m := range c.members {
		for _, i := range rng.Perm(len(slots))[:int(findDensity*float64(len(slots)))] {
			if err := m.cal.MarkBusy(slots[i], "appt", 0); err != nil {
				return fmt.Errorf("busy slot for %s: %w", m.user, err)
			}
		}
	}
	// Some triples have no common free slot left; those requests are
	// refused and the next plan is tried.
	booked := 0
	for _, p := range workload.MakeMeetingPlans(users, 40*findMeetings, 2, seed) {
		if booked == findMeetings {
			break
		}
		m, err := c.byUser[p.Initiator].cal.SetupMeeting(ctx, calendar.Request{
			Title: "preload", FromDay: win.FromDay(), ToDay: win.ToDay(), Must: p.Participants,
		})
		switch {
		case err == nil && m.Status == calendar.StatusConfirmed:
			booked++
		case err == nil:
			return fmt.Errorf("preload meeting %s is %s", m.ID, m.Status)
		case classify(err) != classRefused:
			return fmt.Errorf("preload meeting: %w", err)
		}
	}
	if booked < findMeetings {
		return fmt.Errorf("preload booked %d of %d meetings", booked, findMeetings)
	}
	return nil
}

// findClient asks for the common free slots of a seeded initiator and
// three required attendees, and checks the answer against the calendars'
// own free lists, which do not change during the run.
type findClient struct {
	all  []*member
	free []map[calendar.Slot]bool // by member index
	win  workload.Window
	rng  *rand.Rand
}

func findClients(c *cluster, n int, seed int64) []stepper {
	win := workload.DefaultWindow()
	free := make([]map[calendar.Slot]bool, len(c.members))
	for i, m := range c.members {
		free[i] = map[calendar.Slot]bool{}
		for _, s := range m.cal.FreeSlots(win.FromDay(), win.ToDay(), nil) {
			free[i][s] = true
		}
	}
	out := make([]stepper, n)
	for i := range out {
		out[i] = &findClient{all: c.members, free: free, win: win,
			rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
	}
	return out
}

func (f *findClient) step(ctx context.Context, d *driver) {
	p := f.rng.Perm(len(f.all))[:4] // initiator and three required attendees
	init := f.all[p[0]]
	must := make([]string, 0, 3)
	for _, idx := range p[1:] {
		must = append(must, f.all[idx].user)
	}
	var got []calendar.Slot
	err := d.do(ctx, opFind, init, func(ctx context.Context) (err error) {
		got, err = init.cal.FindCommonSlots(ctx, calendar.Request{
			FromDay: f.win.FromDay(), ToDay: f.win.ToDay(), Must: must,
		})
		return err
	})
	if err != nil {
		return
	}
	allFree := func(s calendar.Slot) bool {
		for _, idx := range p {
			if !f.free[idx][s] {
				return false
			}
		}
		return true
	}
	want := 0
	for s := range f.free[p[0]] {
		if allFree(s) {
			want++
		}
	}
	ok := len(got) == want
	for _, s := range got {
		ok = ok && allFree(s)
	}
	if !ok {
		d.wrong("find by %s with %v: got %d slots, want %d", init.user, must, len(got), want)
	}
}

func (f *findClient) drain(context.Context, *driver) {}

// --- contended --------------------------------------------------------

// contendedOpen is how many meetings a client holds open before it
// cancels its oldest.
const contendedOpen = 3

// contendedDay is the single day all contended meetings compete for.
const contendedDay = "2003-04-21"

// hold is one entry of the contended op log: user held slot for meeting
// over [from, to], as the driver saw it.
type hold struct {
	user, meeting string
	slot          calendar.Slot
	from, to      time.Duration
}

// contendedShared is what the contended clients have in common.
type contendedShared struct {
	start time.Time
	// cancelMu keeps a CancelMeeting apart from every other driver call:
	// schedules share it, a cancel takes it alone. Two overlapping cancels
	// can wait on each other forever, and a schedule overlapping a
	// cancel's promotion cascade can leave one slot booked for two
	// meetings (see README, "Findings"). Schedules still overlap each
	// other, so negotiations still collide.
	cancelMu sync.RWMutex
	holds    []hold // appended to under cancelMu
}

type openMeeting struct {
	id        string
	init      *member
	slot      calendar.Slot
	opened    time.Duration
	reserved  []string
	tentative bool
	counted   bool // its schedule attempt fell in the measured window
}

// contendedClient draws initiator and attendees from all users, so its
// meetings collide with the other clients' on the attendees' calendars.
type contendedClient struct {
	sh   *contendedShared
	all  []*member
	rng  *rand.Rand
	open []openMeeting
}

func contendedClients(c *cluster, n int, seed int64) []stepper {
	sh := &contendedShared{start: time.Now()}
	out := make([]stepper, n)
	for i := range out {
		out[i] = &contendedClient{sh: sh, all: c.members,
			rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
	}
	return out
}

func (cc *contendedClient) step(ctx context.Context, d *driver) {
	// The initiator is the first drawn user with a free hour of its own;
	// the slot is one of those hours.
	p := cc.rng.Perm(len(cc.all))
	var init *member
	var free []calendar.Slot
	for _, idx := range p {
		if free = cc.all[idx].cal.FreeSlots(contendedDay, contendedDay, nil); len(free) > 0 {
			init = cc.all[idx]
			break
		}
	}
	if init != nil {
		var must []string
		for _, idx := range p {
			if cc.all[idx] != init && len(must) < 2 {
				must = append(must, cc.all[idx].user)
			}
		}
		cc.schedule(ctx, d, init, free[cc.rng.Intn(len(free))], must)
	}
	if init == nil || len(cc.open) > contendedOpen {
		cc.cancelOldest(ctx, d)
	}
}

func (cc *contendedClient) schedule(ctx context.Context, d *driver, init *member, slot calendar.Slot, must []string) {
	var m *calendar.Meeting
	cc.sh.cancelMu.RLock()
	err := d.do(ctx, opSchedule, init, func(ctx context.Context) (err error) {
		m, err = init.cal.SetupMeeting(ctx, calendar.Request{
			Title: "contended", Day: slot.Day, Hour: slot.Hour, PinSlot: true, Must: must,
		})
		return err
	})
	cc.sh.cancelMu.RUnlock()
	d.noteSchedule(m, err)
	if err != nil {
		return // refused: another client took the initiator's hour first
	}
	cc.open = append(cc.open, openMeeting{
		id: m.ID, init: init, slot: slot, opened: time.Since(cc.sh.start),
		reserved: m.Reserved, tentative: m.Status == calendar.StatusTentative, counted: d.rec.seg >= 0,
	})
}

func (cc *contendedClient) cancelOldest(ctx context.Context, d *driver) {
	if len(cc.open) == 0 {
		return
	}
	o := cc.open[0]
	cc.open = cc.open[1:]

	cc.sh.cancelMu.Lock()
	defer cc.sh.cancelMu.Unlock()
	now, _ := o.init.cal.Meeting(o.id)
	at := time.Since(cc.sh.start)
	err := d.do(ctx, opCancel, o.init, func(ctx context.Context) error {
		return o.init.cal.CancelMeeting(ctx, o.id)
	})
	if err != nil || now == nil {
		return
	}
	if o.tentative && o.counted && now.Status == calendar.StatusConfirmed {
		d.rec.promoted++
	}
	// Users reserved at setup held the slot from then until this cancel;
	// users reserved since (by promotion) held it at least at this cancel.
	for _, u := range now.Reserved {
		from := at
		for _, r := range o.reserved {
			if r == u {
				from = o.opened
			}
		}
		cc.sh.holds = append(cc.sh.holds, hold{user: u, meeting: o.id, slot: o.slot, from: from, to: at})
	}
}

// opLog returns the holds all contended clients have logged.
func (cc *contendedClient) opLog() []hold { return cc.sh.holds }

func (cc *contendedClient) drain(ctx context.Context, d *driver) {
	for len(cc.open) > 0 {
		cc.cancelOldest(ctx, d)
	}
}
