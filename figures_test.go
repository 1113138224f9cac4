package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/calendar"
	"repro/internal/engine"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// RunF1 reproduces Figure 1 (the three-tier SyD architecture) as an
// executable trace: the same application call crosses SyDApp →
// groupware (directory + engine) → deviceware (listener + store), and
// the identical application code runs unchanged on two different
// simulated networks (device/network independence).
func RunF1() (*Result, error) {
	res := &Result{
		ID:     "F1",
		Title:  "Fig.1 three-tier architecture: layered call trace + network independence",
		Header: []string{"network", "layer", "operation", "messages"},
	}
	ctx := context.Background()
	for _, variant := range []struct {
		name string
		cfg  sim.Config
	}{
		{"ideal", sim.Config{}},
		{"lossy-lan", sim.Config{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond, Seed: 1}},
	} {
		w, err := NewWorld(workload.Users(3), variant.cfg)
		if err != nil {
			return nil, err
		}
		users := workload.Users(3)
		a := w.Cals[users[0]]

		before := w.Net.Stats().Requests
		slots, err := a.FindCommonSlots(ctx, calendar.Request{
			FromDay: "2003-04-21", ToDay: "2003-04-21",
			Must: users[1:],
		})
		if err != nil {
			return nil, err
		}
		afterLookup := w.Net.Stats().Requests
		res.AddRow(variant.name, "SyDApp", fmt.Sprintf("FindCommonSlots -> %d slots", len(slots)), "")
		res.AddRow(variant.name, "groupware", "directory lookups + group GetFreeSlots", fmt.Sprintf("%d", afterLookup-before))

		m, err := a.SetupMeeting(ctx, calendar.Request{
			Title: "f1", Day: slots[0].Day, Hour: slots[0].Hour, PinSlot: true, Must: users[1:],
		})
		if err != nil {
			return nil, err
		}
		afterSetup := w.Net.Stats().Requests
		res.AddRow(variant.name, "deviceware", fmt.Sprintf("negotiated reserve on %d devices (%s)", len(m.Reserved), m.Status), fmt.Sprintf("%d", afterSetup-afterLookup))
	}
	res.AddNote("identical application code and outcomes on both network variants — the layering of Fig.1")
	return res, nil
}

// RunF2 reproduces Figure 2 (the SyD runtime environment) by measuring
// the cost each layer adds on the way down the stack: raw transport
// call, listener dispatch, engine (directory-resolved) invocation,
// authenticated invocation, and a full coordination-link negotiation.
func RunF2() (*Result, error) {
	res := &Result{
		ID:     "F2",
		Title:  "Fig.2 runtime layers: per-layer invocation cost (ideal network)",
		Header: []string{"layer", "operation", "ns/op"},
	}
	ctx := context.Background()
	const iters = 2000

	w, err := NewWorld(workload.Users(2), sim.Config{})
	if err != nil {
		return nil, err
	}
	users := workload.Users(2)
	target := w.Nodes[users[1]]

	// Raw transport (primitive distribution middleware).
	rawLis, err := w.Net.Listen("raw-endpoint", transport.HandlerFunc(
		func(ctx context.Context, req *transport.Request) transport.Response {
			return transport.Response{ID: req.ID, OK: true}
		}))
	if err != nil {
		return nil, err
	}
	timeIt := func(name, op string, f func() error) error {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		res.AddRow(name, op, varies("%d", time.Since(start).Nanoseconds()/iters))
		return nil
	}

	req := &transport.Request{Service: "x", Method: "y"}
	if err := timeIt("transport", "raw socket round trip", func() error {
		_, err := w.Net.Call(ctx, rawLis.Addr(), req)
		return err
	}); err != nil {
		return nil, err
	}

	// Listener dispatch (deviceware).
	obj := listener.NewObject().Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) {
		return "pong", nil
	})
	if err := target.RegisterService(ctx, "bench.svc", obj); err != nil {
		return nil, err
	}
	eng := w.Nodes[users[0]].Engine
	if err := timeIt("deviceware", "listener dispatch via engine (uncached lookup)", func() error {
		return eng.Invoke(ctx, "bench.svc", "Ping", nil, nil)
	}); err != nil {
		return nil, err
	}

	// Authenticated invocation (§5.4).
	an := auth.NewAuthenticator("f2-key")
	an.Table.Add(users[0], "pw")
	authObj := listener.NewObject()
	authObj.RequireAuth = true
	authObj.Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) { return "pong", nil })
	authLis := listener.New(users[1]+"-auth", an)
	authLis.Register("bench.auth", authObj)
	authLn, err := w.Net.Listen("auth-endpoint", authLis)
	if err != nil {
		return nil, err
	}
	if err := w.Dir.RegisterService(ctx, "bench.auth", "", authLn.Addr(), nil); err != nil {
		return nil, err
	}
	authEng := engine.New(w.Net, w.Dir, users[0])
	if err := authEng.SetCredential(an.Sealer, users[0], "pw"); err != nil {
		return nil, err
	}
	if err := timeIt("groupware", "authenticated invocation (TEA credential)", func() error {
		return authEng.Invoke(ctx, "bench.auth", "Ping", nil, nil)
	}); err != nil {
		return nil, err
	}

	// Full negotiation (SyDLinks).
	i := 0
	if err := timeIt("SyDLinks", "negotiation-and over 1 remote entity", func() error {
		i++
		_, err := w.Cals[users[0]].Links().Negotiate(ctx, links.Spec{
			Action: calendar.ActionReserve,
			Args: wire.Args{
				wire.Str("meeting", fmt.Sprintf("F2-%d", i)),
				wire.Int("priority", 0),
				wire.Str("day", "2003-04-21"),
				wire.Int("hour", 9),
			},
			Targets: []links.EntityRef{{
				User: users[1], Entity: calendar.Slot{Day: "2003-04-21", Hour: 9}.Entity(),
			}},
			Constraint: links.And,
		})
		if err != nil {
			return err
		}
		// Release for the next round.
		return eng.Invoke(ctx, links.ServiceFor(users[1]), "Apply", wire.Args{
			wire.Str("entity", calendar.Slot{Day: "2003-04-21", Hour: 9}.Entity()),
			wire.Str("action", calendar.ActionRelease),
			wire.Sub("args", wire.Args{wire.Str("meeting", "")}),
		}, nil)
	}); err != nil {
		return nil, err
	}

	res.AddNote("three sample SyDApps share this kernel: examples/meeting, examples/fleet, examples/priceisright (Fig.2's app list)")
	return res, nil
}

// RunF3 reproduces Figure 3 (kernel module interactions): the
// publish → lookup → single invoke → group invoke conversation between
// SyDDirectory, SyDListener, and SyDEngine, with message counts per
// step, plus raw directory throughput.
func RunF3() (*Result, error) {
	w, err := NewWorld(nil, sim.Config{})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "F3",
		Title:  "Fig.3 kernel interactions: publish/lookup/invoke trace + directory throughput",
		Header: []string{"step", "modules", "messages"},
	}
	ctx := context.Background()
	users := workload.Users(4)

	count := func() int64 { return w.Net.Stats().Requests }
	before := count()
	for _, u := range users {
		if err := w.AddUser(u, 0); err != nil {
			return nil, err
		}
	}
	res.AddRow("publish (4 nodes x user+links+cal)", "SyDListener -> SyDDirectory", fmt.Sprintf("%d", count()-before))

	before = count()
	if _, err := w.Dir.LookupService(ctx, calendar.ServiceFor(users[1])); err != nil {
		return nil, err
	}
	res.AddRow("lookup cal."+users[1], "SyDEngine -> SyDDirectory", fmt.Sprintf("%d", count()-before))

	before = count()
	var info calendar.SlotInfo
	err = w.Nodes[users[0]].Engine.Invoke(ctx, calendar.ServiceFor(users[1]), "SlotInfo",
		wire.Args{wire.Str("day", "2003-04-21"), wire.Int("hour", 9)}, &info)
	if err != nil {
		return nil, err
	}
	res.AddRow("single invoke SlotInfo", "SyDEngine -> SyDListener", fmt.Sprintf("%d", count()-before))

	before = count()
	if err := w.Dir.CreateGroup(ctx, "team", users[1:]); err != nil {
		return nil, err
	}
	results, err := w.Nodes[users[0]].Engine.InvokeGroupName(ctx, "team", calendar.ServicePrefix+"%s", "ListMeetings", nil)
	if err != nil {
		return nil, err
	}
	res.AddRow(fmt.Sprintf("group invoke over %d members", len(results)),
		"SyDEngine (fan-out + aggregation)", fmt.Sprintf("%d", count()-before))

	// Directory op throughput.
	const ops = 5000
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := w.Dir.LookupService(ctx, calendar.ServiceFor(users[1])); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	res.AddRow("directory lookup throughput", "SyDDirectory",
		varies("%.0f ops/sec", float64(ops)/elapsed.Seconds()))
	return res, nil
}

// attrOf returns the value of attrs' key, or "".
func attrOf(attrs []trace.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// RunF4 reproduces Figure 4 (the UML activity diagram of a
// negotiation-or across objects A, B, C): it prints the step-accurate
// protocol trace and then checks the §4.3 semantics table for every
// constraint against every availability pattern of B and C.
func RunF4() (*Result, error) {
	res := &Result{
		ID:     "F4",
		Title:  "Fig.4 negotiation-or activity diagram: protocol trace + §4.3 semantics",
		Header: []string{"phase", "entity", "ok", "detail"},
	}
	ctx := context.Background()
	users := []string{"A", "B", "C"}
	w, err := NewWorld(users, sim.Config{})
	if err != nil {
		return nil, err
	}
	slot := calendar.Slot{Day: "2003-04-21", Hour: 14}
	// B is busy so the or-negotiation exercises both branches of the
	// diagram (one lock obtained, one refused).
	if err := w.Cals["B"].MarkBusy(slot, "class", 0); err != nil {
		return nil, err
	}
	spec := links.Spec{
		Action:     calendar.ActionReserve,
		Args:       wire.Args{wire.Str("meeting", "F4-M"), wire.Int("priority", 0), wire.Str("day", slot.Day), wire.Int("hour", slot.Hour)},
		Targets:    []links.EntityRef{{User: "B", Entity: slot.Entity()}, {User: "C", Entity: slot.Entity()}},
		Constraint: links.Or,
		Local:      &links.LocalChange{Entity: slot.Entity(), Action: calendar.ActionReserve, Args: wire.Args{wire.Str("meeting", "F4-M"), wire.Int("priority", 0)}},
	}
	// The steps are the events of A's links.Negotiate span.
	col := trace.NewCollector()
	w.Cals["A"].Links().SetTracer(col.Tracer("A", trace.WithSampleRate(1)))
	outcome, err := w.Cals["A"].Links().Negotiate(ctx, spec)
	if err != nil {
		return nil, err
	}
	var negotiation *trace.Span
	for _, s := range col.Spans() {
		if s.Name == "links.Negotiate" {
			negotiation = s
		}
	}
	if negotiation == nil || attrOf(negotiation.Attrs, "nid") != outcome.NID {
		return nil, fmt.Errorf("F4: no links.Negotiate span for %s", outcome.NID)
	}
	for _, e := range negotiation.Events {
		switch e.Name {
		case "mark", "change", "unlock", "abort":
			// A refused mark's detail is its wire.Reason.
			res.AddRow(e.Name, attrOf(e.Attrs, "entity"), attrOf(e.Attrs, "ok"), attrOf(e.Attrs, "reason"))
		case "constraint":
			res.AddRow(e.Name, "", attrOf(e.Attrs, "ok"), fmt.Sprintf("%s k=%s locked=%s n=%s",
				attrOf(e.Attrs, "constraint"), attrOf(e.Attrs, "k"), attrOf(e.Attrs, "locked"), attrOf(e.Attrs, "n")))
		case "journal.begin":
			// The row is keyed by the span's nid, minted with a per-process prefix.
			res.AddRow("journal", "", "true", "<negotiation id>")
		}
	}
	res.AddNote("accepted=%v rejected=%v — matches Fig.4: A locks itself, marks B and C, B refuses, constraint or(k=1) holds, A and C change", outcome.Accepted, outcome.Rejected)

	// §4.3 semantics sweep: constraint x availability pattern.
	type pattern struct {
		name       string
		bBusy      bool
		cBusy      bool
		constraint links.Constraint
		k          int
		wantOK     bool
	}
	patterns := []pattern{
		{"and both free", false, false, links.And, 0, true},
		{"and one busy", true, false, links.And, 0, false},
		{"or both busy", true, true, links.Or, 0, false},
		{"or one busy", true, false, links.Or, 0, true},
		{"xor both free", false, false, links.Xor, 0, false},
		{"xor one busy", true, false, links.Xor, 0, true},
		{"xor both busy", true, true, links.Xor, 0, false},
		{"2-of-2 free", false, false, links.Or, 2, true},
		{"2-of-2 one busy", true, false, links.Or, 2, false},
	}
	for _, p := range patterns {
		w2, err := NewWorld(users, sim.Config{})
		if err != nil {
			return nil, err
		}
		if p.bBusy {
			if err := w2.Cals["B"].MarkBusy(slot, "x", 0); err != nil {
				return nil, err
			}
		}
		if p.cBusy {
			if err := w2.Cals["C"].MarkBusy(slot, "x", 0); err != nil {
				return nil, err
			}
		}
		sp := spec
		sp.Constraint = p.constraint
		sp.K = p.k
		got, _ := w2.Cals["A"].Links().Negotiate(ctx, sp)
		okStr := fmt.Sprintf("%v", got.OK)
		verdict := "PASS"
		if got.OK != p.wantOK {
			verdict = "FAIL"
		}
		res.AddRow("semantics:"+p.name, string(p.constraint), okStr, verdict)
		if got.OK != p.wantOK {
			return res, fmt.Errorf("semantics %s: got %v want %v", p.name, got.OK, p.wantOK)
		}
	}
	return res, nil
}
