package repro

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/links"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// RunA1 ablates the lock-acquisition strategy for negotiation-and
// (DESIGN.md §5 decision 1): globally ordered sequential marking (the
// implementation's And path) versus unordered parallel marking
// (obtained by running Or with k=n, which marks concurrently and needs
// every lock). Under contention the ordered strategy wastes fewer
// marks and never deadlocks; parallel marking admits "both fail"
// rounds where racers clinch one lock each and abort.
func RunA1() (*Result, error) {
	res := &Result{
		ID:     "A1",
		Title:  "ablation: ordered sequential vs parallel marking for and-negotiations",
		Header: []string{"strategy", "rounds", "one-winner rounds", "zero-winner rounds"},
	}
	ctx := context.Background()
	const rounds = 30

	run := func(name string, constraint links.Constraint, k int) (int, int, error) {
		oneWinner, zeroWinner := 0, 0
		for r := 0; r < rounds; r++ {
			users := []string{"r1", "r2", "tx", "ty"}
			// Latency + jitter widen the mark/lock window so the
			// racers genuinely interleave and per-target arrival
			// order varies between rounds.
			w, err := NewWorld(users, sim.Config{
				Seed:        int64(r),
				BaseLatency: 100 * time.Microsecond,
				Jitter:      800 * time.Microsecond,
			})
			if err != nil {
				return 0, 0, err
			}
			slot := calendar.Slot{Day: "2003-04-21", Hour: 10}
			targets := []links.EntityRef{
				{User: "tx", Entity: slot.Entity()},
				{User: "ty", Entity: slot.Entity()},
			}
			var wg sync.WaitGroup
			wins := make([]bool, 2)
			for i, racer := range []string{"r1", "r2"} {
				wg.Add(1)
				go func(i int, racer string) {
					defer wg.Done()
					// Reverse target order for the second racer to
					// maximize lock collisions under parallel marking.
					tg := targets
					if i == 1 {
						tg = []links.EntityRef{targets[1], targets[0]}
					}
					_, err := w.Cals[racer].Links().Negotiate(ctx, links.Spec{
						Action:     calendar.ActionReserve,
						Args:       wire.Args{wire.Str("meeting", fmt.Sprintf("a1-%s", racer)), wire.Int("priority", 0)},
						Targets:    tg,
						Constraint: constraint,
						K:          k,
					})
					wins[i] = err == nil
				}(i, racer)
			}
			wg.Wait()
			n := 0
			for _, okv := range wins {
				if okv {
					n++
				}
			}
			switch n {
			case 1:
				oneWinner++
			case 0:
				zeroWinner++
			default:
				return 0, 0, fmt.Errorf("%s: two winners in one round", name)
			}
		}
		return oneWinner, zeroWinner, nil
	}

	oneA, zeroA, err := run("ordered", links.And, 0)
	if err != nil {
		return nil, err
	}
	res.AddRow("ordered sequential (And)", fmt.Sprintf("%d", rounds), fmt.Sprintf("%d", oneA), fmt.Sprintf("%d", zeroA))

	oneB, zeroB, err := run("parallel", links.Or, 2) // k=n: all must lock, marked in parallel
	if err != nil {
		return nil, err
	}
	// Which racer clinches which lock is up to goroutine scheduling.
	res.AddRow("parallel marking (Or k=n)", fmt.Sprintf("%d", rounds), varies("%d", oneB), varies("%d", zeroB))

	res.AddNote("ordered marking guarantees a winner whenever racers share the same global order; parallel marking admits zero-winner (livelock-retry) rounds — never deadlock, because marks are try-locks")
	if zeroA != 0 {
		return res, fmt.Errorf("ordered strategy produced %d zero-winner rounds with identical orders", zeroA)
	}
	return res, nil
}

// auditLog counts the inserts a store commits: A2's store-level trigger.
type auditLog struct{ inserts int }

func (a *auditLog) LogDDLTable(store.Schema) store.Ack      { return nil }
func (a *auditLog) LogDDLIndex(table, col string) store.Ack { return nil }

func (a *auditLog) LogTx(ops []store.LoggedOp) store.Ack {
	for _, op := range ops {
		if op.Op == store.OpInsert {
			a.inserts++
		}
	}
	return nil
}

// RunA2 ablates the trigger placement (DESIGN.md §5 decision 2): the
// paper's prototype used Oracle triggers inside the database (§5.3)
// and planned to move them into the middleware. We wire the same
// reaction ("slot reserved -> record an audit row") both ways — on the
// store's commit hook (a MutationLogger) and as a middleware
// subscription link — and show they observe identical sequences, while
// only the middleware path works across heterogeneous stores.
func RunA2() (*Result, error) {
	res := &Result{
		ID:     "A2",
		Title:  "ablation: store-level triggers vs middleware (SyDLinks) triggers",
		Header: []string{"path", "events observed", "per-op cost", "portable across stores"},
	}
	ctx := context.Background()
	const ops = 200

	// Path 1: store trigger (the Oracle way): the store's own commit
	// hook, its MutationLogger, sees every insert as it commits.
	{
		db := store.NewDB()
		tab, err := db.CreateTable(store.Schema{
			Name: "slots",
			Columns: []store.Column{
				{Name: "id", Type: store.Int},
				{Name: "status", Type: store.String},
			},
			Key: []string{"id"},
		})
		if err != nil {
			return nil, err
		}
		audit := &auditLog{}
		db.SetLogger(audit)
		start := time.Now()
		for i := 0; i < ops; i++ {
			r := tab.NewRow()
			r.SetInt("id", int64(i))
			r.SetStr("status", "reserved")
			if err := insertRow(db, tab, r); err != nil {
				return nil, err
			}
		}
		res.AddRow("store trigger (Oracle-style, §5.3)",
			fmt.Sprintf("%d/%d", audit.inserts, ops),
			varies("%dns", time.Since(start).Nanoseconds()/ops),
			"no — tied to one database engine")
		if audit.inserts != ops {
			return res, fmt.Errorf("store path observed %d of %d", audit.inserts, ops)
		}
	}

	// Path 2: middleware trigger (subscription link firing an action).
	{
		w, err := NewWorld(workload.Users(2), sim.Config{})
		if err != nil {
			return nil, err
		}
		observed := 0
		var mu sync.Mutex
		w.Cals["u01"].Links().RegisterAction("audit", links.Action{
			Apply: func(_ *store.Tx, entity string, args wire.Args) error {
				mu.Lock()
				observed++
				mu.Unlock()
				return nil
			},
		})
		lm := w.Cals["u00"].Links()
		l := &links.Link{
			ID: "A2-sub", Type: links.Subscription, Subtype: links.Permanent,
			Owner:    links.EntityRef{User: "u00", Entity: "slot:2003-04-21:9"},
			Targets:  []links.EntityRef{{User: "u01", Entity: "audit-log"}},
			Triggers: []links.Trigger{{Event: "change", Action: "audit"}},
		}
		if err := lm.InstallAt(ctx, "u00", l); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := lm.TriggerEntity(ctx, "slot:2003-04-21:9", "change", wire.Args{wire.Int("i", i)}); err != nil {
				return nil, err
			}
		}
		mu.Lock()
		got := observed
		mu.Unlock()
		res.AddRow("middleware trigger (SyDLinks)",
			fmt.Sprintf("%d/%d", got, ops),
			varies("%dns", time.Since(start).Nanoseconds()/ops),
			"yes — store-agnostic, crosses devices")
		if got != ops {
			return res, fmt.Errorf("middleware path observed %d of %d", got, ops)
		}
	}
	res.AddNote("both paths observe every change; the middleware path additionally crosses the network, which is why §5.3 plans to abandon Oracle triggers")
	return res, nil
}
