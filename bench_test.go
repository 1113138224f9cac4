// Package repro holds the paper's experiments as tests (experiments_test.go:
// TestExperiments holds each one's table to EXPERIMENTS.md) and the
// benchmarks of kernel primitives no sydload workload reaches yet. Run
// the benchmarks with:
//
//	go test -run '^$' -bench . -benchmem .
//
// Their figures are for looking at: nothing is committed from them and
// nothing gates on them (benchmarks/ holds the judged ledger).
package repro

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/listener"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BenchmarkF4_FailoverRecovery measures a complete failover round: a
// replicated primary with acked state dies, its follower wins the
// expired lease, boots a full node over the shipped WAL, and the
// directory re-points — the end-to-end recovery cost of the
// replication subsystem (the lease wait itself is skipped via a manual
// clock; what is measured is the machinery, not the configured TTL).
func BenchmarkF4_FailoverRecovery(b *testing.B) {
	ctx := context.Background()
	const ttl = 30 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := sim.New(sim.Config{})
		clk := clock.NewFake(time.Date(2003, 4, 21, 9, 0, 0, 0, time.UTC))
		srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(100*time.Hour))
		if _, err := net.Listen("dir", srv.Handler()); err != nil {
			b.Fatal(err)
		}
		x, err := core.Start(ctx, core.Config{
			User: "x", Net: net, DirAddr: "dir", Clock: clk,
			DataDir: b.TempDir(), LeaseTTL: ttl, Replicas: []string{"r1"},
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := x.DB.CreateTable(slotSchema)
		if err != nil {
			b.Fatal(err)
		}
		if err := insertRow(x.DB, tbl, slotOf(tbl, "s0", "M0")); err != nil {
			b.Fatal(err)
		}
		promoted := make(chan *core.Node, 1)
		fdir := b.TempDir()
		f, err := replication.StartFollower(ctx, replication.FollowerConfig{
			User: "x", Net: net, Dir: directory.NewClient(net, "dir"),
			DataDir: fdir, ListenAddr: "r1", LeaseTTL: ttl, Clock: clk,
			Promote: func(pctx context.Context, holder string) (string, error) {
				n, err := core.Start(pctx, core.Config{
					User: "x", Net: net, DirAddr: "dir", Clock: clk,
					DataDir: fdir, LeaseTTL: ttl, LeaseHolder: holder,
				})
				if err != nil {
					return "", err
				}
				promoted <- n
				return n.Addr(), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		for f.Status().AppliedLSN < x.Durable.LastLSN() {
			if err := f.PullOnce(ctx); err != nil {
				b.Fatal(err)
			}
		}
		x.Events.Close()
		net.SetDown("node-x", true)
		clk.Advance(ttl + time.Second)
		did, err := f.CheckLease(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !did {
			b.Fatal("follower did not promote")
		}
		x2 := <-promoted
		t2, err := x2.DB.Table("slots")
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := getRow(t2, "s0"); !ok || r.Str("holder") != "M0" {
			b.Fatalf("replicated slot lost: %v", r)
		}
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = x2.Close(cctx)
		cancel()
		_ = f.Close()
		_ = x.Durable.Close()
	}
}

// --- micro benchmarks of the kernel primitives -----------------------------

// BenchmarkMicro_EngineInvoke measures one directory-resolved remote
// invocation on an ideal network.
func BenchmarkMicro_EngineInvoke(b *testing.B) {
	ctx := context.Background()
	w, err := NewWorld(workload.Users(2), sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng := w.Nodes["u00"].Engine
	svc := calendar.ServiceFor("u01")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Invoke(ctx, svc, "ListMeetings", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_DirectoryLookup measures one route-only directory
// resolution — the uncached hop a cold engine pays per invocation.
func BenchmarkMicro_DirectoryLookup(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(4)
	w, err := NewWorld(users, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(users))
	for i, u := range users {
		names[i] = calendar.ServiceFor(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Dir.ResolveService(ctx, names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_GroupInvoke measures a fan-out over 8 members.
func BenchmarkMicro_GroupInvoke(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(9)
	w, err := NewWorld(users, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	services := make([]string, 8)
	for i, u := range users[1:] {
		services[i] = calendar.ServiceFor(u)
	}
	eng := w.Nodes[users[0]].Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := eng.GroupInvoke(ctx, services, "ListMeetings", nil)
		if err := engine.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// slotSchema is the replicated table the replication benchmarks write.
var slotSchema = store.Schema{
	Name: "slots",
	Columns: []store.Column{
		{Name: "entity", Type: store.String},
		{Name: "holder", Type: store.String},
	},
	Key: []string{"entity"},
}

// BenchmarkMicro_WALShip measures one replication shipping round: a
// logged store mutation on the primary's durable database, read back
// as raw WAL frames and verified, logged and applied by a follower's
// durable database. The figure grows with b.N, so compare runs at one
// -benchtime Nx only: ReadFrames re-reads the live segment and decodes the LSN of every
// frame below the pull's start, on every pull.
func BenchmarkMicro_WALShip(b *testing.B) {
	prim, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	tbl, err := prim.DB.CreateTable(slotSchema)
	if err != nil {
		b.Fatal(err)
	}
	recv, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	ship := func() {
		batch, err := prim.ReadFrames(recv.LastLSN()+1, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if len(batch.Frames) > 0 {
			if _, err := recv.AppendFrames(batch.Frames); err != nil {
				b.Fatal(err)
			}
		}
	}
	ship() // drain the DDL record before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := insertRow(prim.DB, tbl, slotOf(tbl, fmt.Sprintf("e%d", i), "bench")); err != nil {
			b.Fatal(err)
		}
		ship()
	}
	b.StopTimer()
	if recv.LastLSN() != prim.LastLSN() {
		b.Fatalf("follower at %d, primary at %d", recv.LastLSN(), prim.LastLSN())
	}
}

// BenchmarkMicro_SyncReconnect measures one disconnected-operation
// round trip: a device in local mode with queued bookings (and one
// queued cancellation) reconnects — directory SetOffline, queue push through
// the real negotiation path, and the relevance pull are all inside the
// timed region. World construction and the offline queuing itself are
// excluded.
func BenchmarkMicro_SyncReconnect(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := sim.New(sim.Config{})
		clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
		srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
		if _, err := net.Listen("dir", srv.Handler()); err != nil {
			b.Fatal(err)
		}
		nodes := map[string]*core.Node{}
		cals := map[string]*calendar.Calendar{}
		for _, u := range []string{"mob", "phil"} {
			n, err := core.Start(ctx, core.Config{
				User: u, Net: net, DirAddr: "dir", Clock: clk,
				OfflineQueueCap: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			c, err := calendar.New(ctx, n)
			if err != nil {
				b.Fatal(err)
			}
			c.EnableSync(n.Offline)
			nodes[u], cals[u] = n, c
		}
		// A shared meeting makes phil a sync peer and gives the pull
		// phase state to scan.
		if _, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
			Title: "seed", Day: "2003-04-22", Hour: 9, PinSlot: true, Priority: 1,
			Must: []string{"mob"},
		}); err != nil {
			b.Fatal(err)
		}
		mob := cals["mob"]
		nodes["mob"].Offline.GoOffline(ctx)
		var last string
		for k := 0; k < 4; k++ {
			m, queued, err := mob.ScheduleOrQueue(ctx, calendar.Request{
				Title: "offline", Day: "2003-04-23", Hour: 9 + k, PinSlot: true, Priority: 1,
				Must: []string{"phil"},
			})
			if err != nil || !queued {
				b.Fatalf("queue op %d: queued=%v err=%v", k, queued, err)
			}
			last = m.ID
		}
		if _, err := mob.CancelOrQueue(ctx, last); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := nodes["mob"].Offline.TryReconnect(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := nodes["mob"].Offline.Queue().Len(); got != 0 {
			b.Fatalf("queue not drained: %d", got)
		}
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for _, n := range nodes {
			_ = n.Close(cctx)
		}
		cancel()
		b.StartTimer()
	}
}

// BenchmarkDirectoryCache contrasts the Invoke hot path with and
// without the client-side route cache: "uncached" pays a directory
// lookup per call, "cached" resolves once and then serves the route
// from memory (zero directory traffic on the warm path).
func BenchmarkDirectoryCache(b *testing.B) {
	setup := func(b *testing.B, opts ...engine.Option) *engine.Engine {
		b.Helper()
		net := sim.New(sim.Config{})
		srv := directory.NewServer(directory.WithTTL(time.Hour))
		dln, err := net.Listen("dir", srv.Handler())
		if err != nil {
			b.Fatal(err)
		}
		dir := directory.NewClient(net, dln.Addr())
		l := listener.New("phil", nil)
		obj := listener.NewObject()
		obj.Handle("Ping", func(ctx context.Context, call *listener.Call) (any, error) { return "pong", nil })
		l.Register("cal.phil", obj)
		nln, err := net.Listen("node-phil", l)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if err := dir.RegisterUser(ctx, "phil", nln.Addr(), 0); err != nil {
			b.Fatal(err)
		}
		if err := l.PublishGlobal(ctx, dir, "cal.phil", nln.Addr()); err != nil {
			b.Fatal(err)
		}
		return engine.New(net, dir, "andy", opts...)
	}
	run := func(b *testing.B, eng *engine.Engine) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Invoke(ctx, "cal.phil", "Ping", nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		run(b, setup(b))
	})
	b.Run("cached", func(b *testing.B) {
		run(b, setup(b, engine.WithDirCache(engine.NewDirCache(time.Hour))))
	})
}

// BenchmarkWALCommit measures the durable commit path under group
// commit: concurrent inserts share one write and one fsync per flusher
// batch, and fsyncs/op reports how many they shared. On fast storage
// (tmpfs) the sharing shows as fewer syscalls rather than less latency.
func BenchmarkWALCommit(b *testing.B) {
	d, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	tab, err := d.DB.CreateTable(store.Schema{
		Name: "bench",
		Columns: []store.Column{
			{Name: "id", Type: store.Int},
			{Name: "val", Type: store.String},
		},
		Key: []string{"id"},
	})
	if err != nil {
		b.Fatal(err)
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := atomic.AddInt64(&next, 1)
			r := tab.NewRow()
			r.SetInt("id", id)
			r.SetStr("val", "x")
			if err := insertRow(d.DB, tab, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := d.Stats()
	if st.Appends > 0 {
		b.ReportMetric(float64(st.Fsyncs)/float64(st.Appends), "fsyncs/op")
	}
}

// slotOf is a row of a slotSchema table: entity held by holder.
func slotOf(t *store.Table, entity, holder string) store.Row {
	r := t.NewRow()
	r.SetStr("entity", entity)
	r.SetStr("holder", holder)
	return r
}

// insertRow, updateRow and deleteRow write one row of tab in a unit of
// its own, and getRow copies one out of a visit: the one-row writes and
// point read of these tests. The writes copy what they are given, so a
// caller may reuse its rows.
func insertRow(db *store.DB, tab *store.Table, r store.Row) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Insert(tab.Schema().Name, r.Clone()) })
}

func getRow(tab *store.Table, key ...any) (row store.Row, ok bool) {
	ok = tab.View(func(r store.Row) { row = r.Clone() }, key...)
	return row, ok
}
