// Package bench holds the benchmark bodies shared between the
// top-level `go test -bench` harness (bench_test.go) and the sydbench
// -bench-json trajectory runner, so both entry points measure exactly
// the same code. The trajectory suite — the kernel micro benchmarks
// plus the four figure-equivalents — is what BENCH_rpc.json tracks
// across PRs.
package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/links"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Experiment runs one registered experiment per iteration (the F/E/T
// figure- and table-equivalents; each run also verifies the
// paper-shape assertions).
func Experiment(b *testing.B, id string) {
	b.Helper()
	reg, _ := experiments.All()
	run, ok := reg[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroEngineInvoke measures one directory-resolved remote invocation
// on an ideal network.
func MicroEngineInvoke(b *testing.B) {
	ctx := context.Background()
	w, err := experiments.NewWorld(workload.Users(2), sim.Config{})
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

// MicroDirectoryLookupSharded measures one route-only directory
// resolution against a 4-shard directory behind the control plane —
// the uncached data-plane hop a cold engine pays per invocation,
// including the shard-map routing and the epoch check on the reply.
func MicroDirectoryLookupSharded(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(4)
	w, err := experiments.NewShardedWorld(users, sim.Config{}, 4)
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

// MicroGroupInvoke measures a fan-out over 8 members.
func MicroGroupInvoke(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(9)
	w, err := experiments.NewWorld(users, sim.Config{})
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
		if !engine.AllOK(results) {
			b.Fatal(engine.FirstError(results))
		}
	}
}

// MicroNegotiationAnd measures a full two-phase negotiation-and over
// three remote entities (reserve + release).
func MicroNegotiationAnd(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(4)
	w, err := experiments.NewWorld(users, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	slot := calendar.Slot{Day: "2003-04-21", Hour: 9}
	targets := []links.EntityRef{
		{User: "u01", Entity: slot.Entity()},
		{User: "u02", Entity: slot.Entity()},
		{User: "u03", Entity: slot.Entity()},
	}
	lm := w.Cals["u00"].Links()
	eng := w.Nodes["u00"].Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meeting := fmt.Sprintf("bench-%d", i)
		if _, err := lm.Negotiate(ctx, links.Spec{
			Action:     calendar.ActionReserve,
			Args:       wire.Args{"meeting": meeting, "priority": 0},
			Targets:    targets,
			Constraint: links.And,
		}); err != nil {
			b.Fatal(err)
		}
		for _, tgt := range targets {
			if err := eng.Invoke(ctx, links.ServiceFor(tgt.User), "Apply", wire.Args{
				"entity": tgt.Entity, "action": calendar.ActionRelease,
				"args": map[string]any{"meeting": meeting},
			}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// replayReader serves the same byte sequence forever — an endless
// stream of identical frames for decoder benchmarks.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// MicroWireCodecV3 measures one codec-v3 frame round trip — encode a
// representative negotiation request into a pooled FrameBuffer, then
// decode an identical frame through a warm FrameReader — the per-frame
// cost every RPC between two v3 nodes pays.
func MicroWireCodecV3(b *testing.B) {
	env := &wire.Envelope{Kind: wire.KindRequest, Request: &wire.Request{
		ID:      42,
		Service: "links.u01",
		Method:  "Mark",
		Caller:  "u00",
		Args: wire.Args{
			"entity": "slot:2003-04-21:9",
			"action": "reserve",
			"nid":    "N-4f3a2b1c-9",
			"args":   map[string]any{"meeting": "bench", "priority": int64(0)},
		},
		Meta: wire.Metadata{"request-id": "r-4f3a2b1c", "hops": "1"},
	}}
	seed, err := wire.EncodeFrameCodec(env, wire.CodecV3)
	if err != nil {
		b.Fatal(err)
	}
	stream := &replayReader{data: append([]byte(nil), seed.Bytes()...)}
	seed.Release()
	fr := wire.NewFrameReader(stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := wire.EncodeFrameCodec(env, wire.CodecV3)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
		if _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// MicroMeetingLifecycle measures setup + cancel of a three-party
// meeting (the full link topology install and cascade).
func MicroMeetingLifecycle(b *testing.B) {
	ctx := context.Background()
	users := workload.Users(3)
	w, err := experiments.NewWorld(users, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	day := time.Date(2003, 4, 21, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := day.AddDate(0, 0, i%30).Format("2006-01-02")
		m, err := w.Cals["u00"].SetupMeeting(ctx, calendar.Request{
			Title: "bench", Day: d, Hour: 9 + i%8, PinSlot: true,
			Must: users[1:],
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Cals["u00"].CancelMeeting(ctx, m.ID); err != nil {
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

// MicroWALShip measures one replication shipping round: a logged
// store mutation on the primary's durable database, read back as raw
// WAL frames and verified-then-applied by a follower receiver — the
// per-commit cost of keeping a warm standby current.
func MicroWALShip(b *testing.B) {
	prim, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer prim.Close()
	tbl := prim.DB.MustCreateTable(slotSchema)
	recv, err := wal.OpenReceiver(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	ship := func() {
		batch, err := prim.ReadFrames(recv.AppliedLSN()+1, 1<<20)
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
		if err := tbl.Insert(store.Row{"entity": fmt.Sprintf("e%d", i), "holder": "bench"}); err != nil {
			b.Fatal(err)
		}
		ship()
	}
	b.StopTimer()
	if recv.AppliedLSN() != prim.LastLSN() {
		b.Fatalf("follower at %d, primary at %d", recv.AppliedLSN(), prim.LastLSN())
	}
}

// F4FailoverRecovery measures a complete failover round: a replicated
// primary with acked state dies, its follower wins the expired lease,
// boots a full node over the shipped WAL, and the directory re-points
// — the end-to-end recovery cost of the replication subsystem (the
// lease wait itself is skipped via a manual clock; what is measured is
// the machinery, not the configured TTL).
func F4FailoverRecovery(b *testing.B) {
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
		tbl := x.DB.MustCreateTable(slotSchema)
		if err := tbl.Insert(store.Row{"entity": "s0", "holder": "M0"}); err != nil {
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
		for f.AppliedLSN() < x.Durable.LastLSN() {
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
		if r, ok := t2.Get("s0"); !ok || r["holder"].(string) != "M0" {
			b.Fatalf("replicated slot lost: %v", r)
		}
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = x2.Close(cctx)
		cancel()
		_ = f.Close()
		_ = x.Durable.Close()
	}
}

// MicroSyncReconnect measures one disconnected-operation round trip:
// a device in local mode with queued bookings (and one queued
// cancellation) reconnects — directory Touch, queue push through the
// real negotiation path, and the relevance pull are all inside the
// timed region. World construction and the offline queuing itself are
// excluded.
func MicroSyncReconnect(b *testing.B) {
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
				OfflineMode: true, OfflineQueueCap: 64,
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

// Def names one benchmark in the trajectory suite.
type Def struct {
	Name string
	Run  func(*testing.B)
}

// Trajectory lists the benchmarks sydbench -bench-json runs, in order:
// the kernel micro benchmarks, then the figure-equivalents F1-F4.
func Trajectory() []Def {
	return []Def{
		{Name: "Micro_EngineInvoke", Run: MicroEngineInvoke},
		{Name: "Micro_DirectoryLookupSharded", Run: MicroDirectoryLookupSharded},
		{Name: "Micro_GroupInvoke", Run: MicroGroupInvoke},
		{Name: "Micro_NegotiationAnd", Run: MicroNegotiationAnd},
		{Name: "Micro_WireCodecV3", Run: MicroWireCodecV3},
		{Name: "Micro_MeetingLifecycle", Run: MicroMeetingLifecycle},
		{Name: "F1_LayeredInvocation", Run: func(b *testing.B) { Experiment(b, "F1") }},
		{Name: "F2_LayerOverhead", Run: func(b *testing.B) { Experiment(b, "F2") }},
		{Name: "F3_DirectoryOps", Run: func(b *testing.B) { Experiment(b, "F3") }},
		{Name: "F4_NegotiationOr", Run: func(b *testing.B) { Experiment(b, "F4") }},
		{Name: "Micro_WALShip", Run: MicroWALShip},
		{Name: "Micro_SyncReconnect", Run: MicroSyncReconnect},
		{Name: "F4_FailoverRecovery", Run: F4FailoverRecovery},
	}
}

// Result is one benchmark's measurement in a trajectory run —
// the JSON row BENCH_rpc.json stores.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// Run executes def with testing.Benchmark and converts the outcome.
func Run(def Def) Result {
	r := testing.Benchmark(def.Run)
	return Result{
		Name:        def.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
