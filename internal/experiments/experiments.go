// Package experiments regenerates every figure- and table-equivalent
// of the paper's evaluation (see DESIGN.md §4 for the index):
//
//	F1-F4  executable reproductions of the paper's four figures
//	E1-E5  the §4.4/§5 calendar scenarios
//	T1     the §6 comparison against "existing calendar applications"
//	T2     performance sweeps implied by §5.1/§7
//	A1-A2  ablations of design decisions (DESIGN.md §5)
//
// Each experiment builds a fresh simulated deployment, runs the
// workload, and returns a Result whose rows cmd/sydbench prints. The
// same functions back the testing.B benchmarks in bench_test.go.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/sim"
)

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-form note line.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	if len(r.Header) > 0 {
		line(r.Header)
		var dashes []string
		for _, w := range widths {
			dashes = append(dashes, strings.Repeat("-", w))
		}
		line(dashes)
	}
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// World is a simulated SyD deployment shared by the experiments.
type World struct {
	Net   *sim.Net
	Clk   *clock.Fake
	Dir   *directory.Client
	Mail  *notify.Mailbox
	Cals  map[string]*calendar.Calendar
	Nodes map[string]*core.Node

	// Controller and CPAddr are set on sharded worlds
	// (NewShardedWorld): the control plane publishing the shard map,
	// and its simulated address.
	Controller *controlplane.Controller
	CPAddr     string
}

// NewWorld boots a directory plus one calendar node per user on a
// fresh simulated network.
func NewWorld(users []string, cfg sim.Config) (*World, error) {
	net := sim.New(cfg)
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		return nil, err
	}
	w := &World{
		Net:   net,
		Clk:   clk,
		Dir:   directory.NewClient(net, "dir"),
		Mail:  notify.NewMailbox(),
		Cals:  map[string]*calendar.Calendar{},
		Nodes: map[string]*core.Node{},
	}
	for _, u := range users {
		if err := w.AddUser(u, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// NewShardedWorld is NewWorld against a sharded directory: shards
// shard servers at "dir0".."dirN-1" behind a control plane at "cp",
// with every node routing through the epoch-versioned shard map.
func NewShardedWorld(users []string, cfg sim.Config, shards int) (*World, error) {
	net := sim.New(cfg)
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	list := make([]controlplane.Shard, shards)
	servers := make([]*directory.Server, shards)
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard%d", i)
		srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour), directory.WithShard(id))
		ln, err := net.Listen(fmt.Sprintf("dir%d", i), srv.Handler())
		if err != nil {
			return nil, err
		}
		list[i] = controlplane.Shard{ID: id, Addr: ln.Addr()}
		servers[i] = srv
	}
	ctl := controlplane.NewController(list)
	for _, srv := range servers {
		ctl.Subscribe(srv.SetTable)
	}
	if _, err := net.Listen("cp", ctl.Handler()); err != nil {
		return nil, err
	}
	w := &World{
		Net:        net,
		Clk:        clk,
		Dir:        directory.NewShardedClient(net, "cp"),
		Mail:       notify.NewMailbox(),
		Cals:       map[string]*calendar.Calendar{},
		Nodes:      map[string]*core.Node{},
		Controller: ctl,
		CPAddr:     "cp",
	}
	for _, u := range users {
		if err := w.AddUser(u, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// AddUser boots one more calendar node. Nodes record per-method
// metrics into the process default registry, so a sydbench run (or a
// test) can snapshot every layer's counts and latencies afterwards.
// Nodes run with the engine route cache at sydnode's production
// default TTL, so measured worlds match a deployed fleet; the cache
// invalidates eagerly on unreachable peers and proxy failover, which
// keeps the failover experiments honest.
func (w *World) AddUser(user string, priority int) error {
	ctx := context.Background()
	n, err := core.Start(ctx, core.Config{
		User: user, Net: w.Net, DirAddr: "dir", ControlPlaneAddr: w.CPAddr,
		Clock: w.Clk, Priority: priority,
		RouteCacheTTL: 2 * time.Second,
		Metrics:       metrics.Default(),
	})
	if err != nil {
		return err
	}
	c, err := calendar.New(ctx, n, calendar.WithNotifier(w.Mail))
	if err != nil {
		return err
	}
	w.Nodes[user] = n
	w.Cals[user] = c
	return nil
}

// Registry maps experiment ids to runners.
type Runner func() (*Result, error)

// All returns every experiment keyed by id, plus the sorted id list.
func All() (map[string]Runner, []string) {
	m := map[string]Runner{
		"F1":  RunF1,
		"F2":  RunF2,
		"F3":  RunF3,
		"F3s": RunF3Sharded,
		"F4":  RunF4,
		"E1":  RunE1,
		"E2":  RunE2,
		"E3":  RunE3,
		"E4":  RunE4,
		"E5":  RunE5,
		"E6":  RunE6,
		"T1":  RunT1,
		"T2":  RunT2,
		"A1":  RunA1,
		"A2":  RunA2,
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return m, ids
}
