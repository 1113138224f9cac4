package scale

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Kernel timer cadences. Every per-device schedule is offset by the
// device index times epsilon so no two deadlines ever coincide: equal
// deadlines fire in After-call order, and the only window where After
// calls race (fleet boot, before Resume) would make that order — and
// therefore the whole run — nondeterministic.
const (
	worldStartHour = 8
	heartbeatBase  = 30 * time.Minute
	expireBase     = time.Hour
	leaseBase      = 10 * time.Minute
	pullBase       = 5 * time.Minute
	leaseCheckBase = 7 * time.Minute
	epsilon        = time.Microsecond
)

// hubCount is how many Zipf-head users the replicated topology backs
// with warm standbys.
const hubCount = 4

// world is one booted fleet.
type world struct {
	clk   *clock.Fake
	net   *sim.Net
	dir   *directory.Client
	users []string
	nodes map[string]*core.Node
	cals  map[string]*calendar.Calendar

	followers []*replication.Follower
	dataRoot  string // removed at teardown when created by boot
	hubs      []string
}

// worldStart is the simulated workday's 08:00 (the paper's era).
func worldStart() time.Time {
	return time.Date(2003, 4, 21, worldStartHour, 0, 0, 0, time.UTC)
}

// boot builds the topology with the clock paused: directory plane,
// one calendar node per user (staggered heartbeat/expiry schedules),
// and — for Replicated — durable hub primaries with one warm standby
// each. Nothing advances until drive() calls Resume.
func boot(cfg Config) (*world, error) {
	ctx := context.Background()
	clk := clock.NewFake(worldStart())
	net := sim.New(sim.Config{Clock: clk, Seed: cfg.Seed})
	w := &world{
		clk:   clk,
		net:   net,
		users: workload.Users(cfg.Devices),
		nodes: make(map[string]*core.Node, cfg.Devices),
		cals:  make(map[string]*calendar.Calendar, cfg.Devices),
	}

	// Directory plane.
	dirAddr, cpAddr := "", ""
	switch cfg.Topology {
	case Single:
		srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(100*time.Hour))
		if _, err := net.Listen("dir", srv.Handler()); err != nil {
			w.teardown()
			return nil, err
		}
		dirAddr = "dir"
		w.dir = directory.NewClient(net, "dir")
	case Sharded4, Replicated:
		const shards = 4
		list := make([]controlplane.Shard, shards)
		servers := make([]*directory.Server, shards)
		for i := 0; i < shards; i++ {
			id := fmt.Sprintf("shard%d", i)
			srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(100*time.Hour), directory.WithShard(id))
			ln, err := net.Listen(fmt.Sprintf("dir%d", i), srv.Handler())
			if err != nil {
				w.teardown()
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
			w.teardown()
			return nil, err
		}
		cpAddr = "cp"
		w.dir = directory.NewShardedClient(net, "cp")
	default:
		w.teardown()
		return nil, fmt.Errorf("scale: unknown topology %q", cfg.Topology)
	}

	// Replicated: the Zipf head gets durable storage and a standby.
	if cfg.Topology == Replicated {
		w.hubs = append(w.hubs, w.users[:min(hubCount, cfg.Devices)]...)
		w.dataRoot = cfg.DataRoot
		if w.dataRoot == "" {
			root, err := os.MkdirTemp("", "sydscale-*")
			if err != nil {
				w.teardown()
				return nil, err
			}
			w.dataRoot = root
		}
	}

	// Fleet.
	commuters := commuterSet(cfg)
	for i, u := range w.users {
		eps := time.Duration(i) * epsilon
		nc := core.Config{
			User: u, Net: net, DirAddr: dirAddr, ControlPlaneAddr: cpAddr,
			Clock:          clk,
			HeartbeatEvery: heartbeatBase + eps,
			ExpireEvery:    expireBase + eps,
			RouteCacheTTL:  10 * time.Minute,
		}
		if commuters[u] {
			nc.OfflineMode = true
			nc.OfflineQueueCap = 256
		}
		if w.isHub(u) {
			nc.DataDir = filepath.Join(w.dataRoot, "hub-"+u)
			nc.WALSync = wal.SyncNone
			nc.LeaseTTL = leaseBase + eps
			nc.Replicas = []string{"repl-" + u}
		}
		n, err := core.Start(ctx, nc)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("scale: boot %s: %w", u, err)
		}
		c, err := calendar.New(ctx, n)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("scale: calendar %s: %w", u, err)
		}
		if n.Offline != nil {
			c.EnableSync(n.Offline)
		}
		w.nodes[u] = n
		w.cals[u] = c
	}

	// Warm standbys for the hubs. The promotion path should stay cold —
	// hub leases are renewed on the same compressed clock — so an
	// actual promotion is reported as a harness error.
	for i, u := range w.hubs {
		eps := time.Duration(i) * epsilon
		u := u
		f, err := replication.StartFollower(ctx, replication.FollowerConfig{
			User: u, Net: net, Dir: w.dir,
			DataDir:         filepath.Join(w.dataRoot, "follower-"+u),
			ListenAddr:      "repl-" + u,
			LeaseTTL:        leaseBase + eps,
			Clock:           clk,
			PullEvery:       pullBase + eps,
			LeaseCheckEvery: leaseCheckBase + eps,
			Promote: func(context.Context, string) (string, error) {
				return "", fmt.Errorf("scale: unexpected promotion of %s (lease lost under a healthy primary)", u)
			},
		})
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("scale: follower %s: %w", u, err)
		}
		w.followers = append(w.followers, f)
	}
	return w, nil
}

func (w *world) isHub(u string) bool {
	for _, h := range w.hubs {
		if h == u {
			return true
		}
	}
	return false
}

// commuterSet marks the devices that run in offline mode for the flap
// scenario (every tenth device; empty for other scenarios).
func commuterSet(cfg Config) map[string]bool {
	out := map[string]bool{}
	if cfg.Scenario != "flap" {
		return out
	}
	users := workload.Users(cfg.Devices)
	for i, u := range users {
		if i%10 == 9 {
			out[u] = true
		}
	}
	return out
}

// teardown pauses virtual time and dismantles the fleet. It is safe on
// a partially built world.
func (w *world) teardown() {
	w.clk.Pause()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, f := range w.followers {
		_ = f.Close()
	}
	for _, u := range w.users {
		if n := w.nodes[u]; n != nil {
			_ = n.Close(ctx)
		}
	}
	w.clk.Stop()
	if w.dataRoot != "" {
		_ = os.RemoveAll(w.dataRoot)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
