package scale

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/transport"
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
	load  *dirLoad
	users []string
	nodes map[string]*core.Node
	cals  map[string]*calendar.Calendar

	// refused is the one registry every node's links manager counts its
	// failed negotiation steps in.
	refused   *metrics.Registry
	followers []*replication.Follower
	dataRoot  string // removed at teardown when created by boot
	hubs      []string
}

// worldStart is the simulated workday's 08:00 (the paper's era).
func worldStart() time.Time {
	return time.Date(2003, 4, 21, worldStartHour, 0, 0, 0, time.UTC)
}

// boot builds the topology with the clock paused: one directory,
// one calendar node per user (staggered heartbeat/expiry schedules),
// and — for Replicated — durable hub primaries with one warm standby
// each. Nothing advances until drive() calls Resume.
func boot(cfg Config) (*world, error) {
	ctx := context.Background()
	clk := clock.NewFake(worldStart())
	net := sim.New(sim.Config{Clock: clk, Seed: cfg.Seed})
	w := &world{
		clk:     clk,
		net:     net,
		users:   workload.Users(cfg.Devices),
		nodes:   make(map[string]*core.Node, cfg.Devices),
		cals:    make(map[string]*calendar.Calendar, cfg.Devices),
		load:    &dirLoad{clk: clk, byMethod: map[string]int64{}, perMinute: map[int64]int64{}},
		refused: metrics.NewRegistry(),
	}

	if cfg.Topology != Single && cfg.Topology != Replicated {
		w.teardown()
		return nil, fmt.Errorf("scale: unknown topology %q", cfg.Topology)
	}
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(100*time.Hour))
	if _, err := net.Listen("dir", w.load.wrap(srv.Handler())); err != nil {
		w.teardown()
		return nil, err
	}
	w.dir = directory.NewClient(net, "dir")

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
			User: u, Net: net, DirAddr: "dir",
			Clock:          clk,
			HeartbeatEvery: heartbeatBase + eps,
			ExpireEvery:    expireBase + eps,
			RouteCacheTTL:  10 * time.Minute,
		}
		if commuters[u] {
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
		n.Links.SetMetrics(w.refused)
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

// dirLoad counts the requests the directory serves, by method and by
// virtual minute of the day. Boot registers the whole fleet with the
// clock paused at worldStart, so minute 0 holds it.
type dirLoad struct {
	clk       clock.Clock
	mu        sync.Mutex
	byMethod  map[string]int64
	perMinute map[int64]int64
}

func (d *dirLoad) wrap(h transport.Handler) transport.Handler {
	return transport.HandlerFunc(func(ctx context.Context, req *transport.Request) transport.Response {
		minute := int64(d.clk.Now().Sub(worldStart()) / time.Minute)
		d.mu.Lock()
		d.byMethod[req.Method]++
		d.perMinute[minute]++
		d.mu.Unlock()
		return h.HandleRequest(ctx, req)
	})
}

// report snapshots the counts.
func (d *dirLoad) report() DirectoryLoad {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := DirectoryLoad{ByMethod: make(map[string]int64, len(d.byMethod))}
	for m, n := range d.byMethod {
		out.ByMethod[m] = n
	}
	for _, n := range d.perMinute {
		out.PeakMinute = max(out.PeakMinute, n)
	}
	return out
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
