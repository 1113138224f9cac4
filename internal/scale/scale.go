// Package scale is the time-compressed fleet harness (ROADMAP item 4):
// it boots thousands of simulated devices — the paper's iPAQ-and-
// workstation deployment at a size the physical prototype could never
// reach — on the in-memory network under an auto-advancing fake clock,
// drives open-loop workloads against them, and reports SLO-shaped
// results (schedule-latency percentiles, negotiation outcome rates,
// queue depths, lock contention).
//
// Two properties make the harness useful as a CI gate:
//
//   - Time compression. Every kernel timer — heartbeats, link-expiry
//     sweeps, lease renewals, follower pulls, flap periods — waits on a
//     resumed clock.Fake, so a simulated eight-hour workday elapses in
//     wall-clock seconds. The clock advances only when every registered
//     goroutine is parked on it, one waiter at a time.
//   - Determinism. Execution is single-stepped: at most one clock
//     participant runs at any instant, every schedule is offset by a
//     per-device epsilon so no two deadlines collide, and operation
//     latency is *modeled* in virtual time (queue wait + an RPC-count-
//     driven service time) rather than measured in wall time. Two runs
//     with the same seed produce byte-identical reports, on any
//     machine, under any load.
package scale

import (
	"fmt"
	"time"

	"repro/internal/links"
)

// Topology selects the deployment shape under test.
type Topology string

const (
	// Single is one directory server at "dir".
	Single Topology = "single"
	// Sharded4 is a 4-shard directory behind the control plane at "cp".
	Sharded4 Topology = "sharded4"
	// Replicated is Sharded4 plus WAL-shipped warm standbys for the
	// hub users (the Zipf head that sees most of the traffic).
	Replicated Topology = "replicated"
)

// Topologies lists every topology in report order.
func Topologies() []Topology { return []Topology{Single, Sharded4, Replicated} }

// Scenarios lists every scenario name in report order.
func Scenarios() []string { return []string{"storm", "fanout", "churn", "flap"} }

// Config describes one harness run.
type Config struct {
	// Scenario is one of Scenarios(): "storm" (Zipf-skewed meeting
	// setup bursts), "fanout" (hub meetings rebuilt under wide
	// supervisor fan-out), "churn" (directory register/resolve/offline
	// churn), "flap" (commuter devices cycling through partition
	// windows with offline queues).
	Scenario string
	// Topology is the deployment shape (default Single).
	Topology Topology
	// Devices is the fleet size (default 500).
	Devices int
	// Ops is the operation count (default 4 per device).
	Ops int
	// Horizon is the simulated duration (default 8h — one workday).
	Horizon time.Duration
	// Seed makes the run reproducible; same seed, same report bytes.
	Seed int64
	// DataRoot hosts the replicated topology's WAL directories
	// (default: a fresh directory under os.TempDir, removed after the
	// run).
	DataRoot string
}

func (c Config) withDefaults() Config {
	if c.Topology == "" {
		c.Topology = Single
	}
	if c.Devices <= 0 {
		c.Devices = 500
	}
	if c.Ops <= 0 {
		c.Ops = 4 * c.Devices
	}
	if c.Horizon <= 0 {
		c.Horizon = 8 * time.Hour
	}
	return c
}

// LatencyStats are exact percentiles over operation latencies that are
// modelled (5 ms + 12 ms × RPCs + seeded jitter, per-device FIFO), not
// measured: an RPC-count cost model in milliseconds of virtual time,
// the same on every topology.
type LatencyStats struct {
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// Outcomes counts operation results. Committed/Tentative/Aborted/
// InDoubt classify negotiation-backed operations (a tentative meeting
// committed its initiator slot but missed participants); Queued counts
// operations accepted into an offline op queue, Drained how many of
// those later replayed through a reconnect session; Errors is
// everything else.
type Outcomes struct {
	Committed int `json:"committed"`
	Tentative int `json:"tentative"`
	Aborted   int `json:"aborted"`
	InDoubt   int `json:"in_doubt"`
	Queued    int `json:"queued"`
	Drained   int `json:"drained"`
	Errors    int `json:"errors"`
}

// QueueStats summarize the per-device queueing model: how deep the
// busiest device's op queue got, and the mean depth observed at
// arrival instants.
type QueueStats struct {
	MaxDepth  int     `json:"max_depth"`
	MeanDepth float64 `json:"mean_depth"`
}

// NetStats snapshot the simulated network's traffic counters.
type NetStats struct {
	Requests  int64 `json:"requests"`
	Responses int64 `json:"responses"`
	Events    int64 `json:"events"`
	Dropped   int64 `json:"dropped"`
}

// Report is one scenario×topology run's result — the unit
// BENCH_scale.json stores and TestScaleBaseline reproduces. Every field
// except WallMS is deterministic for a given (Config, code) pair.
type Report struct {
	Scenario  string          `json:"scenario"`
	Topology  Topology        `json:"topology"`
	Devices   int             `json:"devices"`
	Ops       int             `json:"ops"`
	Seed      int64           `json:"seed"`
	VirtualMS int64           `json:"virtual_ms"`
	Latency   LatencyStats    `json:"latency"`
	Outcomes  Outcomes        `json:"outcomes"`
	Queue     QueueStats      `json:"queue"`
	Locks     links.LockStats `json:"locks"`
	Net       NetStats        `json:"net"`
	// ClockFired counts fake-clock waiter deliveries — how many timer
	// events the compressed workday contained.
	ClockFired uint64 `json:"clock_fired"`
	// WallMS is the real elapsed time; informational only (machine-
	// dependent, excluded from determinism comparisons and gating).
	WallMS int64 `json:"wall_ms"`
}

// Run executes one scenario against one topology and reports.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sc, err := scenarioFor(cfg)
	if err != nil {
		return nil, err
	}
	w, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	return w.drive(cfg, sc)
}

// RunAll executes every scenario × every topology at the given fleet
// size, in catalog order.
func RunAll(devices int, seed int64) ([]*Report, error) {
	var out []*Report
	for _, sc := range Scenarios() {
		for _, topo := range Topologies() {
			r, err := Run(Config{Scenario: sc, Topology: topo, Devices: devices, Seed: seed})
			if err != nil {
				return out, fmt.Errorf("scale: %s/%s: %w", sc, topo, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
