package main

// metricDef is one metric as BENCHMARK.json lists it. Bound is the share
// of the parent's median by which an untraced run's metric may get worse;
// Moves says, for a layer metric, which end-to-end metric it should move
// on which workload (the prediction elsewhere is "flat").
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are the costs a user of the calendar pays that repeat
// from run to run: BENCHMARK.json lists them and a later change is held
// to their bounds. Every workload reports every one of them and none is
// ever 0, so the failed share is not among them: it is the result line's
// failed/attempted.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "success_ratio", Unit: "ratio", Better: higher, Bound: 0.03},
	{Name: "wire_bytes_per_op", Unit: "B/op", Better: lower, Bound: 0.05},
	{Name: "wire_frames_per_op", Unit: "1/op", Better: lower, Bound: 0.05},
	{Name: "allocs_per_op", Unit: "1/op", Better: lower, Bound: 0.05},
}

// clockMetrics are the untraced run's throughput and latency. It prints
// them, -all keeps them and -compare holds them to the issue's tenth, but
// they are not in BENCHMARK.json: on the box this was written on, ten
// runs of unchanged code stood 10 to 35 % apart (quartiles over median)
// and two such sets half an hour apart differed by up to 42 %, with both
// processors busy throughout and processor time per op moving the same
// way. No bound a benchmark may set lets that through, and the issue says
// to demote such a metric rather than widen its bound. A claim about them
// rests on alternating pairs (README), which cancel the drift.
var clockMetrics = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.10},
}

// untracedMetrics are all the metrics an untraced run computes.
var untracedMetrics = append(append([]metricDef{}, endToEndMetrics...), clockMetrics...)

const (
	onSched     = "sched_mem, sched_durable"
	onDurable   = "sched_durable only; 0 elsewhere"
	onContended = "contended"
)

// layerMetrics are the per-layer numbers of the traced run, by package.
// "per op" divides by driver calls.
var layerMetrics = []metricDef{
	// calendar: the driver's root span stands for it.
	{Name: "calendar.self_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms, ops_per_s on every workload"},
	{Name: "calendar.negotiations_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms, ops_per_s on " + onSched + ", " + onContended},
	{Name: "calendar.refused_ratio", Unit: "ratio", Better: lower, Moves: "success_ratio on " + onContended},
	{Name: "calendar.tentative_ratio", Unit: "ratio", Better: lower, Moves: "success_ratio on " + onContended},
	{Name: "calendar.promoted_ratio", Unit: "ratio", Better: higher, Moves: "success_ratio on " + onContended},
	{Name: "calendar.ops_per_s", Unit: "1/s", Better: higher, Moves: "ops_per_s on every workload: the traced run's own rate, tracing included"},
	{Name: "calendar.schedule_p50_ms", Unit: "ms", Better: lower, Moves: "op_p50_ms on " + onSched + ", " + onContended},
	{Name: "calendar.schedule_p95_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on " + onSched + ", " + onContended + " (the tail a user waits for)"},
	{Name: "calendar.schedule_p99_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on " + onSched + ", " + onContended},
	{Name: "calendar.cancel_p50_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on " + onSched + ", " + onContended},
	{Name: "calendar.cancel_p95_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on " + onContended + " (promotion cascade)"},
	{Name: "calendar.cancel_p99_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on " + onContended + " (promotion cascade)"},
	{Name: "calendar.find_p50_ms", Unit: "ms", Better: lower, Moves: "op_p50_ms on find_slots"},
	{Name: "calendar.find_p95_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on find_slots (the tail a user waits for)"},
	{Name: "calendar.find_p99_ms", Unit: "ms", Better: lower, Moves: "ops_per_s on find_slots"},
	{Name: "calendar.cpu_ms_per_op", Unit: "ms/op", Better: lower, Moves: "ops_per_s on every workload: processor time of the whole process, tracing included, per driver call"},
	{Name: "calendar.budget_closure", Unit: "ratio", Better: higher, Moves: "none: critical-path time the spans account for over the op time the driver measured; 1 means the budget closes"},

	{Name: "links.negotiate_self_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onSched},
	{Name: "links.mark_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onSched},
	{Name: "links.check_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onSched},
	{Name: "links.commit_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onSched},
	{Name: "links.trigger_ms_per_op", Unit: "ms/op", Better: lower, Moves: "ops_per_s on " + onContended},
	{Name: "links.commit_ratio", Unit: "ratio", Better: higher, Moves: "success_ratio on " + onContended},
	{Name: "links.indoubt_per_op", Unit: "1/op", Better: lower, Moves: "success_ratio on " + onContended},
	{Name: "links.lock_conflicts_per_op", Unit: "1/op", Better: lower, Moves: "success_ratio, ops_per_s on " + onContended + "; must be 0 on sched_*"},
	{Name: "links.lock_steals_per_op", Unit: "1/op", Better: lower, Moves: "success_ratio on " + onContended},
	{Name: "links.promotions_per_cancel", Unit: "ratio", Better: higher, Moves: "success_ratio on " + onContended},

	{Name: "engine.invokes_per_op", Unit: "1/op", Better: lower, Moves: "wire_frames_per_op on every workload (two frames per RPC); op_p50_ms, ops_per_s on sched_mem; op_p50_ms on find_slots (one transit saved per RPC removed)"},
	{Name: "engine.group_invokes_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms on sched_mem"},
	{Name: "engine.self_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on sched_mem, find_slots"},
	{Name: "engine.route_cache_hit_ratio", Unit: "ratio", Better: higher, Moves: "calendar.*_p95_ms on every workload"},

	{Name: "directory.lookups_per_op", Unit: "1/op", Better: lower, Moves: "calendar.*_p95_ms on every workload (about 0 once warm)"},
	{Name: "directory.lookup_ms_per_op", Unit: "ms/op", Better: lower, Moves: "calendar.*_p95_ms on every workload"},

	{Name: "listener.requests_per_op", Unit: "1/op", Better: lower, Moves: "ops_per_s on find_slots"},
	{Name: "listener.dispatch_self_ms_per_op", Unit: "ms/op", Better: lower, Moves: "ops_per_s, op_p50_ms on find_slots (store reads have no span and land here)"},

	{Name: "transport.transit_ms_per_op", Unit: "ms/op", Better: lower, Moves: "ops_per_s on find_slots, sched_mem"},
	{Name: "transport.frames_per_op", Unit: "1/op", Better: lower, Moves: "wire_frames_per_op, wire_bytes_per_op, ops_per_s on every workload"},
	{Name: "transport.bytes_per_op", Unit: "B/op", Better: lower, Moves: "wire_bytes_per_op on every workload"},
	{Name: "transport.flushes_per_op", Unit: "1/op", Better: lower, Moves: "ops_per_s on find_slots, sched_mem"},
	{Name: "transport.frames_per_flush", Unit: "ratio", Better: higher, Moves: "ops_per_s on find_slots; op_p50_ms flat at two clients"},

	{Name: "wire.json_encode_ns_per_frame", Unit: "ns", Better: lower, Moves: "op_p50_ms on sched_mem (at most frames_per_op times this), more on find_slots"},
	{Name: "wire.json_decode_ns_per_frame", Unit: "ns", Better: lower, Moves: "op_p50_ms on sched_mem, more on find_slots"},
	{Name: "wire.json_bytes_per_frame", Unit: "B", Better: lower, Moves: "wire_bytes_per_op on every workload"},
	{Name: "wire.v3_encode_ns_per_frame", Unit: "ns", Better: lower, Moves: "none while json is the default codec"},
	{Name: "wire.v3_decode_ns_per_frame", Unit: "ns", Better: lower, Moves: "none while json is the default codec"},
	{Name: "wire.v3_bytes_per_frame", Unit: "B", Better: lower, Moves: "none while json is the default codec"},

	{Name: "store.commits_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms on " + onSched + "; wal.commits_per_op on sched_durable"},
	{Name: "store.row_ops_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms, allocs_per_op on " + onSched},

	{Name: "wal.commits_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms, ops_per_s on " + onDurable},
	{Name: "wal.batches_per_op", Unit: "1/op", Better: lower, Moves: "op_p50_ms, ops_per_s on " + onDurable + " (one device flush each under the group policy)"},
	{Name: "wal.commits_per_batch", Unit: "ratio", Better: higher, Moves: "ops_per_s on " + onDurable},
	{Name: "wal.commit_wait_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onDurable},
	{Name: "wal.flush_ms_per_op", Unit: "ms/op", Better: lower, Moves: "op_p50_ms on " + onDurable},
	{Name: "wal.log_bytes_per_op", Unit: "B/op", Better: lower, Moves: "wal.flush_ms_per_op on " + onDurable},

	{Name: "event.raises_per_op", Unit: "1/op", Better: lower, Moves: "ops_per_s on " + onContended},
	{Name: "event.raise_ms_per_op", Unit: "ms/op", Better: lower, Moves: "ops_per_s on " + onContended},
}
