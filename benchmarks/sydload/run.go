package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calendar"
	"repro/internal/workload"
)

// options are the settings of one run of one workload.
type options struct {
	seed    int64
	window  time.Duration // measured window; a traced run stops earlier at tracedOps
	warmup  time.Duration
	clients int
	traced  bool
	// tracedOps overrides the workload's traced op count when > 0.
	tracedOps int
	// dataRoot is where durable nodes keep their logs; spansDir is where
	// a traced run writes its spans ("" writes none).
	dataRoot string
	spansDir string
}

// measured is one end-to-end metric of one run: the median over its
// segments (over the repeated set-ups for setup_s), every segment's
// value, and (max-min)/median of them.
type measured struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
	Spread   float64   `json:"spread"`
	// Samples is the number of leading calls in the smallest segment: a
	// percentile rests on at least that many.
	Samples int `json:"samples,omitempty"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Failures  []string `json:"failed_checks,omitempty"`
	Attempted int64    `json:"attempted"`
	Refused   int64    `json:"refused"`
	Failed    int64    `json:"failed"`
	OpsPerS   float64  `json:"ops_per_s"`
	// EndToEnd is filled by an untraced run (its end-to-end and clock
	// metrics), Layers and Census by a traced one.
	EndToEnd map[string]measured `json:"end_to_end,omitempty"`
	Layers   map[string]float64  `json:"per_layer,omitempty"`
	// Budget is the critical-path time per op by layer, in ms.
	Budget map[string]float64            `json:"critical_path_ms_per_op,omitempty"`
	Census map[string]map[string]float64 `json:"rpc_census,omitempty"`
}

func (r *runResult) correct() bool { return len(r.Failures) == 0 }

// driver is one client's side of the harness: it times the calls, opens
// the root span in a traced run, and keeps the client's recorder.
type driver struct {
	rec    *recorder
	wrongs *wrongLog
}

// wrongLog collects outputs that were not what they should have been.
type wrongLog struct {
	mu    sync.Mutex
	n     int
	first string
}

func (d *driver) wrong(format string, args ...any) {
	d.wrongs.mu.Lock()
	if d.wrongs.n == 0 {
		d.wrongs.first = fmt.Sprintf(format, args...)
	}
	d.wrongs.n++
	d.wrongs.mu.Unlock()
}

// noteSchedule counts the outcome of one schedule attempt.
func (d *driver) noteSchedule(m *calendar.Meeting, err error) {
	if d.rec.seg < 0 {
		return
	}
	d.rec.attempts++
	switch {
	case err != nil:
		if classify(err) == classRefused {
			d.rec.refusedSchedules++
		}
	case m.Status == calendar.StatusConfirmed:
		d.rec.confirmedAtOnce++
	default:
		d.rec.tentative++
	}
}

// do makes one driver call on m's node under the op deadline. In a
// traced run the node has a tracer and the call runs under a root span,
// so every span the op causes shares its trace id.
func (d *driver) do(ctx context.Context, kind opKind, m *member, fn func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	ctx, span := m.node.Tracer.StartSpan(ctx, "op."+kindNames[kind])
	t0 := time.Now()
	err := fn(ctx)
	dur := time.Since(t0)
	span.FinishErr(err)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	d.rec.record(kind, dur, err)
	return err
}

// setups is how many times a run sets the workload up; setup_s is the
// median. The last cluster is the one measured.
const setups = 9

// runWorkload sets the workload up, warms it, measures it, drains it and
// checks its outputs.
func runWorkload(ctx context.Context, def workloadDef, opt options) (*runResult, error) {
	spec := bootSpec{users: workload.Users(def.nodes(opt.clients)), traced: opt.traced}
	dataBase := ""
	if def.durable {
		if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil {
			return nil, fmt.Errorf("data root: %w", err)
		}
		var err error
		if dataBase, err = os.MkdirTemp(opt.dataRoot, def.name+"-"); err != nil {
			return nil, fmt.Errorf("data root: %w", err)
		}
		defer os.RemoveAll(dataBase)
	}

	var c *cluster
	var setupS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close(ctx)
		}
		if def.durable {
			spec.dataDir = filepath.Join(dataBase, fmt.Sprint("boot", i))
		}
		t0 := time.Now()
		var err error
		if c, err = boot(ctx, spec); err != nil {
			return nil, err
		}
		if def.preload != nil {
			if err := def.preload(ctx, c, opt.seed); err != nil {
				c.close(ctx)
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer c.close(ctx)

	steppers := def.clients(c, opt.clients, opt.seed)
	wrongs := &wrongLog{}
	drivers := make([]*driver, len(steppers))
	for i := range drivers {
		drivers[i] = &driver{rec: newRecorder(def.kinds), wrongs: wrongs}
	}
	// drive runs every client until next says stop; next also names the
	// segment the client's next step counts in.
	drive := func(next func() (seg int, more bool)) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := range steppers {
			wg.Add(1)
			go func(st stepper, d *driver) {
				defer wg.Done()
				for {
					seg, more := next()
					if !more {
						return
					}
					d.rec.seg = seg
					st.step(ctx, d)
				}
			}(steppers[i], drivers[i])
		}
		return &wg
	}

	// Warm-up fills route caches, connection pools and lazy tables.
	warmEnd := time.Now().Add(opt.warmup)
	drive(func() (int, bool) { return -1, time.Now().Before(warmEnd) }).Wait()

	segLen := opt.window / segments
	var before, after layerCounters
	if opt.traced {
		c.probe.on.Store(true)
		before = c.layerCounters(spec.dataDir)
	}
	// Each segment runs between two readings of the process's counters.
	var marks [][2]counters
	segment := func(seg int, more func() bool) {
		from := readCounters(c)
		drive(func() (int, bool) { return seg, more() }).Wait()
		marks = append(marks, [2]counters{from, readCounters(c)})
	}
	if opt.traced {
		steps := int64(opt.tracedOps)
		if steps == 0 {
			steps = int64(def.tracedOps)
		}
		steps /= int64(len(def.kinds)) // a step makes one call of each kind
		var issued atomic.Int64
		end := time.Now().Add(opt.window)
		segment(0, func() bool { return issued.Add(1) <= steps && time.Now().Before(end) })
		c.probe.on.Store(false)
		after = c.layerCounters(spec.dataDir)
	} else {
		for s := 0; s < segments; s++ {
			end := time.Now().Add(segLen)
			segment(s, func() bool { return time.Now().Before(end) })
		}
	}

	// Drain: cancel what is still open, outside the measurement.
	for i, st := range steppers {
		drivers[i].rec.seg = -1
		st.drain(ctx, drivers[i])
	}

	res := &runResult{Workload: def.name, Traced: opt.traced}
	recs := make([]*recorder, len(drivers))
	for i, d := range drivers {
		recs[i] = d.rec
		res.Attempted += d.rec.class[classOK] + d.rec.class[classRefused] + d.rec.class[classFailed]
		res.Refused += d.rec.class[classRefused]
		res.Failed += d.rec.class[classFailed]
		if d.rec.firstFailure != nil && len(res.Failures) == 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("failed_ops: first failure: %v", d.rec.firstFailure))
		}
	}
	if wrongs.n > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("op_outputs: %d wrong, first: %s", wrongs.n, wrongs.first))
	}
	sched := scheduleOutcomes(recs)
	res.Failures = append(res.Failures, checkQuiescent(c, steppers)...)
	res.Failures = append(res.Failures, checkOutcomes(def, sched, res)...)

	var total time.Duration
	for _, m := range marks {
		total += m[1].at.Sub(m[0].at)
	}
	res.OpsPerS = float64(res.Attempted) / total.Seconds()
	if !opt.traced {
		var err error
		if res.EndToEnd, err = endToEnd(def, recs, marks, sched, setupS); err != nil {
			return nil, err
		}
		values := map[string]float64{}
		for name, v := range res.EndToEnd {
			values[name] = v.Value
		}
		return res, checkComplete(untracedMetrics, values)
	}
	lay, err := foldLayers(c, recs, marks[0], sched, before, after)
	if err != nil {
		res.Failures = append(res.Failures, "trace: "+err.Error())
		return res, nil
	}
	if err := checkComplete(layerMetrics, lay.metrics); err != nil {
		return nil, err
	}
	res.Layers, res.Budget, res.Census = lay.metrics, lay.budget, lay.census
	res.Failures = append(res.Failures, checkLayers(def, lay.metrics)...)
	if opt.spansDir != "" {
		if err := writeSpans(filepath.Join(opt.spansDir, def.name+".spans.jsonl"), lay.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkComplete holds a run to its table: it computed exactly the
// metrics the table names, each a finite number. A metric read from a
// map it is missing from is 0, which on a lower-is-better metric looks
// perfect.
func checkComplete(table []metricDef, values map[string]float64) error {
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in the table and was not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
	}
	if len(values) != len(table) {
		return fmt.Errorf("%d metrics computed, the table names %d", len(values), len(table))
	}
	return nil
}

// schedule outcome totals over all clients.
type outcomes struct {
	attempts, confirmedAtOnce, tentative, promoted int64
}

func scheduleOutcomes(recs []*recorder) outcomes {
	var o outcomes
	for _, r := range recs {
		o.attempts += r.attempts
		o.confirmedAtOnce += r.confirmedAtOnce
		o.tentative += r.tentative
		o.promoted += r.promoted
	}
	return o
}

// successRatio is the share of schedule attempts that ended confirmed,
// at once or by promotion before their cancel. A workload that makes no
// schedule attempt has nothing to refuse, so its ratio is 1.
func (o outcomes) successRatio() float64 {
	if o.attempts == 0 {
		return 1
	}
	return float64(o.confirmedAtOnce+o.promoted) / float64(o.attempts)
}

// endToEnd computes every metric of an untraced run per segment and
// reports, for each, the median over the segments. A segment in which no leading
// call completed has no latency and no per-op cost: that is an error, not
// a value.
func endToEnd(def workloadDef, recs []*recorder, marks [][2]counters, sched outcomes, setupS []float64) (map[string]measured, error) {
	lead := def.kinds[0]
	per := map[string][]float64{}
	samples := 0
	for s := 0; s < segments; s++ {
		var ops int64
		var lat []time.Duration
		for _, r := range recs {
			ops += r.ops[s]
			lat = append(lat, r.lat[s][lead]...)
		}
		if len(lat) == 0 {
			return nil, fmt.Errorf("empty_segment: no %s call completed in segment %d of %d", kindNames[lead], s, segments)
		}
		if s == 0 || len(lat) < samples {
			samples = len(lat)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		a, b := marks[s][0], marks[s][1]
		n := float64(ops)
		per["ops_per_s"] = append(per["ops_per_s"], n/b.at.Sub(a.at).Seconds())
		per["op_p50_ms"] = append(per["op_p50_ms"], ms(percentile(lat, 0.50)))
		per["wire_bytes_per_op"] = append(per["wire_bytes_per_op"], float64(b.wireBytes-a.wireBytes)/n)
		per["wire_frames_per_op"] = append(per["wire_frames_per_op"], float64(b.frames-a.frames)/n)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(b.mallocs-a.mallocs)/n)
	}
	per["setup_s"] = setupS
	out := map[string]measured{}
	for _, m := range untracedMetrics {
		if m.Name == "success_ratio" {
			out[m.Name] = measured{Value: sched.successRatio(), Unit: m.Unit, Samples: int(sched.attempts)}
			continue
		}
		vs := per[m.Name]
		v := measured{Value: median(vs), Unit: m.Unit, Segments: vs, Spread: spread(vs)}
		if m.Name == "op_p50_ms" {
			v.Samples = samples
		}
		out[m.Name] = v
	}
	return out, nil
}
