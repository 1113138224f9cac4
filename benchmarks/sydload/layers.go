package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// layerOf maps a span name to the package it measures. The driver's own
// root span stands for the calendar package, which has no spans.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op."):
		return "calendar"
	case name == "rpc.client" || name == "rpc.group":
		return "engine"
	case name == "rpc.server":
		return "listener"
	case name == "transport.send":
		return "transport"
	case name == "dir.lookup":
		return "directory"
	case strings.HasPrefix(name, "links."):
		return "links"
	case name == "store.commit":
		return "store"
	case name == "wal.flush":
		return "wal"
	case name == "event.raise":
		return "event"
	}
	return "other"
}

// layerCounters are the counters the layers keep themselves, summed over
// the cluster; the traced run reads them before and after its window.
type layerCounters struct {
	lockConflicts, lockSteals uint64
	cacheHits, cacheMisses    int64
	storeUnits, storeRows     int64
	walAppends, walBatches    uint64
	logBytes                  int64
	walCommitMs               float64
	outcomeOK, outcomeAll     int64
	outcomeInDoubt            int64
}

func (c *cluster) layerCounters(dataDir string) layerCounters {
	var lc layerCounters
	for _, m := range c.members {
		ls := m.node.Links.Locks.Stats()
		lc.lockConflicts += ls.Conflicts
		lc.lockSteals += ls.Steals
		if dc := m.node.Engine.DirCache(); dc != nil {
			st := dc.Stats()
			lc.cacheHits += st.Hits
			lc.cacheMisses += st.Misses
		}
		if m.commits != nil {
			lc.storeUnits += m.commits.units.Load()
			lc.storeRows += m.commits.rows.Load()
		}
		if m.node.Durable != nil {
			ws := m.node.Durable.Stats()
			lc.walAppends += ws.Appends
			lc.walBatches += ws.Batches
		}
	}
	if dataDir != "" {
		lc.logBytes = dirBytes(dataDir)
	}
	for _, e := range c.registry.Snapshot().Entries {
		switch {
		case e.Layer == metrics.LayerWAL && e.Method == "commit":
			lc.walCommitMs += e.AvgMs * float64(e.Count)
		case e.Layer == metrics.LayerLinks && e.Method == "outcome":
			lc.outcomeAll += e.Count
			switch e.Code {
			case wire.CodeOK:
				lc.outcomeOK += e.Count
			case wire.CodeInDoubt:
				lc.outcomeInDoubt += e.Count
			}
		}
	}
	return lc
}

// spanNode is a span with its resolved children.
type spanNode struct {
	*trace.Span
	kids []*spanNode
}

// selfTime is the span's duration minus the union of its children's
// intervals. Mark and Commit children overlap, so subtracting their sum
// would go negative.
func (n *spanNode) selfTime() time.Duration {
	self := n.End.Sub(n.Start)
	sort.Slice(n.kids, func(i, j int) bool { return n.kids[i].Start.Before(n.kids[j].Start) })
	covered := n.Start
	for _, k := range n.kids {
		s, e := k.Start, k.End
		if s.Before(covered) {
			s = covered
		}
		if e.After(n.End) {
			e = n.End
		}
		if e.After(s) {
			self -= e.Sub(s)
			covered = e
		}
	}
	return self
}

// criticalPath walks back from the span's end through the child that
// finished last, then the child that finished last before that one
// began, and so on, adding each span's own share of [start, end] to its
// layer. Children running in parallel with the one on the path add
// nothing: they do not block the result.
func (n *spanNode) criticalPath(start, end time.Time, byLayer map[string]time.Duration) {
	sort.Slice(n.kids, func(i, j int) bool { return n.kids[i].End.After(n.kids[j].End) })
	layer := layerOf(n.Name)
	cur := end
	for _, k := range n.kids {
		ks, ke := k.Start, k.End
		if ks.Before(start) {
			ks = start
		}
		if ke.After(end) {
			ke = end
		}
		if ke.After(cur) || !ke.After(ks) {
			continue
		}
		byLayer[layer] += cur.Sub(ke)
		k.criticalPath(ks, ke, byLayer)
		cur = ks
	}
	byLayer[layer] += cur.Sub(start)
}

// layerFold is what the traced run's spans and counters fold into.
type layerFold struct {
	metrics map[string]float64
	// budget is the critical-path time per op by layer, in ms.
	budget map[string]float64
	// census is, per driver call, the RPCs it caused by service kind and
	// method.
	census map[string]map[string]float64
	// spans are the spans of the measured window, the ones folded.
	spans []*trace.Span
}

// foldLayers turns the spans of the measured window into the per-layer
// metrics. before and after are the layers' own counters around it.
func foldLayers(c *cluster, recs []*recorder, marks [2]counters, sched outcomes, before, after layerCounters) (*layerFold, error) {
	for _, m := range c.members {
		if d := m.node.Tracer.Dropped(); d != 0 {
			return nil, fmt.Errorf("%s dropped %d spans", m.user, d)
		}
	}
	from, to := marks[0].at, marks[1].at
	var ops [numKinds]float64
	var opTime time.Duration
	var lat [numKinds][]time.Duration
	total := 0.0
	for _, r := range recs {
		total += float64(r.ops[0])
		for k := opKind(0); k < numKinds; k++ {
			lat[k] = append(lat[k], r.lat[0][k]...)
		}
	}
	for k := range lat {
		ops[k] = float64(len(lat[k]))
		sort.Slice(lat[k], func(i, j int) bool { return lat[k][i] < lat[k][j] })
		for _, d := range lat[k] {
			opTime += d
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("traced run made no op")
	}

	// Index the spans, keep the traces whose root op ran in the window.
	nodes := map[string]*spanNode{}
	all := c.collector.Spans()
	for _, s := range all {
		nodes[s.SpanID] = &spanNode{Span: s}
	}
	rootKind := map[string]string{} // trace id -> op kind
	var roots []*spanNode
	for _, n := range nodes {
		if n.ParentID == "" && strings.HasPrefix(n.Name, "op.") && !n.Start.Before(from) && !n.Start.After(to) {
			rootKind[n.TraceID] = strings.TrimPrefix(n.Name, "op.")
			roots = append(roots, n)
		}
	}
	if float64(len(roots)) != total {
		return nil, fmt.Errorf("%d root spans for %.0f ops: a span ring overflowed", len(roots), total)
	}
	for _, n := range nodes {
		if _, ok := rootKind[n.TraceID]; ok && n.ParentID != "" {
			if p := nodes[n.ParentID]; p != nil {
				p.kids = append(p.kids, n)
			}
		}
	}
	// The server span names the client span as its parent, which makes it
	// a sibling of the transport.send that carried it. Hang it under that
	// send, so that the send's self time is the transit.
	for _, n := range nodes {
		if n.Name != "rpc.client" {
			continue
		}
		var sends, rest []*spanNode
		for _, k := range n.kids {
			if k.Name == "transport.send" {
				sends = append(sends, k)
			}
		}
		for _, k := range n.kids {
			moved := false
			if k.Name == "rpc.server" {
				for _, s := range sends {
					if !k.Start.Before(s.Start) && !k.End.After(s.End) {
						s.kids = append(s.kids, k)
						moved = true
						break
					}
				}
			}
			if !moved {
				rest = append(rest, k)
			}
		}
		n.kids = rest
	}

	count := map[string]float64{}
	dur := map[string]time.Duration{}
	self := map[string]time.Duration{}
	census := map[string]map[string]float64{}
	var kept []*trace.Span
	for _, n := range nodes {
		kind, ok := rootKind[n.TraceID]
		if !ok {
			continue
		}
		kept = append(kept, n.Span)
		count[n.Name]++
		dur[n.Name] += n.End.Sub(n.Start)
		self[n.Name] += n.selfTime()
		if n.Name == "rpc.client" {
			if census[kind] == nil {
				census[kind] = map[string]float64{}
			}
			svc, _, _ := strings.Cut(attr(n.Span, "service"), ".")
			census[kind][svc+"."+attr(n.Span, "method")]++
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		for call := range census[kindNames[k]] {
			census[kindNames[k]][call] /= ops[k]
		}
	}
	// WAL flushes run off the request path as roots of their own.
	var walFlush time.Duration
	for _, s := range all {
		if s.Name == "wal.flush" && !s.Start.Before(from) && !s.Start.After(to) {
			walFlush += s.End.Sub(s.Start)
			kept = append(kept, s)
		}
	}
	path := map[string]time.Duration{}
	for _, r := range roots {
		r.criticalPath(r.Start, r.End, path)
	}
	var pathSum time.Duration
	budget := map[string]float64{}
	for layer, d := range path {
		pathSum += d
		budget[layer] = ms(d) / total
	}

	perOp := func(d time.Duration) float64 { return ms(d) / total }
	sum := func(m map[string]time.Duration, names ...string) (d time.Duration) {
		for _, n := range names {
			d += m[n]
		}
		return d
	}
	a, b := marks[0], marks[1]
	runtime.GC() // so that the replay is not timed while the run's garbage is collected
	json, err := c.probe.replay(wire.CodecJSON)
	if err != nil {
		return nil, err
	}
	v3, err := c.probe.replay(wire.CodecV3)
	if err != nil {
		return nil, err
	}
	walCommits := float64(after.walAppends - before.walAppends)
	walBatches := float64(after.walBatches - before.walBatches)
	cacheHits := float64(after.cacheHits - before.cacheHits)
	cacheAll := cacheHits + float64(after.cacheMisses-before.cacheMisses)
	outcomes := float64(after.outcomeAll - before.outcomeAll)
	frames := float64(b.frames - a.frames)
	flushes := float64(b.flushes - a.flushes)

	m := map[string]float64{
		"calendar.self_ms_per_op":      perOp(sum(self, "op.schedule", "op.cancel", "op.find")),
		"calendar.negotiations_per_op": count["links.Negotiate"] / total,
		"calendar.refused_ratio":       ratio(refusedSchedules(recs), sched.attempts),
		"calendar.tentative_ratio":     ratio(sched.tentative, sched.attempts),
		"calendar.promoted_ratio":      ratio(sched.promoted, sched.tentative),
		"calendar.ops_per_s":           total / to.Sub(from).Seconds(),
		"calendar.schedule_p50_ms":     ms(percentile(lat[opSchedule], 0.50)),
		"calendar.schedule_p95_ms":     ms(percentile(lat[opSchedule], 0.95)),
		"calendar.schedule_p99_ms":     ms(percentile(lat[opSchedule], 0.99)),
		"calendar.cancel_p50_ms":       ms(percentile(lat[opCancel], 0.50)),
		"calendar.cancel_p95_ms":       ms(percentile(lat[opCancel], 0.95)),
		"calendar.cancel_p99_ms":       ms(percentile(lat[opCancel], 0.99)),
		"calendar.find_p50_ms":         ms(percentile(lat[opFind], 0.50)),
		"calendar.find_p95_ms":         ms(percentile(lat[opFind], 0.95)),
		"calendar.find_p99_ms":         ms(percentile(lat[opFind], 0.99)),
		"calendar.cpu_ms_per_op":       perOp(b.cpu - a.cpu),
		"calendar.budget_closure":      float64(pathSum) / float64(opTime),

		"links.negotiate_self_ms_per_op": perOp(self["links.Negotiate"]),
		"links.mark_ms_per_op":           perOp(sum(dur, "links.Mark", "links.MarkBatch")),
		"links.check_ms_per_op":          perOp(dur["links.Check"]),
		"links.commit_ms_per_op":         perOp(sum(dur, "links.Commit", "links.CommitBatch")),
		"links.trigger_ms_per_op":        perOp(dur["links.Trigger"]),
		"links.commit_ratio":             safeDiv(float64(after.outcomeOK-before.outcomeOK), outcomes),
		"links.indoubt_per_op":           float64(after.outcomeInDoubt-before.outcomeInDoubt) / total,
		"links.lock_conflicts_per_op":    float64(after.lockConflicts-before.lockConflicts) / total,
		"links.lock_steals_per_op":       float64(after.lockSteals-before.lockSteals) / total,
		"links.promotions_per_cancel":    safeDiv(float64(sched.promoted), ops[opCancel]),

		"engine.invokes_per_op":        count["rpc.client"] / total,
		"engine.group_invokes_per_op":  count["rpc.group"] / total,
		"engine.self_ms_per_op":        perOp(sum(self, "rpc.client", "rpc.group")),
		"engine.route_cache_hit_ratio": safeDiv(cacheHits, cacheAll),

		"directory.lookups_per_op":   count["dir.lookup"] / total,
		"directory.lookup_ms_per_op": perOp(dur["dir.lookup"]),

		"listener.requests_per_op":         count["rpc.server"] / total,
		"listener.dispatch_self_ms_per_op": perOp(self["rpc.server"]),

		"transport.transit_ms_per_op": perOp(self["transport.send"]),
		"transport.frames_per_op":     frames / total,
		"transport.bytes_per_op":      float64(b.wireBytes-a.wireBytes) / total,
		"transport.flushes_per_op":    flushes / total,
		"transport.frames_per_flush":  safeDiv(frames, flushes),

		"wire.json_encode_ns_per_frame": json.encodeNs,
		"wire.json_decode_ns_per_frame": json.decodeNs,
		"wire.json_bytes_per_frame":     json.bytes,
		"wire.v3_encode_ns_per_frame":   v3.encodeNs,
		"wire.v3_decode_ns_per_frame":   v3.decodeNs,
		"wire.v3_bytes_per_frame":       v3.bytes,

		"store.commits_per_op": float64(after.storeUnits-before.storeUnits) / total,
		"store.row_ops_per_op": float64(after.storeRows-before.storeRows) / total,

		"wal.commits_per_op":        walCommits / total,
		"wal.batches_per_op":        walBatches / total,
		"wal.commits_per_batch":     safeDiv(walCommits, walBatches),
		"wal.commit_wait_ms_per_op": (after.walCommitMs - before.walCommitMs) / total,
		"wal.flush_ms_per_op":       perOp(walFlush),
		"wal.log_bytes_per_op":      float64(after.logBytes-before.logBytes) / total,

		"event.raises_per_op":   count["event.raise"] / total,
		"event.raise_ms_per_op": perOp(dur["event.raise"]),
	}
	return &layerFold{metrics: m, budget: budget, census: census, spans: kept}, nil
}

func refusedSchedules(recs []*recorder) (n int64) {
	for _, r := range recs {
		n += r.refusedSchedules
	}
	return n
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func attr(s *trace.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []*trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteJSONL(w, spans); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
