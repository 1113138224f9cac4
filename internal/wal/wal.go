package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Metric series identifiers: the WAL reports under its own layer with
// a fixed pseudo-service, methods commit/fsync/batch/recovery/
// checkpoint.
const walService = "wal"

var (
	okCode  = wire.CodeOK
	errCode = wire.ErrCode("io")
)

// SyncPolicy says when appended records are fsynced.
type SyncPolicy int

// Sync policies.
const (
	// SyncGroup (default) is group commit: a background flusher writes
	// every queued record in one write(2) and covers the whole batch
	// with a single fsync; all committers in the batch share it, and
	// none is acked before the fsync that covers it.
	SyncGroup SyncPolicy = iota
	// SyncNone fsyncs neither records nor a new segment's directory
	// entry. Fastest, loses the last few seconds on a machine crash (not
	// on a process crash — the write(2) still happened). Rotation and
	// Close still sync the segment they close (replay refuses a tear
	// before the last segment, a log gap), and a checkpoint, which the
	// log is trimmed behind, its file and the directory.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "group", "":
		return SyncGroup, nil
	case "none", "off":
		return SyncNone, nil
	}
	return SyncGroup, fmt.Errorf("wal: unknown fsync policy %q (want group or none)", s)
}

// Options tune the log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size. Default 4 MiB.
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// Metrics, when set, receives wal-layer commit/fsync/batch series.
	Metrics *metrics.Registry
	// Tracer, when set, records one "wal.flush" span per group-commit
	// flush (batch size and LSN range annotated).
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: closed")

// Stats are the log's cumulative counters. Histogram-shaped series
// (commit latency, fsync latency, batch size) go to Options.Metrics;
// these are the cheap always-on counters.
type Stats struct {
	Appends      uint64 // records appended (acked or pending)
	Fsyncs       uint64 // fsync(2) calls
	Batches      uint64 // flusher batches written
	MaxBatch     uint64 // largest records-per-fsync batch seen
	BytesWritten uint64 // framed bytes written
	Rotations    uint64 // segment rotations
	Trims        uint64 // segments deleted by checkpoints
	LastLSN      uint64 // highest assigned LSN

	// Recovery-side (filled by Open).
	ReplayedRecords  uint64
	ReplayedTxs      uint64
	TornTail         bool
	SkippedTailBytes uint64
	RecoveryDuration time.Duration
	CheckpointLSN    uint64 // LSN of the checkpoint recovery started from
	Checkpoints      uint64 // checkpoints taken since open
}

type statCounters struct {
	appends, fsyncs, batches, maxBatch, bytes, rotations, trims atomic.Uint64
	checkpoints                                                 atomic.Uint64
}

// pending is one enqueued record waiting for the flusher. Pendings are
// recycled through pendingPool: whoever holds a pending's ack owns it
// from enqueue until the ack returns, and the ack puts it back, so a
// logged unit allocates neither its pending, nor its channel, nor its
// ack, nor (once the buffer has grown to fit) its body.
type pending struct {
	w       *WAL
	lsn     uint64
	body    []byte // the record body, room for the LSN in front (encode.go)
	payload []byte // body completed with its LSN: what the frame carries
	start   time.Time
	done    chan error
	ack     func() error // p.wait, bound once
}

// maxPooledBody is the largest body buffer a recycled pending keeps.
const maxPooledBody = 64 << 10

// maxKeptBatch is the largest frame buffer the flusher keeps between
// batches.
const maxKeptBatch = 1 << 20

var pendingPool sync.Pool

// newPending takes a pending from the pool, or makes one; encode its
// body into p.body's storage and hand it to enqueue.
func newPending() *pending {
	if p, ok := pendingPool.Get().(*pending); ok {
		return p
	}
	p := &pending{done: make(chan error, 1)}
	p.ack = p.wait
	return p
}

// wait is a pending's ack: it blocks until the flusher reports the
// record's outcome, records the commit metric and recycles p. Call it
// exactly once.
func (p *pending) wait() error {
	err := <-p.done
	if m := p.w.opt.Metrics; m != nil {
		code := okCode
		if err != nil {
			code = errCode
		}
		m.Observe(metrics.LayerWAL, walService, "commit", code, time.Since(p.start))
	}
	p.release()
	return err
}

// release returns p to the pool, dropping a body too large to keep.
func (p *pending) release() {
	p.w, p.payload = nil, nil
	if cap(p.body) > maxPooledBody {
		p.body = nil
	}
	pendingPool.Put(p)
}

// closedAck is the ack of a record offered after Close.
var closedAck = func() error { return ErrClosed }

// WAL is the append-only log. Appends may come from any goroutine; a
// single flusher goroutine owns the file.
type WAL struct {
	dir string
	opt Options

	// mu guards the enqueue side: LSN assignment, the queue, closed.
	mu      sync.Mutex
	queue   []*pending
	nextLSN uint64
	closed  bool

	// spare is the flusher's other queue: each flush swaps it in for the
	// queue it drains, so neither is grown again once it fits a batch.
	spare []*pending

	// ioMu guards the file side: current segment, rotation, trimming,
	// and buf, the flusher's reused frame buffer.
	ioMu     sync.Mutex
	f        *os.File
	segSize  int64
	segFirst uint64
	buf      []byte

	kick    chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup

	stats statCounters
	recov Stats // recovery-side stats copied in by Open
}

// openWAL opens the log for appending; nextLSN is the first LSN it
// will assign (recovery has already replayed — and truncated any torn
// tail off — everything below). Writing continues in the newest
// non-empty segment: an existing segment is never truncated, so
// fsync-acked records survive any number of crash/recover cycles.
func openWAL(dir string, opt Options, nextLSN uint64) (*WAL, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir:     dir,
		opt:     opt,
		nextLSN: nextLSN,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// The current segment is the newest one still holding records.
	// Empty trailing segments (fully-torn tails truncated by replay)
	// are removed: appending into a file whose name promises a
	// different first LSN would break the naming invariant.
	first, size := nextLSN, int64(0)
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		fi, err := os.Stat(last.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if fi.Size() > 0 {
			first, size = last.first, fi.Size()
			break
		}
		if err := os.Remove(last.path); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = segs[:len(segs)-1]
	}
	if err := w.openSegmentLocked(first, size); err != nil {
		return nil, err
	}
	w.wg.Add(1)
	go w.flushLoop()
	return w, nil
}

// segmentName returns the file name of the segment starting at lsn.
func segmentName(lsn uint64) string {
	return fmt.Sprintf("wal-%016x.log", lsn)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listSegments returns the directory's segment files sorted by first
// LSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentInfo{first: lsn, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

type segmentInfo struct {
	first uint64
	path  string
}

// openSegmentLocked opens (creating if absent, NEVER truncating) the
// segment starting at first, in append mode, and makes it current.
// size is the segment's existing valid length. Caller holds ioMu or
// owns w exclusively.
func (w *WAL) openSegmentLocked(first uint64, size int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(first)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.segSize = size
	w.segFirst = first
	if w.opt.Sync == SyncNone {
		return nil
	}
	return syncDir(w.dir)
}

// syncDir fsyncs the directory so newly created/renamed files survive
// a crash. It is a variable so that a test can count the calls.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// enqueue queues p with body as its record body (see encode.go), or
// recycles it when err kept the record from being encoded, and returns
// an ack that blocks until the record is durable per the sync policy.
// It never blocks on I/O itself, so it is safe to call under store
// locks.
func (w *WAL) enqueue(p *pending, body []byte, err error) func() error {
	if err != nil {
		p.release()
		return func() error { return err }
	}
	p.w, p.body, p.start = w, body, time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		p.release()
		return closedAck
	}
	p.lsn = w.nextLSN
	w.nextLSN++
	p.payload = withLSN(body, p.lsn)
	w.queue = append(w.queue, p)
	w.mu.Unlock()
	w.stats.appends.Add(1)
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return p.ack
}

// LastLSN reports the highest assigned LSN.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// flushLoop is the single writer: it drains the queue into the current
// segment, rotating and fsyncing per policy.
func (w *WAL) flushLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.kick:
		case <-w.closeCh:
			w.flushOnce() // final drain
			return
		}
		w.flushOnce()
	}
}

// flushOnce writes and syncs everything currently queued. It swaps the
// queue for the flusher's spare and, once the batch is acked, clears it
// and keeps it as the next spare. An acked pending belongs to its
// waiter again, so nothing here reads a pending after its ack is sent.
func (w *WAL) flushOnce() {
	w.mu.Lock()
	batch := w.queue
	w.queue, w.spare = w.spare, nil
	w.mu.Unlock()
	if len(batch) == 0 {
		w.spare = batch
		return
	}
	// The flusher runs off any request path, so the flush span is a
	// root of its own: retained when sampled or slower than the
	// tracer's threshold (a stalled fsync is exactly what -trace-slow
	// is for).
	_, span := w.opt.Tracer.StartSpan(context.Background(), "wal.flush")
	if span != nil {
		span.Annotate(
			trace.Int("records", len(batch)),
			trace.Int64("lsn-first", int64(batch[0].lsn)),
			trace.Int64("lsn-last", int64(batch[len(batch)-1].lsn)),
		)
	}
	w.ioMu.Lock()
	err := w.writeBatchLocked(batch)
	w.ioMu.Unlock()
	span.FinishErr(err)
	// No record is acked before the write (and fsync) covering the
	// whole batch has returned.
	for _, p := range batch {
		p.done <- err
	}
	clear(batch)
	w.spare = batch[:0]
}

// writeBatchLocked frames the batch into the flusher's buffer and
// writes it in one write; the caller acks the batch with the outcome.
func (w *WAL) writeBatchLocked(batch []*pending) error {
	w.stats.batches.Add(1)
	if n := uint64(len(batch)); n > w.stats.maxBatch.Load() {
		w.stats.maxBatch.Store(n) // approximate under races; fine for stats
	}
	if w.opt.Metrics != nil {
		// The batch series abuses the microsecond buckets as a record
		// count: 1µs == 1 record per fsync batch.
		w.opt.Metrics.Observe(metrics.LayerWAL, walService, "batch", okCode, time.Duration(len(batch))*time.Microsecond)
	}
	buf := w.buf[:0]
	for _, p := range batch {
		buf = appendFrame(buf, p.payload)
	}
	if cap(buf) <= maxKeptBatch {
		w.buf = buf
	}
	return w.writeLocked(batch[0].lsn, buf)
}

// writeLocked appends framed records, the first of which has LSN
// first, to the log: rotate if the current segment is full, one
// write, one fsync under SyncGroup. Rotation happens only here, at a
// batch boundary, so a batch lands in one segment. It is the one write
// path of the log: the flusher's batches and a follower's shipped
// frames (AppendFrames) both take it. Caller holds ioMu.
func (w *WAL) writeLocked(first uint64, buf []byte) error {
	if err := w.rotateIfNeededLocked(first); err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	w.segSize += int64(len(buf))
	w.stats.bytes.Add(uint64(len(buf)))
	if w.opt.Sync == SyncGroup {
		return w.fsync()
	}
	return nil
}

// fsync syncs the current segment, recording latency.
func (w *WAL) fsync() error {
	start := time.Now()
	err := w.f.Sync()
	w.stats.fsyncs.Add(1)
	if w.opt.Metrics != nil {
		code := okCode
		if err != nil {
			code = errCode
		}
		w.opt.Metrics.Observe(metrics.LayerWAL, walService, "fsync", code, time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// rotateIfNeededLocked starts a new segment (named by nextLSN, the
// first record it will hold) once the current one is full.
func (w *WAL) rotateIfNeededLocked(nextLSN uint64) error {
	if w.segSize < w.opt.SegmentBytes {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	// nextLSN is above every record ever written, so this name can only
	// collide with an empty leftover file; append mode keeps even that
	// case safe from truncating anything.
	if err := w.openSegmentLocked(nextLSN, 0); err != nil {
		return err
	}
	w.stats.rotations.Add(1)
	return nil
}

// trimBelow deletes whole segments every record of which is below
// keepLSN (covered by a checkpoint). The current segment and anything
// after it are never deleted.
func (w *WAL) trimBelow(keepLSN uint64) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	removed := 0
	for i, s := range segs {
		if s.first >= w.segFirst {
			break // current or future segment
		}
		// Records in segs[i] span [s.first, next.first): deletable only
		// if the whole span is below keepLSN.
		next := w.segFirst
		if i+1 < len(segs) {
			next = segs[i+1].first
		}
		if next > keepLSN {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: trim: %w", err)
		}
		removed++
	}
	if removed == 0 {
		return nil
	}
	w.stats.trims.Add(uint64(removed))
	return syncDir(w.dir)
}

// restartAt drops every segment and continues the log at next in a
// fresh segment: everything below next is in a checkpoint
// (InstallSnapshot). The queue must be empty.
func (w *WAL) restartAt(next uint64) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.f.Close()
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	w.mu.Lock()
	w.nextLSN = next
	w.mu.Unlock()
	return w.openSegmentLocked(next, 0)
}

// Close drains the queue, syncs, and closes the current segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.closeCh)
	w.wg.Wait()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: close sync: %w", err)
	}
	return w.f.Close()
}

// Stats snapshots the counters.
func (w *WAL) Stats() Stats {
	s := w.recov
	s.Appends = w.stats.appends.Load()
	s.Fsyncs = w.stats.fsyncs.Load()
	s.Batches = w.stats.batches.Load()
	s.MaxBatch = w.stats.maxBatch.Load()
	s.BytesWritten = w.stats.bytes.Load()
	s.Rotations = w.stats.rotations.Load()
	s.Trims = w.stats.trims.Load()
	s.Checkpoints = w.stats.checkpoints.Load()
	s.LastLSN = w.LastLSN()
	return s
}
