package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/wire"
)

// opDeadline bounds every driver call; an op that hits it is failed.
const opDeadline = 5 * time.Second

// segments is how many consecutive parts the measured window has. Each
// timing, rate and per-op cost is computed per segment; the reported
// value is the median over all of them. Nine and not three: interference
// on a shared box comes in bursts of a few seconds, and a burst spoils
// one segment of nine where it would spoil one of three.
const segments = 9

// opKind is a driver call.
type opKind int

const (
	opSchedule opKind = iota
	opCancel
	opFind
	numKinds
)

var kindNames = [numKinds]string{"schedule", "cancel", "find"}

// outcome classes of one op.
const (
	classOK = iota
	classRefused
	classFailed
)

// classify sorts an op's error into ok, an expected conflict refusal, or
// a failure (any other error, the 5 s deadline included).
func classify(err error) int {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, context.DeadlineExceeded):
		return classFailed
	case wire.CodeOf(err) == wire.CodeConflict:
		return classRefused
	default:
		return classFailed
	}
}

// recorder collects one client's measurements; each client owns one, so
// recording takes no lock. seg is set by the drive loop: the segment the
// next op counts in, or -1 while warming up or draining.
type recorder struct {
	seg   int
	lat   [segments][numKinds][]time.Duration
	ops   [segments]int64
	class [3]int64 // by outcome class, measured window only

	// Schedule outcomes over the measured window.
	attempts, confirmedAtOnce, tentative, promoted, refusedSchedules int64

	firstFailure error
}

func newRecorder(kinds []opKind) *recorder {
	r := &recorder{seg: -1}
	for s := range r.lat {
		for _, k := range kinds {
			// Room for a segment at 6 000 calls a second, so that growing
			// them stays out of allocs_per_op.
			r.lat[s][k] = make([]time.Duration, 0, 1<<14)
		}
	}
	return r
}

func (r *recorder) record(kind opKind, d time.Duration, err error) {
	if r.seg < 0 {
		return
	}
	c := classify(err)
	r.class[c]++
	if c == classFailed && r.firstFailure == nil {
		r.firstFailure = err
	}
	r.ops[r.seg]++
	r.lat[r.seg][kind] = append(r.lat[r.seg][kind], d)
}

// counters are the process-wide readings taken at segment boundaries.
type counters struct {
	at        time.Time
	wireBytes int64
	frames    int64
	flushes   int64
	cpu       time.Duration
	mallocs   uint64
}

func readCounters(c *cluster) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	w := c.wire.Snapshot()
	return counters{
		at:        time.Now(),
		wireBytes: w.BytesSent,
		frames:    w.FramesSent,
		flushes:   w.Flushes,
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
	}
}

// percentile returns the q-quantile of sorted (nearest rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of vs (the mean of the two middle
// values when there are an even number of them).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// spread is (max-min)/median over all of vs: the benchmark's own
// estimate of its noise within one run.
func spread(vs []float64) float64 {
	mid := median(vs)
	if mid == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / mid
}
