// Scale-harness generators: open-loop arrival schedules and skewed
// participant selection for fleet-sized populations (ROADMAP item 4).
// Everything here is pure and seeded — the same (population, seed)
// always yields the same schedule, which is what lets the scale
// harness promise byte-identical runs.
package workload

import (
	"math/rand"
	"sort"
	"time"
)

// ZipfPicker draws user indices with a Zipf-skewed distribution: a few
// hot users (executives, shared rooms) appear in many meetings while
// the long tail appears rarely. Skew s > 1 controls how hot the head
// is; s near 1 is mild, 2+ is extreme.
type ZipfPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

// NewZipfPicker builds a picker over n users with skew s (clamped to a
// minimum of 1.01; rand.Zipf requires s > 1).
func NewZipfPicker(n int, s float64, seed int64) *ZipfPicker {
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfPicker{
		rng:  rng,
		zipf: rand.NewZipf(rng, s, 1, uint64(n-1)),
		n:    n,
	}
}

// Pick draws one user index in [0, n).
func (z *ZipfPicker) Pick() int { return int(z.zipf.Uint64()) }

// PickSet draws k distinct user indices, none equal to exclude. The
// skew still applies: hot users land in most sets.
func (z *ZipfPicker) PickSet(k, exclude int) []int {
	if k > z.n-1 {
		k = z.n - 1
	}
	seen := map[int]bool{exclude: true}
	out := make([]int, 0, k)
	for len(out) < k {
		idx := z.Pick()
		for seen[idx] {
			// Collision on a hot user: walk to the nearest free index
			// instead of re-drawing, bounding the loop even when k
			// approaches n.
			idx = (idx + 1) % z.n
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

// PoissonArrivals draws an open-loop arrival schedule: count offsets
// in [0, horizon) whose gaps are exponentially distributed (a Poisson
// process conditioned on its count), sorted ascending. Open-loop means
// the offsets do not depend on how long any operation takes — load
// keeps arriving whether or not the system keeps up, which is what
// exposes queueing collapse.
func PoissonArrivals(count int, horizon time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, count)
	for i := range out {
		// Uniform order statistics of a Poisson process are i.i.d.
		// uniforms; sorting yields the arrival times.
		out[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SkewedMeetingPlans draws count meeting requests whose initiators and
// participants follow a Zipf distribution over the population — the
// contention-heavy cousin of MakeMeetingPlans, where the same hot
// calendars are negotiated over and over (the nonlinear abort-rate
// regime).
func SkewedMeetingPlans(users []string, count, fanout int, skew float64, seed int64) []MeetingPlan {
	if fanout >= len(users) {
		fanout = len(users) - 1
	}
	picker := NewZipfPicker(len(users), skew, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	plans := make([]MeetingPlan, count)
	for i := range plans {
		init := picker.Pick()
		set := picker.PickSet(fanout, init)
		parts := make([]string, len(set))
		for j, idx := range set {
			parts[j] = users[idx]
		}
		plans[i] = MeetingPlan{
			Initiator:    users[init],
			Participants: parts,
			Priority:     rng.Intn(10),
		}
	}
	return plans
}
