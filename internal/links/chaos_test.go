package links_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/links"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The chaos harness: hundreds of negotiations driven through
// randomized message loss, partitions, downed participants, and
// injected coordinator commit faults — the fault schedule mutating at
// runtime on the live sim network. After each faulty round the faults
// are healed and the periodic fault sweeps (commit-retry journal on
// the coordinators, in-doubt resolution on the participants) run until
// every journal row and pending mark drains. The invariants:
//
//   - no double-booked slot: all targets of a slot agree on its holder;
//   - all-or-none: each negotiation ends with every target committed
//     or every target unchanged — never a lasting partial commit;
//   - liveness: journals and pending marks always drain once healed.
//
// Two coordinators race for the same slot every round, so the
// invariants are checked under contention, not just under faults.

// chaosRound is one round's pre-computed fault schedule. Decisions are
// drawn from the seed's rng up front so the concurrent negotiations
// never touch the (non-thread-safe) rng.
type chaosRound struct {
	loss      float64
	partition string // participant cut off from coordinator a ("" = none)
	down      string // participant taken down ("" = none)
	crashUser string // commits to this user fail at coordinator a
	entity    string
	latBase   time.Duration
	latJitter time.Duration
}

func TestChaosNegotiations(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHarness(t, "a", "b", "x", "y")
			runChaos(t, h, seed, 55) // 55 rounds x 2 racing negotiations x 3 seeds = 330 total
		})
	}
}

func runChaos(t *testing.T, h *harness, seed int64, rounds int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	parts := []string{"x", "y"}

	heal := func(r chaosRound) {
		h.net.SetLoss(0)
		h.net.SetLatency(0, 0)
		if p := r.partition; p != "" {
			h.net.Heal("a", "node-"+p)
			h.net.Heal(p, "node-a")
		}
		if r.down != "" {
			h.net.SetDown(r.down, false)
		}
		h.nodes["a"].Links.SetCommitFault(nil)
	}
	drain := func(round int) {
		for i := 0; i < 60; i++ {
			h.clk.Advance(time.Second)
			settled := true
			for _, n := range h.nodes {
				n.Links.FaultSweep(ctx, h.clk.Now())
				if len(n.Links.JournalPending()) > 0 || n.Links.PendingMarks() > 0 {
					settled = false
				}
			}
			if settled {
				return
			}
		}
		for u, n := range h.nodes {
			t.Logf("%s: journal=%v marks=%d", u, n.Links.JournalPending(), n.Links.PendingMarks())
		}
		t.Fatalf("seed %d round %d: journals/marks did not drain", seed, round)
	}

	committed, aborted, errored := 0, 0, 0
	for i := 0; i < rounds; i++ {
		// Draw this round's fault schedule.
		r := chaosRound{entity: fmt.Sprintf("s%d", rng.Intn(2))}
		if rng.Float64() < 0.8 {
			r.loss = 0.1 + 0.5*rng.Float64()
		}
		if rng.Float64() < 0.25 {
			r.partition = parts[rng.Intn(len(parts))]
		}
		if rng.Float64() < 0.2 {
			r.down = "node-" + parts[rng.Intn(len(parts))]
		}
		if rng.Float64() < 0.3 {
			r.crashUser = parts[rng.Intn(len(parts))]
		}
		if rng.Float64() < 0.3 {
			r.latBase = time.Duration(rng.Intn(3)) * time.Millisecond
			r.latJitter = time.Duration(rng.Intn(2)) * time.Millisecond
		}

		// Arm the faults on the live network. The sim keys a partition
		// by the caller's name and the callee's address, so a cut takes
		// both directions' pairs; a probe each way, sent before any loss
		// is armed, must find it.
		if p := r.partition; p != "" {
			h.net.Partition("a", "node-"+p)
			h.net.Partition(p, "node-a")
			for _, from := range [][2]string{{"a", p}, {p, "a"}} {
				_, err := h.net.Call(ctx, "node-"+from[1], &transport.Request{Caller: from[0], Service: "sys." + from[1], Method: "Services"})
				if wire.CodeOf(err) != wire.CodeUnavailable || !strings.Contains(fmt.Sprint(err), "partition") {
					t.Fatalf("seed %d round %d: a probe from %s to %s across the cut answered %v", seed, i, from[0], from[1], err)
				}
			}
		}
		h.net.SetLoss(r.loss)
		h.net.SetLatency(r.latBase, r.latJitter)
		if r.down != "" {
			h.net.SetDown(r.down, true)
		}
		if r.crashUser != "" {
			crash := r.crashUser
			h.nodes["a"].Links.SetCommitFault(func(nid string, ref links.EntityRef) error {
				if ref.User == crash {
					return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "chaos: coordinator crash"}
				}
				return nil
			})
		}

		// Two coordinators race for the same slot on both participants,
		// with the periodic fault sweeps running CONCURRENTLY with the
		// in-flight negotiations — as they do in production, where
		// FaultSweep rides the ExpireEvery schedule. A sweep landing
		// between a Mark grant and the coordinator's journal write must
		// hear "unknown" and keep the mark pinned, never presume abort
		// and hand one target to the thief while the other commits.
		mA := fmt.Sprintf("MA-%d-%d", seed, i)
		mB := fmt.Sprintf("MB-%d-%d", seed, i)
		targets := refs("x", r.entity, "y", r.entity)
		var wg sync.WaitGroup
		var errA, errB error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, errA = h.nodes["a"].Links.Negotiate(ctx, links.Spec{
				Action: "reserve", Args: wire.Args{wire.Str("meeting", mA)},
				Targets: targets, Constraint: links.And,
			})
		}()
		go func() {
			defer wg.Done()
			_, errB = h.nodes["b"].Links.Negotiate(ctx, links.Spec{
				Action: "reserve", Args: wire.Args{wire.Str("meeting", mB)},
				Targets: targets, Constraint: links.And,
			})
		}()
		sweepStop := make(chan struct{})
		var sweepWG sync.WaitGroup
		sweepWG.Add(1)
		go func() {
			defer sweepWG.Done()
			for {
				select {
				case <-sweepStop:
					return
				default:
				}
				for _, n := range h.nodes {
					n.Links.FaultSweep(ctx, h.clk.Now())
				}
				time.Sleep(time.Millisecond)
			}
		}()
		h.releasingBackoffs(links.RetryBase/8, func() {
			wg.Wait()
			close(sweepStop)
			sweepWG.Wait()
		})

		heal(r)
		drain(i)

		// Invariants: both participants agree on the holder, and the
		// holder is one of this round's meetings or nobody.
		sx, sy := h.nodes["x"].status(r.entity), h.nodes["y"].status(r.entity)
		if sx != sy {
			t.Fatalf("seed %d round %d: double booking/split brain: x=%q y=%q (errA=%v errB=%v)", seed, i, sx, sy, errA, errB)
		}
		switch sx {
		case "":
			aborted += 2
		case mA, mB:
			committed++
			aborted++
		default:
			t.Fatalf("seed %d round %d: slot holds foreign meeting %q", seed, i, sx)
		}
		if errA != nil {
			errored++
		}
		if errB != nil {
			errored++
		}

		// Free the slot for the next round and let stray locks lapse.
		h.nodes["x"].setStatus(r.entity, "")
		h.nodes["y"].setStatus(r.entity, "")
		h.clk.Advance(links.LockTTL + time.Second)
	}
	t.Logf("seed %d: %d committed, %d aborted, %d negotiation errors over %d negotiations",
		seed, committed, aborted, errored, rounds*2)
	if committed == 0 {
		t.Fatalf("seed %d: chaos never let a negotiation commit — schedule too hostile to be meaningful", seed)
	}
	if errored == 0 {
		t.Fatalf("seed %d: chaos produced no failures — schedule exercises nothing", seed)
	}
}
