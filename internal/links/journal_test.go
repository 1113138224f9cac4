package links_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/links"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wire"
)

// storedJournal decodes the one journal row on a's device, as the table
// holds it — what a restart would find.
func storedJournal(t *testing.T, h *harness) (attempts int, pending []string, nextRetry time.Time) {
	t.Helper()
	tab, err := h.nodes["a"].DB.Table(links.NegotiationJournal)
	if err != nil {
		t.Fatal(err)
	}
	var rows []store.Row
	tab.ViewAll(func(r store.Row) { rows = append(rows, r.Clone()) })
	if len(rows) != 1 {
		t.Fatalf("journal holds %d rows, want 1", len(rows))
	}
	var rec struct {
		Attempts int
		Pending  []struct {
			Ref links.EntityRef `json:"ref"`
		}
	}
	if err := json.Unmarshal([]byte(rows[0].Str("rec")), &rec); err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.Pending {
		pending = append(pending, p.Ref.User)
	}
	return rec.Attempts, pending, rows[0].Time("next_retry")
}

// TestJournalRowRecordsSweepProgress: a partial phase 2 leaves a journal
// row, and every sweep writes what it achieved back into it — the
// attempt count, the backed-off next retry, the targets still owed a
// Commit — so an acknowledged target is not sent Commit again, the
// backoff grows, and a row whose target never returns expires after
// maxAttempts instead of being re-driven every sweep for ever. (The
// update used to carry the key column among its changes; the store
// refused it and the error was dropped, so the row never changed.)
func TestJournalRowRecordsSweepProgress(t *testing.T) {
	h := newHarness(t, "a", "x", "y")
	lm := h.nodes["a"].Links
	reg := metrics.NewRegistry()
	lm.SetMetrics(reg)

	// The fault runs on the goroutine of each Commit send.
	var mu sync.Mutex
	down := map[string]bool{"x": true, "y": true}
	sent := map[string]int{}
	lm.SetCommitFault(func(_ string, ref links.EntityRef) error {
		mu.Lock()
		defer mu.Unlock()
		sent[ref.User]++
		if down[ref.User] {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: unreachable"}
		}
		return nil
	})
	setDown := func(user string, v bool) { mu.Lock(); down[user] = v; mu.Unlock() }
	sentTo := func(user string) int { mu.Lock(); defer mu.Unlock(); return sent[user] }
	_, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("x", "s", "y", "s"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	attempts, pending, retry1 := storedJournal(t, h)
	if attempts != 1 || len(pending) != 2 {
		t.Fatalf("after the inline round: attempts %d, pending %v; want 1, [x y]", attempts, pending)
	}

	// Sweep 1: x is back and acknowledges; y is still away.
	setDown("x", false)
	h.clk.Advance(links.RetryBase)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 0 {
		t.Fatalf("sweep 1 resolved %d rows, want 0", n)
	}
	attempts, pending, retry2 := storedJournal(t, h)
	if attempts != 2 || len(pending) != 1 || pending[0] != "y" {
		t.Fatalf("after sweep 1: attempts %d, pending %v; want 2, [y]", attempts, pending)
	}
	if !retry2.After(retry1) || retry2.Sub(h.clk.Now()) != 2*links.RetryBase {
		t.Fatalf("next retry went from %s to %s at %s, want now + the doubled backoff", retry1, retry2, h.clk.Now())
	}
	if h.nodes["x"].status("s") != "M" {
		t.Fatalf("x = %q after its redriven Commit", h.nodes["x"].status("s"))
	}

	// Sweep 2: only y is owed a Commit, so only y is sent one.
	xSends := sentTo("x")
	h.clk.Advance(2 * links.RetryBase)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 0 {
		t.Fatalf("sweep 2 resolved %d rows, want 0", n)
	}
	if sentTo("x") != xSends {
		t.Fatalf("x acknowledged in sweep 1 and was sent Commit again in sweep 2")
	}
	attempts, _, retry3 := storedJournal(t, h)
	if attempts != 3 || retry3.Sub(h.clk.Now()) != 4*links.RetryBase {
		t.Fatalf("after sweep 2: attempts %d, next retry in %s; want 3, %s", attempts, retry3.Sub(h.clk.Now()), 4*links.RetryBase)
	}

	// The backoff stops growing at the cap, and the sweep after the
	// maxAttempts-th attempt expires the row.
	for a := 4; a <= links.MaxAttempts; a++ {
		h.clk.Advance(links.RetryCap)
		if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 0 {
			t.Fatalf("attempt %d resolved %d rows, want 0", a, n)
		}
	}
	if _, _, retry := storedJournal(t, h); retry.Sub(h.clk.Now()) != links.RetryCap {
		t.Fatalf("last backoff = %s, want the cap %s", retry.Sub(h.clk.Now()), links.RetryCap)
	}
	h.clk.Advance(links.RetryCap)
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("attempt %d resolved %d rows, want the expired one", links.MaxAttempts+1, n)
	}
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal after expiry = %v", p)
	}
	e := reg.Snapshot().Find(metrics.LayerLinks, "negotiate", "journal-expire", wire.CodeUnavailable)
	if e == nil || e.Count != 1 {
		t.Fatalf("journal-expire count = %+v, want 1", e)
	}
}

// TestRedriveBackoffWaitsOnManagerClock: the wait between a redrive's
// two Commit attempts is a timer on the manager's clock. A sweep whose
// first attempt finds the target unreachable parks on the fake clock
// and finishes only once the clock is advanced past retryBase/8: a node
// on a fake clock has no wall-clock wait left in its sweeps. x and y are
// both marked (an And over two); x's Commit is the one lost.
func TestRedriveBackoffWaitsOnManagerClock(t *testing.T) {
	h := newHarness(t, "a", "x", "y")
	lm := h.nodes["a"].Links

	// The inline Commit to x is lost, leaving a journal row to redrive.
	lm.SetCommitFault(func(_ string, ref links.EntityRef) error {
		if ref.User == "x" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: unreachable"}
		}
		return nil
	})
	_, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{wire.Str("meeting", "M")},
		Targets: refs("x", "s", "y", "s"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	lm.SetCommitFault(nil)

	h.net.SetDown("node-x", true)
	h.clk.Advance(time.Second)
	now := h.clk.Now()
	done := make(chan int, 1)
	go func() { done <- lm.RetryCommits(ctxBg(), now) }()
	for deadline := time.Now().Add(5 * time.Second); h.clk.PendingWaiters() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the redrive never parked on the manager's clock after its failed first attempt")
		}
		time.Sleep(time.Millisecond)
	}
	h.net.SetDown("node-x", false)
	select {
	case n := <-done:
		t.Fatalf("sweep returned %d while its backoff was still pending", n)
	default:
	}

	h.clk.Advance(100 * time.Millisecond)
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("sweep resolved %d rows, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the redrive did not finish after the clock passed its backoff")
	}
	if got := h.nodes["x"].status("s"); got != "M" {
		t.Fatalf("x = %q after the redriven Commit", got)
	}
	if p := lm.JournalPending(); len(p) != 0 {
		t.Fatalf("journal after the redrive = %v", p)
	}
}

// journalAttempts maps every journal row on a's device to its attempt
// count, by negotiation id.
func journalAttempts(t *testing.T, h *harness) map[string]int {
	t.Helper()
	tab, err := h.nodes["a"].DB.Table(links.NegotiationJournal)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	tab.ViewAll(func(row store.Row) {
		var rec struct{ Attempts int }
		if err := json.Unmarshal([]byte(row.Str("rec")), &rec); err != nil {
			t.Fatal(err)
		}
		out[row.Str("id")] = rec.Attempts
	})
	return out
}

// TestRetrySweepBound: one sweep redrives at most maxRetryRowsPerSweep
// (32) due rows, the oldest-due first, and leaves the rest exactly as
// they were for the next sweep. 40 rows owe x a message x never gets: the
// first sweep advances the attempts of the 32 that fell due first, the
// second those of the other 8 (the 32 are then backed off, not due). The
// rows are commit rows (x's Commits are lost; y, marked with x by an And
// over two, gets its own), or commit and delete rows in turn (x is also
// down for the deletion of a link it shares with a): the sweep takes both
// kinds by age alike. A one-phase reserve of x alone journals the same
// commit rows.
func TestRetrySweepBound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mixed   bool
		targets func(entity string) []links.EntityRef
	}{
		{"commit rows", false, markedPair},
		{"commit and delete rows", true, markedPair},
		{"one-phase commit rows", false, func(entity string) []links.EntityRef { return refs("x", entity) }},
	} {
		t.Run(tc.name, func(t *testing.T) { retrySweepBound(t, tc.mixed, tc.targets) })
	}
}

// markedPair is x's and y's entity, an And over which is marked.
func markedPair(entity string) []links.EntityRef { return refs("x", entity, "y", entity) }

func retrySweepBound(t *testing.T, mixed bool, targets func(entity string) []links.EntityRef) {
	const rows, bound = 40, 32
	h := newHarness(t, "a", "x", "y")
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(_ string, ref links.EntityRef) error {
		if ref.User == "x" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected: unreachable"}
		}
		return nil
	})
	ids := make([]string, rows)
	for i := range ids {
		if mixed && i%2 == 1 {
			ids[i] = fmt.Sprintf("LX%02d", i)
			l := participantRow(ids[i], links.EntityRef{User: "a", Entity: "s"}, refs("a", "s", "x", "s"))
			if err := lm.InstallAt(ctxBg(), "a", l); err != nil {
				t.Fatal(err)
			}
			h.net.SetDown("node-x", true)
			if err := lm.DeleteLink(ctxBg(), ids[i], nil); err != nil {
				t.Fatalf("deletion %d: %v", i, err)
			}
		} else {
			res, err := lm.Negotiate(ctxBg(), links.Spec{
				Action: "reserve", Args: wire.Args{wire.Str("meeting", fmt.Sprintf("M%02d", i))},
				Targets: targets(fmt.Sprintf("s%02d", i)), Constraint: links.And,
			})
			if !links.IsInDoubt(err) {
				t.Fatalf("negotiation %d: err = %v, want in-doubt", i, err)
			}
			ids[i] = res.NID
		}
		h.net.SetDown("node-x", false)
		h.clk.Advance(time.Millisecond) // row i falls due before row i+1
	}
	h.net.SetDown("node-x", true)
	wantAttempts := func(sweep string, first, rest int) {
		t.Helper()
		got := journalAttempts(t, h)
		if len(got) != rows {
			t.Fatalf("%s: journal holds %d rows, want %d", sweep, len(got), rows)
		}
		for i, id := range ids {
			want := rest
			if i < bound {
				want = first
			}
			if got[id] != want {
				t.Fatalf("%s: row %d (%s) has attempts %d, want %d", sweep, i, id, got[id], want)
			}
		}
	}
	wantAttempts("before any sweep", 1, 1)

	h.clk.Advance(2 * time.Second) // every row is due
	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 0 {
		t.Fatalf("sweep 1 resolved %d rows, want 0", n)
	}
	wantAttempts("after sweep 1", 2, 1)

	if n := lm.RetryCommits(ctxBg(), h.clk.Now()); n != 0 {
		t.Fatalf("sweep 2 resolved %d rows, want 0", n)
	}
	wantAttempts("after sweep 2", 2, 2)
}
