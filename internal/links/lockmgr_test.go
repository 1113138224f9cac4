package links

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

func TestTryLockExcludes(t *testing.T) {
	lt := NewLockTable(nil)
	tok, ok := lt.TryLock("slot9", "a")
	if !ok || tok == "" {
		t.Fatal("first lock failed")
	}
	if _, ok := lt.TryLock("slot9", "b"); ok {
		t.Fatal("second lock acquired")
	}
	// Not re-entrant even for the same holder.
	if _, ok := lt.TryLock("slot9", "a"); ok {
		t.Fatal("re-entrant lock acquired")
	}
	if !lt.Locked("slot9") || !lt.Holds("slot9", tok) {
		t.Fatal("lock state inconsistent")
	}
	if lt.Holds("slot9", "bogus") {
		t.Fatal("bogus token holds")
	}
}

func TestUnlock(t *testing.T) {
	lt := NewLockTable(nil)
	tok, _ := lt.TryLock("slot9", "a")
	if lt.Unlock("slot9", "wrong") {
		t.Fatal("unlock with wrong token succeeded")
	}
	if !lt.Unlock("slot9", tok) {
		t.Fatal("unlock failed")
	}
	if lt.Locked("slot9") {
		t.Fatal("still locked")
	}
	if lt.Unlock("slot9", tok) {
		t.Fatal("double unlock succeeded")
	}
	if _, ok := lt.TryLock("slot9", "b"); !ok {
		t.Fatal("relock after unlock failed")
	}
}

func TestLockExpiryAndSteal(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	tok1, ok := lt.TryLock("slot9", "a")
	if !ok {
		t.Fatal("lock failed")
	}
	fake.Advance(lockTTL / 2)
	if _, ok := lt.TryLock("slot9", "b"); ok {
		t.Fatal("live lock stolen")
	}
	fake.Advance(lockTTL/2 + time.Second) // past TTL
	tok2, ok := lt.TryLock("slot9", "b")
	if !ok {
		t.Fatal("expired lock not stolen")
	}
	// The old token no longer unlocks.
	if lt.Unlock("slot9", tok1) {
		t.Fatal("stale token unlocked a stolen lock")
	}
	if !lt.Holds("slot9", tok2) {
		t.Fatal("new holder lost the lock")
	}
}

func TestHoldsRespectsExpiry(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	tok, _ := lt.TryLock("slot9", "a")
	fake.Advance(lockTTL + time.Second)
	if lt.Holds("slot9", tok) {
		t.Fatal("expired lock still held")
	}
	if lt.Locked("slot9") {
		t.Fatal("expired lock reported locked")
	}
}

func TestLenAndSweep(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	lt.TryLock("a", "x")
	lt.TryLock("b", "x")
	if lt.Len() != 2 {
		t.Fatalf("Len = %d", lt.Len())
	}
	fake.Advance(lockTTL + time.Second)
	lt.TryLock("c", "x")
	if lt.Len() != 1 {
		t.Fatalf("Len after expiry = %d", lt.Len())
	}
	if n := lt.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d", n)
	}
	if lt.Len() != 1 {
		t.Fatalf("Len after sweep = %d", lt.Len())
	}
}

// TestGrantSweepsExpiredEntries: marks of 1,024 distinct entities that
// expire and are never marked again leave the table at the grant that
// finds it doubled since its last sweep (at 512 entries), here the next
// TryLock; the table then holds only live entries.
func TestGrantSweepsExpiredEntries(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	for i := 0; i < 1024; i++ {
		if _, ok := lt.TryLock(fmt.Sprintf("e%d", i), "x"); !ok {
			t.Fatalf("mark %d refused", i)
		}
	}
	fake.Advance(lockTTL + time.Second)
	if _, ok := lt.TryLock("one-more", "x"); !ok {
		t.Fatal("mark refused")
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if len(lt.locks) != 1 {
		t.Fatalf("the table holds %d entries, want the 1 live one", len(lt.locks))
	}
	if _, ok := lt.locks["one-more"]; !ok {
		t.Fatal("the live mark was swept")
	}
}

func TestConcurrentTryLockOneWinner(t *testing.T) {
	lt := NewLockTable(nil)
	const n = 32
	var wg sync.WaitGroup
	wins := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, wins[i] = lt.TryLock("slot9", "h")
		}(i)
	}
	wg.Wait()
	count := 0
	for _, w := range wins {
		if w {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("winners = %d", count)
	}
}

// TestDefaultTTLApplied: a mark excludes others for exactly lockTTL.
func TestDefaultTTLApplied(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	lt.TryLock("slot9", "a")
	fake.Advance(lockTTL - time.Nanosecond)
	if !lt.Locked("slot9") {
		t.Fatal("mark lapsed before lockTTL")
	}
	fake.Advance(time.Nanosecond)
	if lt.Locked("slot9") {
		t.Fatal("mark outlived lockTTL")
	}
}

func TestTokensUnique(t *testing.T) {
	lt := NewLockTable(nil)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tok, ok := lt.TryLock("e", "h")
		if !ok {
			t.Fatal("lock failed")
		}
		if seen[tok] {
			t.Fatal("token reused")
		}
		seen[tok] = true
		lt.Unlock("e", tok)
	}
}

// TestHoldWaitsOrRefuses: a hold outlives the TTL; a vote is refused at
// once by a negotiation's hold and waits for a step's; a wait ends with
// its ctx or is woken by the release.
func TestHoldWaitsOrRefuses(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	ctx := context.Background()
	neg, err := lt.Hold(ctx, "m", "x", HoldNegotiation)
	if err != nil {
		t.Fatal(err)
	}
	fake.Advance(time.Minute)
	if _, ok := lt.TryLock("m", "y"); ok || lt.Len() != 1 || lt.Sweep() != 0 {
		t.Fatal("a hold lapsed with the TTL")
	}
	if _, err := lt.Hold(ctx, "m", "v", HoldVote); wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("vote on a negotiation's hold: %v, want a conflict", err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := lt.Hold(done, "m", "s", HoldStep); !errors.Is(err, context.Canceled) {
		t.Fatalf("step whose ctx is done: %v, want it canceled", err)
	}

	step := make(chan string)
	go func() {
		tok, err := lt.Hold(ctx, "m", "s", HoldStep)
		if err != nil {
			t.Error(err)
		}
		step <- tok
	}()
	lt.Unlock("m", neg)
	tok := <-step
	voted := make(chan error)
	go func() {
		tok, err := lt.Hold(ctx, "m", "v", HoldVote)
		lt.Unlock("m", tok)
		voted <- err
	}()
	// The cancelled wait's channel went with the release of neg: a wake
	// channel now is the vote's wait.
	for waiting := false; !waiting; runtime.Gosched() {
		lt.mu.Lock()
		waiting = lt.wake != nil
		lt.mu.Unlock()
	}
	select {
	case err := <-voted:
		t.Fatalf("vote returned %v while a step holds the entity", err)
	default:
	}
	lt.Unlock("m", tok)
	if err := <-voted; err != nil {
		t.Fatal(err)
	}
	if got, want := lt.Stats(), (LockStats{Acquired: 3, Conflicts: 2}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if lt.Len() != 0 || lt.Sweep() != 0 {
		t.Fatal("an entry is left")
	}
}

// TestLockStatsCounters: grants, live-lock conflicts, and expiry
// steals are each counted exactly once per TryLock outcome.
func TestLockStatsCounters(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	lt := NewLockTable(fake)
	if _, ok := lt.TryLock("cal.a", "phil"); !ok {
		t.Fatal("first lock failed")
	}
	if _, ok := lt.TryLock("cal.a", "andy"); ok {
		t.Fatal("conflicting lock granted")
	}
	fake.Advance(lockTTL + time.Second)
	if _, ok := lt.TryLock("cal.a", "andy"); !ok {
		t.Fatal("expired lock not stolen")
	}
	got := lt.Stats()
	want := LockStats{Acquired: 2, Conflicts: 1, Steals: 1}
	if got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}
