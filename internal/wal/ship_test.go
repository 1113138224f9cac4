package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
)

// shipSrc is a primary with a logged table and a helper to commit rows.
type shipSrc struct {
	t *testing.T
	d *Durable
	n int
}

func newShipSrc(t *testing.T, dir string, opt Options) *shipSrc {
	t.Helper()
	d := mustOpen(t, dir, opt)
	if _, err := d.DB.CreateTable(testSchema("events")); err != nil && !errors.Is(err, store.ErrDupTable) {
		t.Fatal(err)
	}
	return &shipSrc{t: t, d: d}
}

func (s *shipSrc) commit(rows int) {
	s.t.Helper()
	tbl, err := s.d.DB.Table("events")
	if err != nil {
		s.t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		s.n++
		if err := insertRow(s.d.DB, tbl, rowOf(tbl, map[string]any{"id": int64(s.n), "val": fmt.Sprintf("v%04d", s.n), "ts": shipTime})); err != nil {
			s.t.Fatal(err)
		}
	}
}

// ship pulls everything outstanding from the primary into the follower,
// asserting every batch verifies.
func ship(t *testing.T, d, r *Durable, maxBytes int) {
	t.Helper()
	for {
		batch, err := d.ReadFrames(r.LastLSN()+1, maxBytes)
		if err != nil {
			t.Fatalf("ReadFrames: %v", err)
		}
		if len(batch.Frames) == 0 {
			return
		}
		if _, err := r.AppendFrames(batch.Frames); err != nil {
			t.Fatalf("AppendFrames: %v", err)
		}
		if batch.Last != r.LastLSN() {
			t.Fatalf("applied %d != shipped last %d", r.LastLSN(), batch.Last)
		}
	}
}

func TestShipCatchUpByteIdentical(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(40)
	fdir := t.TempDir()
	r := mustOpen(t, fdir, Options{})
	ship(t, src.d, r, 1<<20)
	if got, want := snapshotOf(t, r.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("follower snapshot differs from primary after catch-up")
	}
	if r.LastLSN() != src.d.LastLSN() {
		t.Fatalf("applied %d, primary last %d", r.LastLSN(), src.d.LastLSN())
	}
	// More commits ship incrementally and in small pages.
	src.commit(25)
	ship(t, src.d, r, 200) // force multiple pages
	if got, want := snapshotOf(t, r.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("follower snapshot differs after incremental ship")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShipRemainingReportsLag(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(30)
	batch, err := src.d.ReadFrames(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Frames) == 0 || batch.Remaining == 0 {
		t.Fatalf("want partial batch with remaining lag, got %d frame bytes, remaining %d", len(batch.Frames), batch.Remaining)
	}
	rest, err := src.d.ReadFrames(batch.Last+1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rest.Frames)) != batch.Remaining {
		t.Fatalf("remaining %d != actual tail bytes %d", batch.Remaining, len(rest.Frames))
	}
	if rest.Remaining != 0 {
		t.Fatalf("full read still reports remaining %d", rest.Remaining)
	}
}

// TestShipFollowerRestartMidSegment is the satellite edge case: a
// follower that restarts mid-segment resumes from its applied LSN —
// no re-bootstrap, no duplicate application.
func TestShipFollowerRestartMidSegment(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(20)
	fdir := t.TempDir()
	r := mustOpen(t, fdir, Options{})
	// Ship only part of the log, then "crash" the follower.
	batch, err := src.d.ReadFrames(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendFrames(batch.Frames); err != nil {
		t.Fatal(err)
	}
	mid := r.LastLSN()
	if mid == 0 || mid == src.d.LastLSN() {
		t.Fatalf("want a mid-stream applied LSN, got %d of %d", mid, src.d.LastLSN())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := mustOpen(t, fdir, Options{})
	defer r2.Close()
	if r2.LastLSN() != mid {
		t.Fatalf("restarted follower applied %d, want %d", r2.LastLSN(), mid)
	}
	src.commit(10)
	ship(t, src.d, r2, 1<<20)
	if got, want := snapshotOf(t, r2.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("follower snapshot differs after restart + catch-up")
	}
}

// TestShipCorruptBatchRejected is the satellite edge case: a torn or
// corrupt batch from the primary is rejected whole — applied LSN does
// not move, nothing hits disk — and the re-requested clean batch then
// applies.
func TestShipCorruptBatchRejected(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(10)
	r := mustOpen(t, t.TempDir(), Options{})
	defer r.Close()
	batch, err := src.d.ReadFrames(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip mid-batch: CRC catches it, whole batch rejected.
	bad := append([]byte(nil), batch.Frames...)
	bad[len(bad)/2] ^= 0x40
	if _, err := r.AppendFrames(bad); !errors.Is(err, ErrBadFrames) {
		t.Fatalf("corrupt batch: got %v, want ErrBadFrames", err)
	}
	if r.LastLSN() != 0 {
		t.Fatalf("applied moved to %d on a rejected batch", r.LastLSN())
	}

	// Torn tail: the batch cut mid-frame is rejected whole too.
	if _, err := r.AppendFrames(batch.Frames[:len(batch.Frames)-3]); !errors.Is(err, ErrBadFrames) {
		t.Fatalf("torn batch: got %v, want ErrBadFrames", err)
	}

	// An LSN gap (first frame skipped) is rejected.
	_, n, err := nextFrame(batch.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendFrames(batch.Frames[n:]); !errors.Is(err, ErrBadFrames) {
		t.Fatalf("gapped batch: got %v, want ErrBadFrames", err)
	}

	// The re-request (same range, clean bytes) applies.
	if applied, err := r.AppendFrames(batch.Frames); err != nil || applied == 0 {
		t.Fatalf("clean re-request: applied=%d err=%v", applied, err)
	}
	if got, want := snapshotOf(t, r.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("follower snapshot differs after recovery from corrupt batch")
	}
}

func TestShipDuplicatePrefixSkipped(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(8)
	r := mustOpen(t, t.TempDir(), Options{})
	defer r.Close()
	batch, err := src.d.ReadFrames(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendFrames(batch.Frames); err != nil {
		t.Fatal(err)
	}
	// The whole batch redelivered: every frame already applied, no-op.
	if applied, err := r.AppendFrames(batch.Frames); err != nil || applied != 0 {
		t.Fatalf("duplicate delivery: applied=%d err=%v", applied, err)
	}
	if got, want := snapshotOf(t, r.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("duplicate delivery changed follower state")
	}
}

// TestShipSnapshotBootstrap is the satellite edge case: a follower too
// far behind a trimmed log bootstraps from a snapshot, then catches up
// from the tail, ending byte-identical to the primary.
func TestShipSnapshotBootstrap(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 256})
	src.commit(50)
	// Two checkpoints trim the early segments, so LSN 1 is gone.
	if err := src.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src.commit(50)
	if err := src.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src.commit(5)

	if _, err := src.d.ReadFrames(1, 1<<20); !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("trimmed log from LSN 1: got %v, want ErrSnapshotNeeded", err)
	}

	r := mustOpen(t, t.TempDir(), Options{})
	defer r.Close()
	data, lsn, err := src.d.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.InstallSnapshot(data, lsn); err != nil {
		t.Fatal(err)
	}
	if r.LastLSN() != lsn {
		t.Fatalf("applied %d after snapshot at %d", r.LastLSN(), lsn)
	}
	// Tail catch-up after bootstrap.
	src.commit(12)
	ship(t, src.d, r, 1<<20)
	if got, want := snapshotOf(t, r.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("follower snapshot differs after bootstrap + tail catch-up")
	}
}

// TestShipPromotionOpensFollowerDir proves the promotion contract: a
// follower's data directory is a valid WAL directory, so closing the
// follower and running full recovery over it yields a primary with
// byte-identical state that can append new records.
func TestShipPromotionOpensFollowerDir(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 512})
	src.commit(60) // several segments on the follower too
	fdir := t.TempDir()
	r := mustOpen(t, fdir, Options{})
	ship(t, src.d, r, 700)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	src.commit(10)
	ship(t, src.d, r, 700)
	want := snapshotOf(t, src.d.DB)
	lastLSN := r.LastLSN()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote: full recovery over the follower's directory.
	promoted := mustOpen(t, fdir, Options{Sync: SyncNone})
	defer promoted.Close()
	if got := snapshotOf(t, promoted.DB); !bytes.Equal(got, want) {
		t.Fatal("promoted state differs from primary")
	}
	if promoted.LastLSN() != lastLSN {
		t.Fatalf("promoted LastLSN %d, want %d", promoted.LastLSN(), lastLSN)
	}
	// The promoted node appends at the next LSN like any primary.
	tbl, err := promoted.DB.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(promoted.DB, tbl, rowOf(tbl, map[string]any{"id": int64(9999), "val": "post-promotion", "ts": shipTime})); err != nil {
		t.Fatal(err)
	}
	if promoted.LastLSN() != lastLSN+1 {
		t.Fatalf("post-promotion append LSN %d, want %d", promoted.LastLSN(), lastLSN+1)
	}
}

// TestShipFollowerSegmentsRotate checks the follower writes the same
// multi-segment layout a primary would and survives reopen across the
// rotation boundary.
func TestShipFollowerSegmentsRotate(t *testing.T) {
	src := newShipSrc(t, t.TempDir(), Options{Sync: SyncNone})
	src.commit(100)
	fdir := t.TempDir()
	r := mustOpen(t, fdir, Options{SegmentBytes: 300}) // tiny segments to force rotations
	ship(t, src.d, r, 250)
	segs, err := listSegments(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want rotated segments on the follower, got %d", len(segs))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, fdir, Options{})
	defer r2.Close()
	if got, want := snapshotOf(t, r2.DB), snapshotOf(t, src.d.DB); !bytes.Equal(got, want) {
		t.Fatal("rotated follower state differs after reopen")
	}
}

var shipTime = time.Date(2003, 4, 22, 9, 0, 0, 0, time.UTC)
