package wal

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

func testSchema(name string) store.Schema {
	return store.Schema{
		Name: name,
		Columns: []store.Column{
			{Name: "id", Type: store.Int},
			{Name: "val", Type: store.String},
			{Name: "ts", Type: store.Time},
		},
		Key: []string{"id"},
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Durable {
	t.Helper()
	d, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

// crash closes the log without checkpointing (Close takes none) —
// what a power cut leaves behind, minus the torn tail (tests that want
// one truncate the file).
func crash(t *testing.T, d *Durable) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatalf("crash close: %v", err)
	}
}

func snapshotOf(t *testing.T, db *store.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTripAndTear(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), []byte(`{"x":3}`)}
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := nextFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
		off += n
	}
	if _, _, err := nextFrame(buf[off:]); err == nil || err.Error() != "EOF" {
		t.Fatalf("clean end: want io.EOF, got %v", err)
	}
	// Every possible truncation of the valid log is a tear or a clean
	// prefix — never an error, never a bogus frame.
	for cut := 0; cut < len(buf); cut++ {
		data := buf[:cut]
		o := 0
		for {
			_, n, err := nextFrame(data[o:])
			if err != nil {
				break
			}
			o += n
		}
		if o > cut {
			t.Fatalf("cut %d: consumed %d past the cut", cut, o)
		}
	}
	// A flipped byte must fail the checksum of its frame.
	bad := append([]byte(nil), buf...)
	bad[frameHeader+1] ^= 0xff
	if _, _, err := nextFrame(bad); err != errTorn {
		t.Fatalf("corrupt payload: want errTorn, got %v", err)
	}
}

func TestDurableRestartCleanAndCrash(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("val"); err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for i := int64(0); i < 10; i++ {
		if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "v", "ts": ts})); err != nil {
			t.Fatal(err)
		}
	}
	if err := updateRow(d.DB, tab, rowOf(tab, map[string]any{"val": "updated"}), int64(3)); err != nil {
		t.Fatal(err)
	}
	if err := deleteRow(d.DB, tab, int64(7)); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, d.DB)

	// Clean close: checkpoint + trimmed log.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("clean restart: snapshot mismatch\ngot  %s\nwant %s", got, want)
	}

	// Crash (no checkpoint): mutations after the last checkpoint come
	// back from the log alone.
	tab2, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(d2.DB, tab2, rowOf(tab2, map[string]any{"id": int64(100), "val": "post-checkpoint", "ts": ts})); err != nil {
		t.Fatal(err)
	}
	want2 := snapshotOf(t, d2.DB)
	crash(t, d2)

	d3 := mustOpen(t, dir, Options{})
	defer d3.Close()
	if got := snapshotOf(t, d3.DB); !bytes.Equal(got, want2) {
		t.Fatalf("crash restart: snapshot mismatch\ngot  %s\nwant %s", got, want2)
	}
	st := d3.Stats()
	if st.ReplayedRecords == 0 {
		t.Fatalf("crash restart: expected replayed records, got %+v", st)
	}
}

func TestTxUnitIsAtomicAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	if _, err := d.DB.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	ts := time.Now().UTC()
	if err := d.DB.Unit(context.Background(), func(u *store.Tx) error {
		if err := u.Insert("t", rowIn(d.DB, "t", map[string]any{"id": int64(1), "val": "a", "ts": ts})); err != nil {
			return err
		}
		return u.Insert("t", rowIn(d.DB, "t", map[string]any{"id": int64(2), "val": "b", "ts": ts}))
	}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, d)

	// Chop the last byte: the tx record is torn, so NEITHER row may
	// survive — multi-row transactions are one atomic unit.
	if err := os.Truncate(seg, full.Size()-1); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	tab, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Count(); n != 0 {
		t.Fatalf("torn tx replayed partially: %d rows", n)
	}
	if st := d2.Stats(); !st.TornTail {
		t.Fatalf("expected torn tail in stats, got %+v", st)
	}
}

func TestRollbackIsNotLogged(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	if _, err := d.DB.CreateTable(testSchema("t")); err != nil {
		t.Fatal(err)
	}
	rollback := errors.New("rollback")
	if err := d.DB.Unit(context.Background(), func(u *store.Tx) error {
		if err := u.Insert("t", rowIn(d.DB, "t", map[string]any{"id": int64(1), "val": "x", "ts": time.Now().UTC()})); err != nil {
			return err
		}
		return rollback // the unit is dropped, never committed
	}); err != rollback {
		t.Fatal(err)
	}
	crash(t, d)
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	tab, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Count(); n != 0 {
		t.Fatalf("rolled-back tx resurfaced after recovery: %d rows", n)
	}
}

// TestDoubleCrashKeepsAckedCommits is the double-crash regression: a
// torn tail, a recovery, new fsync-acked commits, and a second crash.
// Recovery must truncate the first tear and append after it, so the
// second recovery still sees every post-first-crash commit — the old
// code opened (and O_TRUNCed) a fresh segment that a tear in an
// earlier segment then made unreachable.
func TestDoubleCrashKeepsAckedCommits(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	for i := int64(0); i < 5; i++ {
		if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "first", "ts": ts})); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, d)
	// First crash: tear the last record.
	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{Sync: SyncGroup})
	if st := d2.Stats(); !st.TornTail {
		t.Fatalf("first recovery saw no torn tail: %+v", st)
	}
	tab2, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab2.Count(); n != 4 {
		t.Fatalf("first recovery: %d rows, want 4", n)
	}
	// New acked commits after the first recovery.
	for i := int64(10); i < 13; i++ {
		if err := insertRow(d2.DB, tab2, rowOf(tab2, map[string]any{"id": i, "val": "second", "ts": ts})); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotOf(t, d2.DB)
	crash(t, d2) // second crash, no checkpoint

	d3 := mustOpen(t, dir, Options{})
	defer d3.Close()
	if got := snapshotOf(t, d3.DB); !bytes.Equal(got, want) {
		t.Fatalf("second recovery lost acked commits\ngot  %s\nwant %s", got, want)
	}
}

// frameBounds returns the end offset of every valid frame in data.
func frameBounds(t *testing.T, data []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for {
		_, n, err := nextFrame(data[off:])
		if err != nil {
			return bounds
		}
		off += n
		bounds = append(bounds, off)
	}
}

// TestHealedTearInEarlierSegment covers directories written by the
// pre-fix code: a tear in a NON-last segment followed by a later
// segment holding acked records (an earlier recovery continued there).
// Replay must truncate the tear and keep going — only a tear in the
// physically last segment is terminal.
func TestHealedTearInEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	for i := int64(0); i < 5; i++ {
		if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "v", "ts": ts})); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotOf(t, d.DB)
	crash(t, d)

	// Rebuild the old-code layout: segment 1 = frames [1..k] plus a
	// garbage tail, segment k+1 = the remaining frames (records are
	// LSN-sequential from 1, so frame k ends record k).
	seg1 := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, data)
	if len(bounds) != 6 { // DDL + 5 inserts
		t.Fatalf("expected 6 frames, got %d", len(bounds))
	}
	k := 3
	head := append(append([]byte(nil), data[:bounds[k-1]]...), "torn garbage"...)
	tail := append([]byte(nil), data[bounds[k-1]:]...)
	if err := os.WriteFile(seg1, head, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(k+1))), tail, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("healed-tear recovery lost the later segment\ngot  %s\nwant %s", got, want)
	}
	st := d2.Stats()
	if st.TornTail {
		t.Fatalf("healed mid-log tear reported as terminal: %+v", st)
	}
	if st.SkippedTailBytes == 0 {
		t.Fatalf("expected truncated garbage to be counted: %+v", st)
	}
}

// TestCheckpointFallbackKeepsLogTail: when the newest checkpoint is
// corrupt, recovery falls back to the previous one — which must still
// find log segments covering everything above its LSN, so the node
// comes back with the LATEST committed state, not a stale or empty DB.
func TestCheckpointFallbackKeepsLogTail(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so checkpoint trimming actually deletes files.
	d := mustOpen(t, dir, Options{SegmentBytes: 128, Sync: SyncNone})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	insert := func(lo, hi int64) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "v", "ts": ts})); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, 20)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(20, 40)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(40, 50)
	want := snapshotOf(t, d.DB)
	crash(t, d)

	// Corrupt the newest checkpoint in place.
	cps, err := listCheckpoints(dir)
	if err != nil || len(cps) < 2 {
		t.Fatalf("want >=2 retained checkpoints, got %d (%v)", len(cps), err)
	}
	if err := os.WriteFile(cps[0].path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("fallback recovery is stale\ngot  %s\nwant %s", got, want)
	}
	if st := d2.Stats(); st.CheckpointLSN != cps[1].first {
		t.Fatalf("recovered from checkpoint %d, want fallback %d", st.CheckpointLSN, cps[1].first)
	}
}

// TestOpenFailsLoudOnMissingSegments: when the log no longer reaches
// back to the replay start (segments deleted or misnamed), Open must
// refuse rather than silently present stale data as current.
func TestOpenFailsLoudOnMissingSegments(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": int64(1), "val": "v", "ts": time.Unix(0, 0).UTC()})); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint at LSN 2
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Fake a gap: the only segment now claims to start above the
	// checkpoint's replay start.
	if err := os.Rename(filepath.Join(dir, segmentName(1)), filepath.Join(dir, segmentName(10))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded over a log gap")
	}
}

// TestCheckpointExcludesOpenTxState: a checkpoint taken while a tx is
// open must not capture its uncommitted (later rolled back) ops — the
// store buffers tx mutations until Commit, so recovery can never
// resurrect them.
func TestCheckpointExcludesOpenTxState(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(0, 0).UTC()
	if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": int64(1), "val": "committed", "ts": ts})); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, d.DB)

	rollback := errors.New("rollback")
	if err := d.DB.Unit(context.Background(), func(u *store.Tx) error {
		if err := u.Insert("t", rowIn(d.DB, "t", map[string]any{"id": int64(2), "val": "uncommitted", "ts": ts})); err != nil {
			return err
		}
		if err := u.Update("t", rowIn(d.DB, "t", map[string]any{"val": "dirty"}), int64(1)); err != nil {
			return err
		}
		if err := d.Checkpoint(); err != nil { // mid-unit checkpoint; the unit is never committed
			return err
		}
		return rollback
	}); err != rollback {
		t.Fatal(err)
	}
	crash(t, d)

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint captured open-tx state\ngot  %s\nwant %s", got, want)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(wr*perWriter + i)
				if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": id, "val": "v", "ts": time.Unix(0, 0).UTC()})); err != nil {
					t.Errorf("insert %d: %v", id, err)
				}
			}
		}(wr)
	}
	wg.Wait()
	st := d.Stats()
	if st.Appends < writers*perWriter {
		t.Fatalf("appends %d < %d", st.Appends, writers*perWriter)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	crash(t, d)
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	tab2, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := tab2.Count(); n != writers*perWriter {
		t.Fatalf("recovered %d rows, want %d", n, writers*perWriter)
	}
}

// TestGroupCommitRecyclesAcrossAWriteFailure: eight writers share
// recycled pendings under SyncGroup while the segment file is closed
// underneath them mid-run. Every ack of a batch written before the
// failure returns nil, every ack of a batch the failure hit returns that
// write error (never nil), a reopen replays exactly the acked units in
// LSN order, and an ack taken after Close returns ErrClosed.
func TestGroupCommitRecyclesAcrossAWriteFailure(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 60
	ts := time.Unix(0, 0).UTC()
	acked := make([][]bool, writers) // acked[wr][i]: writer wr's unit i acked nil
	var logged atomic.Int64
	var wg sync.WaitGroup
	for wr := range writers {
		acked[wr] = make([]bool, perWriter)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": int64(wr*perWriter + i), "val": "v", "ts": ts}))
				switch {
				case err == nil:
					acked[wr][i] = true
				case !errors.Is(err, os.ErrClosed):
					t.Errorf("writer %d unit %d: %v, want the closed file's write error", wr, i, err)
				}
				if logged.Add(1) == writers*perWriter/2 {
					d.wal.ioMu.Lock()
					d.wal.f.Close()
					d.wal.ioMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	d.Close() // its final sync fails on the closed file
	op := store.LoggedOp{Table: "t", Op: store.OpInsert, Row: rowOf(tab, map[string]any{"id": int64(-1), "val": "v", "ts": ts})}
	if err := d.LogTx([]store.LoggedOp{op})(); err != ErrClosed {
		t.Fatalf("an ack taken after Close returned %v, want ErrClosed", err)
	}

	// A writer's units are acked in its order, so each writer's acked
	// units are a prefix of its units.
	want := map[int64]bool{}
	for wr, units := range acked {
		for i, ok := range units {
			if ok && i > 0 && !units[i-1] {
				t.Fatalf("writer %d: unit %d acked after unit %d failed", wr, i, i-1)
			}
			if ok {
				want[int64(wr*perWriter+i)] = true
			}
		}
	}
	if len(want) == 0 || len(want) == writers*perWriter {
		t.Fatalf("%d of %d units acked: the failure did not land mid-run", len(want), writers*perWriter)
	}

	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if n := d2.Stats().ReplayedTxs; n != uint64(len(want)) {
		t.Fatalf("reopen replayed %d units, want the %d acked", n, len(want))
	}
	tab2, err := d2.DB.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for id := range want {
		if _, ok := getRow(tab2, id); !ok {
			t.Fatalf("acked unit %d not replayed", id)
		}
	}
	// In LSN order: consecutive LSNs, and each writer's units in its order.
	data := readSegment(t, dir)
	var lastLSN uint64
	lastID := map[int64]int64{}
	for len(data) > 0 {
		payload, n, err := nextFrame(data)
		if err != nil {
			t.Fatalf("segment: %v", err)
		}
		data = data[n:]
		rec, err := decodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if lastLSN != 0 && rec.LSN != lastLSN+1 {
			t.Fatalf("LSN %d follows %d", rec.LSN, lastLSN)
		}
		lastLSN = rec.LSN
		if rec.Kind != kindTx {
			continue
		}
		id, err := strconv.ParseInt(string(rec.Ops[0].Row["id"]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := lastID[id/perWriter]; ok && prev >= id {
			t.Fatalf("writer %d: unit %d logged after unit %d", id/perWriter, id, prev)
		}
		lastID[id/perWriter] = id
	}
}

func TestSegmentRotationAndCheckpointTrim(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "rotate-me-please", "ts": time.Unix(0, 0).UTC()})); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Rotations == 0 {
		t.Fatalf("no rotations at 512-byte segments: %+v", st)
	}
	segsBefore, _ := listSegments(dir)
	if len(segsBefore) < 3 {
		t.Fatalf("want several segments, got %d", len(segsBefore))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("checkpoint trimmed nothing: %d -> %d segments", len(segsBefore), len(segsAfter))
	}
	want := snapshotOf(t, d.DB)
	crash(t, d)
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("post-trim recovery mismatch")
	}
}

// TestSyncNoneSyncsNoDirectory: over Open, a rotation forced by a small
// segment size and Close, SyncGroup syncs the directory once per segment
// it creates, and SyncNone never does.
func TestSyncNoneSyncsNoDirectory(t *testing.T) {
	real := syncDir
	defer func() { syncDir = real }()
	for _, policy := range []SyncPolicy{SyncGroup, SyncNone} {
		var syncs int
		syncDir = func(dir string) error { syncs++; return real(dir) }
		d := mustOpen(t, t.TempDir(), Options{SegmentBytes: 512, Sync: policy})
		tab, err := d.DB.CreateTable(testSchema("t"))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); d.Stats().Rotations == 0; i++ {
			if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "rotate-me-please", "ts": time.Unix(0, 0).UTC()})); err != nil {
				t.Fatal(err)
			}
		}
		crash(t, d)
		want := 0
		if policy == SyncGroup {
			want = 2 // the segment Open created and the one the rotation did
		}
		if syncs != want {
			t.Errorf("%v: %d directory syncs, want %d", policy, syncs, want)
		}
	}
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": int64(1), "val": "keep", "ts": time.Unix(0, 0).UTC()})); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, d.DB)
	if err := d.Checkpoint(); err != nil { // real checkpoint
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A corrupt "newer" checkpoint must be skipped, not trusted.
	if err := os.WriteFile(filepath.Join(dir, checkpointName(1<<40)), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, Options{})
	defer d2.Close()
	if got := snapshotOf(t, d2.DB); !bytes.Equal(got, want) {
		t.Fatalf("fallback recovery mismatch\ngot  %s\nwant %s", got, want)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"group": SyncGroup, "": SyncGroup,
		"none": SyncNone, "off": SyncNone,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// No per-record fsync policy: group commit already acks a record
	// only after the fsync that covers it.
	for _, in := range []string{"bogus", "always", "per-commit"} {
		if _, err := ParseSyncPolicy(in); err == nil {
			t.Fatalf("ParseSyncPolicy(%q): want error", in)
		}
	}
}

// TestTornClosedSegmentRefusesOpen is why a rotation syncs the segment it
// closes under SyncNone too: a segment that lost the tail of its records
// while the next segment kept its own is a log gap, and Open refuses it.
func TestTornClosedSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{SegmentBytes: 512, Sync: SyncNone})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); d.Stats().Rotations == 0 || i%4 != 0; i++ {
		if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": i, "val": "rotate-me-please", "ts": time.Unix(0, 0).UTC()})); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, d)
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %+v (%v), want two", segs, err)
	}
	// Segment 1 keeps its records but the last, and half of that one.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, data)
	last := bounds[len(bounds)-2]
	if err := os.WriteFile(segs[0].path, data[:last+(len(data)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "log gap") {
		t.Fatalf("Open over a torn closed segment: %v, want a log gap refused", err)
	}
}

// insertRow, updateRow and deleteRow write one row of tab in a unit of
// its own, and getRow copies one out of a visit: the one-row writes and
// point read of these tests. The writes copy what they are given, so a
// caller may reuse its rows.
func insertRow(db *store.DB, tab *store.Table, r store.Row) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Insert(tab.Schema().Name, r.Clone()) })
}

func updateRow(db *store.DB, tab *store.Table, ch store.Row, key ...any) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Update(tab.Schema().Name, ch.Clone(), key...) })
}

func deleteRow(db *store.DB, tab *store.Table, key ...any) error {
	return db.Unit(context.Background(), func(u *store.Tx) error { return u.Delete(tab.Schema().Name, key...) })
}

func getRow(tab *store.Table, key ...any) (row store.Row, ok bool) {
	ok = tab.View(func(r store.Row) { row = r.Clone() }, key...)
	return row, ok
}

// allRows copies every row of tab out of a visit, ordered by their text.
func allRows(tab *store.Table) []store.Row {
	var rows []store.Row
	tab.ViewAll(func(r store.Row) { rows = append(rows, r.Clone()) })
	slices.SortFunc(rows, func(a, b store.Row) int { return strings.Compare(a.String(), b.String()) })
	return rows
}
