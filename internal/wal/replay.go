package wal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/store"
)

// replayResult describes what a log replay did.
type replayResult struct {
	// LastLSN is the highest LSN applied (or skipped as already
	// covered); 0 when the log was empty.
	LastLSN uint64
	// Records and Txs count applied records / tx units.
	Records, Txs int
	// TornTail is true when the physically last segment ended in an
	// incomplete or corrupt record (the expected shape of a crash);
	// SkippedBytes is how much garbage replay truncated away, across
	// all segments.
	TornTail     bool
	SkippedBytes int64
}

// replay applies every complete log record with LSN > after to db, in
// order. A torn or corrupt frame is physically truncated off its
// segment so the valid prefix stays appendable and a later recovery
// never re-reads the garbage. A tear is terminal only in the
// physically LAST segment (the normal crash shape); a tear in an
// earlier segment is the healed remnant of a previous crash whose
// recovery continued in the next segment, so replay proceeds there —
// the fsync-acked records it holds must not be lost. It fails
// loudly when the segments cannot reach the replay start or leave an
// LSN gap after a tear: silently skipping a gap would present stale
// data as current. Mutations are applied without firing triggers or
// re-logging.
//
// replay is tolerant of a checkpoint snapshot that is slightly ahead
// of its recorded LSN (a mutation can reach the in-memory store just
// before its record is assigned): an insert over an existing row
// overwrites it, and an update/delete of a missing row is skipped —
// the later records that explain the mismatch are in the tail and
// replay in order.
func replay(dir string, db *store.DB, after uint64) (replayResult, error) {
	var res replayResult
	res.LastLSN = after
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	if len(segs) > 0 && segs[0].first > after+1 {
		return res, fmt.Errorf("wal: log starts at LSN %d but replay must start at %d: segments missing", segs[0].first, after+1)
	}
	for i, seg := range segs {
		// Skip segments that end at or below the checkpoint.
		if i+1 < len(segs) && segs[i+1].first <= after+1 {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return res, fmt.Errorf("wal: replay %s: %w", seg.path, err)
		}
		off := 0
		torn := false
		for {
			payload, n, ferr := nextFrame(data[off:])
			if ferr != nil {
				torn = errors.Is(ferr, errTorn)
				break // torn, or io.EOF: clean end of segment
			}
			rec, derr := decodeRecord(payload)
			if derr != nil || (res.LastLSN > 0 && rec.LSN <= res.LastLSN && rec.LSN > after) {
				// Undecodable, or a replayed-duplicate LSN: an artifact
				// of a half-finished earlier recovery. Treat as a tear.
				torn = true
				break
			}
			if res.LastLSN > 0 && rec.LSN > res.LastLSN+1 {
				// A checksummed record ABOVE the expected LSN means
				// acked records are missing; truncating cannot repair
				// that, so refuse to come up with a silent hole.
				return res, fmt.Errorf("wal: replay %s: LSN gap: got record %d, want %d", seg.path, rec.LSN, res.LastLSN+1)
			}
			off += n
			if rec.LSN <= after {
				continue
			}
			if err := applyRecord(db, rec); err != nil {
				return res, err
			}
			res.LastLSN = rec.LSN
			res.Records++
			if rec.Kind == kindTx {
				res.Txs++
			}
		}
		if !torn {
			continue
		}
		res.SkippedBytes += int64(len(data) - off)
		if err := truncateTear(seg.path, int64(off)); err != nil {
			return res, err
		}
		if i+1 == len(segs) {
			res.TornTail = true
			return res, nil
		}
		if segs[i+1].first != res.LastLSN+1 {
			return res, fmt.Errorf("wal: tear in %s after LSN %d but next segment starts at %d: log gap", seg.path, res.LastLSN, segs[i+1].first)
		}
	}
	return res, nil
}

// truncateTear cuts a torn tail off a segment, keeping the first keep
// bytes (the valid frame prefix), and syncs the result.
func truncateTear(path string, keep int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: truncate tear: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(keep); err != nil {
		return fmt.Errorf("wal: truncate tear: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncate tear: %w", err)
	}
	return nil
}

// applyRecord applies one record to db with upsert/skip tolerance (see
// replay).
func applyRecord(db *store.DB, rec record) error {
	switch rec.Kind {
	case kindTable:
		if rec.Schema == nil {
			return fmt.Errorf("wal: record %d: table record without schema", rec.LSN)
		}
		err := db.ApplyDDLTable(docToSchema(rec.Schema))
		if errors.Is(err, store.ErrDupTable) {
			return nil // snapshot already has it
		}
		return err
	case kindIndex:
		return db.ApplyDDLIndex(rec.Table, rec.Col) // CreateIndex is idempotent
	case kindTx:
		for _, doc := range rec.Ops {
			op, err := docToOp(db, doc)
			if err != nil {
				return fmt.Errorf("wal: record %d: %w", rec.LSN, err)
			}
			if err := applyOp(db, op); err != nil {
				return fmt.Errorf("wal: record %d: %w", rec.LSN, err)
			}
		}
		return nil
	}
	return fmt.Errorf("wal: record %d: unknown kind %q", rec.LSN, rec.Kind)
}

// applyOp applies one op tolerantly: insert upserts, update/delete of
// a missing row is a no-op.
func applyOp(db *store.DB, op store.LoggedOp) error {
	err := db.ApplyLogged([]store.LoggedOp{op})
	switch {
	case err == nil:
		return nil
	case op.Op == store.OpInsert && errors.Is(err, store.ErrDupKey):
		// Upsert: replace the existing row with the logged one, whose
		// key columns name the row to delete.
		del := store.LoggedOp{Table: op.Table, Op: store.OpDelete, Key: op.Row}
		if err := db.ApplyLogged([]store.LoggedOp{del, op}); err != nil {
			return err
		}
		return nil
	case op.Op != store.OpInsert && errors.Is(err, store.ErrNoRow):
		return nil
	}
	return err
}
