package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/store"
)

// WAL shipping: the primary side of replication reads raw framed
// records back off the segment files so they can be streamed to a
// follower byte-identically. A follower's data directory is a Durable
// too, one that takes only shipped batches (AppendFrames,
// InstallSnapshot): it writes the same frames through the same segment
// writer, so a promoted follower's directory is a log Open recovers
// like any other.

// ErrBadFrames reports a shipped batch that failed verification (torn
// or corrupt frame, or an LSN out of sequence). The whole batch is
// rejected — nothing is written or applied — so the follower simply
// re-requests from its unchanged LastLSN.
var ErrBadFrames = errors.New("wal: shipped batch torn, corrupt, or out of sequence")

// ErrSnapshotNeeded reports that the requested LSN has been trimmed by
// a checkpoint: the follower is too far behind to catch up from the
// log and must bootstrap from a snapshot instead.
var ErrSnapshotNeeded = errors.New("wal: requested LSN already trimmed; snapshot bootstrap needed")

// ShipBatch is one contiguous run of raw framed records read for
// shipping.
type ShipBatch struct {
	// Frames holds complete frames for LSNs [from, Last], byte-identical
	// to the primary's segment contents. Empty when the log has nothing
	// at or above from.
	Frames []byte
	// Last is the LSN of the last frame included (from-1 when Frames is
	// empty).
	Last uint64
	// Remaining counts bytes of complete frames above Last still on
	// disk — the follower's lag once this batch is applied.
	Remaining int64
}

// lsnOf decodes just the LSN from a record payload.
func lsnOf(payload []byte) (uint64, error) {
	var rec struct {
		LSN uint64 `json:"lsn"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, fmt.Errorf("wal: ship decode: %w", err)
	}
	return rec.LSN, nil
}

// ReadFrames reads complete frames with LSN >= from, in order, until
// roughly maxBytes are collected. An in-flight (torn) tail frame is
// never shipped — only frames whose CRC verifies. The scan continues
// past maxBytes summing sizes only, so Remaining reports the
// follower's true byte lag. Concurrent appends are safe (frames are
// written sequentially and CRC-framed); a segment trimmed between
// listing and reading surfaces as ErrSnapshotNeeded unless frames were
// already collected.
func (d *Durable) ReadFrames(from uint64, maxBytes int) (ShipBatch, error) {
	if from == 0 {
		from = 1
	}
	batch := ShipBatch{Last: from - 1}
	segs, err := listSegments(d.dir)
	if err != nil {
		return batch, err
	}
	if len(segs) > 0 && from < segs[0].first {
		return batch, ErrSnapshotNeeded
	}
	for i, seg := range segs {
		// Skip segments entirely below from.
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// Trimmed between listing and reading. Whatever was
				// collected is still contiguous; with nothing collected
				// the follower needs a snapshot.
				if len(batch.Frames) == 0 {
					return batch, ErrSnapshotNeeded
				}
				return batch, nil
			}
			return batch, fmt.Errorf("wal: ship read %s: %w", seg.path, err)
		}
		off := 0
		for {
			payload, n, ferr := nextFrame(data[off:])
			if ferr != nil {
				// io.EOF: clean end of segment. errTorn: the in-flight
				// tail of the live segment — stop, never ship it.
				break
			}
			lsn, lerr := lsnOf(payload)
			if lerr != nil {
				return batch, lerr
			}
			if lsn >= from {
				if len(batch.Frames) < maxBytes {
					batch.Frames = append(batch.Frames, data[off:off+n]...)
					batch.Last = lsn
				} else {
					batch.Remaining += int64(n)
				}
			}
			off += n
		}
	}
	return batch, nil
}

// SnapshotAt captures a bootstrap snapshot for a lagging follower: the
// database serialized at (or slightly ahead of — replay tolerates
// that, exactly as it does for checkpoints) the returned LSN.
func (d *Durable) SnapshotAt() ([]byte, uint64, error) {
	lsn := d.wal.LastLSN()
	var buf bytes.Buffer
	if err := d.DB.Snapshot(&buf); err != nil {
		return nil, 0, fmt.Errorf("wal: ship snapshot: %w", err)
	}
	return buf.Bytes(), lsn, nil
}

// AppendFrames logs and applies one shipped batch on a follower. The
// whole batch is verified first — every frame's CRC, every LSN
// contiguous from LastLSN+1 (an already-logged prefix from a
// duplicated delivery is skipped) — and any defect rejects the entire
// batch with ErrBadFrames before a byte is written. The new frames are
// then written byte-identically through the log's one write path
// (rotate, write, fsync per policy) and applied to DB. Returns the
// number of records applied. A follower's DB takes no other writes.
func (d *Durable) AppendFrames(frames []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.wal
	w.mu.Lock()
	closed, want := w.closed, w.nextLSN
	w.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}

	var recs []record
	start := -1 // byte offset where the new frames begin
	for off := 0; off < len(frames); {
		payload, n, ferr := nextFrame(frames[off:])
		if ferr != nil {
			return 0, fmt.Errorf("%w: frame at offset %d", ErrBadFrames, off)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadFrames, derr)
		}
		switch {
		case rec.LSN < want:
			// Duplicate delivery of an already-logged prefix.
		case rec.LSN == want:
			if start < 0 {
				start = off
			}
			recs = append(recs, rec)
			want++
		default:
			return 0, fmt.Errorf("%w: LSN gap: got %d, want %d", ErrBadFrames, rec.LSN, want)
		}
		off += n
	}
	if len(recs) == 0 {
		return 0, nil
	}

	w.ioMu.Lock()
	err := w.writeLocked(recs[0].LSN, frames[start:])
	w.ioMu.Unlock()
	if err != nil {
		return 0, err
	}
	// A failure to apply is fatal to the follower — disk and memory
	// have diverged — so LastLSN stops at the last record applied.
	next := recs[0].LSN
	for _, rec := range recs {
		if err = applyRecord(d.DB, rec); err != nil {
			err = fmt.Errorf("wal: apply shipped record %d: %w", rec.LSN, err)
			break
		}
		next++
	}
	w.mu.Lock()
	w.nextLSN = next
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}

// InstallSnapshot replaces a follower's state wholesale with a
// bootstrap snapshot at lsn (SnapshotAt on the primary): the snapshot
// becomes the checkpoint, every earlier segment and checkpoint is
// dropped, and the log restarts at lsn+1. DB is a new database
// afterwards.
func (d *Durable) InstallSnapshot(data []byte, lsn uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.wal
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return ErrClosed
	}
	db := store.NewDB()
	if err := db.Restore(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	// Persist the new checkpoint first, then drop the superseded
	// history: a crash in between leaves both and recovery restores the
	// newest checkpoint, which is the one just written.
	if err := writeCheckpointFile(d.dir, data, lsn); err != nil {
		return err
	}
	if err := w.restartAt(lsn + 1); err != nil {
		return err
	}
	cps, err := listCheckpoints(d.dir)
	if err != nil {
		return err
	}
	for _, cp := range cps {
		if cp.first != lsn {
			_ = os.Remove(cp.path)
		}
	}
	if err := syncDir(d.dir); err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	d.DB.SetLogger(nil)
	db.SetLogger(d)
	d.DB = db
	return nil
}
