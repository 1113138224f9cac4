package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Durable is a store.DB with a write-ahead log under it: every
// committed mutation is appended (and fsynced per the sync policy)
// before the mutating call returns, and Open recovers the database
// from the newest valid checkpoint snapshot plus the log tail.
//
// Data directory layout:
//
//	<dir>/wal-<firstLSN:016x>.log        log segments
//	<dir>/checkpoint-<lsn:016x>.snap     checkpoint snapshots
//
// The two newest checkpoints are kept (the older is the fallback when
// the newest turns out corrupt), and log segments are trimmed only
// below the OLDER retained checkpoint — so whichever retained
// checkpoint recovery restores, the log still reaches from its LSN to
// the tail.
//
// A follower's data directory is a Durable too, one whose DB takes
// only shipped batches (AppendFrames, InstallSnapshot in ship.go).
type Durable struct {
	// DB is the live database. Use it exactly like a plain store.DB —
	// the log rides on the store's MutationLogger hook.
	DB *store.DB

	dir string
	wal *WAL

	// mu serializes checkpoints (timer vs shutdown), Close and, on a
	// follower, the shipped batches and snapshots a checkpoint must not
	// interleave with.
	mu sync.Mutex
}

// Open recovers (or initializes) the data directory and returns a
// durable database: restore the newest valid checkpoint, replay the
// log tail above it skipping incomplete trailing records, then attach
// the log so new mutations append.
func Open(dir string, opt Options) (*Durable, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: data directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	start := time.Now()
	db := store.NewDB()
	cpLSN, err := restoreNewestCheckpoint(dir, db)
	if err != nil {
		return nil, err
	}
	res, err := replay(dir, db, cpLSN)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(dir, opt, res.LastLSN+1)
	if err != nil {
		return nil, err
	}
	w.recov = Stats{
		ReplayedRecords:  uint64(res.Records),
		ReplayedTxs:      uint64(res.Txs),
		TornTail:         res.TornTail,
		SkippedTailBytes: uint64(res.SkippedBytes),
		RecoveryDuration: time.Since(start),
		CheckpointLSN:    cpLSN,
	}
	if opt.Metrics != nil {
		opt.Metrics.Observe(metrics.LayerWAL, walService, "recovery", okCode, w.recov.RecoveryDuration)
	}
	d := &Durable{DB: db, dir: dir, wal: w}
	db.SetLogger(d)
	return d, nil
}

// LogDDLTable implements store.MutationLogger.
func (d *Durable) LogDDLTable(s store.Schema) store.Ack {
	p := newPending()
	body, err := ddlBody(p.body, record{Kind: kindTable, Schema: schemaToDoc(s)})
	return d.wal.enqueue(p, body, err)
}

// LogDDLIndex implements store.MutationLogger.
func (d *Durable) LogDDLIndex(table, col string) store.Ack {
	p := newPending()
	body, err := ddlBody(p.body, record{Kind: kindIndex, Table: table, Col: col})
	return d.wal.enqueue(p, body, err)
}

// LogTx implements store.MutationLogger. The unit is encoded into the
// body buffer of a recycled pending, and the Ack is that pending's, so
// logging a unit allocates nothing once the pool is warm.
func (d *Durable) LogTx(ops []store.LoggedOp) store.Ack {
	p := newPending()
	body, err := txBody(p.body, ops)
	return d.wal.enqueue(p, body, err)
}

// checkpointName returns the snapshot file name for lsn.
func checkpointName(lsn uint64) string {
	return fmt.Sprintf("checkpoint-%016x.snap", lsn)
}

// parseCheckpointName extracts the LSN from a checkpoint file name.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".snap"), 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// listCheckpoints returns checkpoint files sorted newest-first.
func listCheckpoints(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var cps []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseCheckpointName(e.Name()); ok {
			cps = append(cps, segmentInfo{first: lsn, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].first > cps[j].first })
	return cps, nil
}

// writeCheckpointFile writes a checkpoint snapshot atomically (tmp +
// fsync + rename + dir sync).
func writeCheckpointFile(dir string, data []byte, cpLSN uint64) error {
	final := filepath.Join(dir, checkpointName(cpLSN))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("wal: checkpoint dir sync: %w", err)
	}
	return nil
}

// pruneCheckpoints keeps the checkpoint at cpLSN plus its newest
// predecessor (the corrupt-newest fallback), deletes older ones, and
// returns the oldest retained LSN — segments below keepLSN+1 are safe
// to trim.
func pruneCheckpoints(dir string, cpLSN uint64) (keepLSN uint64, err error) {
	cps, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	keepLSN = cpLSN
	for _, cp := range cps {
		switch {
		case cp.first >= cpLSN:
			// The checkpoint just written (or a stray newer name).
		case keepLSN == cpLSN:
			keepLSN = cp.first // newest predecessor: the fallback
		default:
			_ = os.Remove(cp.path)
		}
	}
	return keepLSN, nil
}

// restoreNewestCheckpoint loads the newest checkpoint that restores
// cleanly into db and returns its LSN (0 when none). A corrupt newer
// checkpoint is skipped — store.Restore rolls back its partial tables,
// so trying the next-older one starts from a clean DB.
func restoreNewestCheckpoint(dir string, db *store.DB) (uint64, error) {
	cps, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	for _, cp := range cps {
		data, err := os.ReadFile(cp.path)
		if err != nil {
			continue
		}
		if err := db.Restore(bytes.NewReader(data)); err != nil {
			continue // rolled back; try an older checkpoint
		}
		return cp.first, nil
	}
	return 0, nil
}

// CheckpointEvery is how often a serving process (sydnode and
// syddirectory alike) checkpoints its durable database: it bounds both
// the log a restart replays and the disk that heartbeat rows, logged
// like any other mutation, take up.
const CheckpointEvery = time.Minute

// Checkpoint writes a snapshot of the current database, fsyncs it into
// place, keeps the previous checkpoint as a fallback (deleting older
// ones), and trims log segments below the older retained checkpoint so
// a fallback restore still finds its log tail. Concurrent mutations
// are safe: every mutation visible in the snapshot is already enqueued
// in the log (Tx applies and enqueues under its table locks), and the
// snapshot may include effects of records above its LSN, which replay
// tolerates.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	cpLSN := d.wal.LastLSN()

	var buf bytes.Buffer
	if err := d.DB.Snapshot(&buf); err != nil {
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	if err := writeCheckpointFile(d.dir, buf.Bytes(), cpLSN); err != nil {
		return err
	}
	// The checkpoint is durable. Keep the previous checkpoint as the
	// fallback for a corrupt newest, drop anything older, and trim only
	// the log segments no retained checkpoint needs: the fallback must
	// still be able to replay from its own LSN up to the tail.
	keepLSN, err := pruneCheckpoints(d.dir, cpLSN)
	if err != nil {
		return err
	}
	if err := d.wal.trimBelow(keepLSN + 1); err != nil {
		return err
	}
	d.wal.stats.checkpoints.Add(1)
	if d.wal.opt.Metrics != nil {
		d.wal.opt.Metrics.Observe(metrics.LayerWAL, walService, "checkpoint", okCode, time.Since(start))
	}
	return nil
}

// Stats snapshots the log's counters.
func (d *Durable) Stats() Stats { return d.wal.Stats() }

// LastLSN reports the log's highest assigned LSN — trace events use it
// to tie a negotiation's journal writes to the durability stream.
func (d *Durable) LastLSN() uint64 { return d.wal.LastLSN() }

// Close closes the log; the DB stays readable. It takes no checkpoint:
// a process that wants its next Open to replay nothing calls
// Checkpoint first (core.Node.Close and syddirectory's shutdown do).
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.DB.SetLogger(nil)
	return d.wal.Close()
}
