package replication

import "repro/internal/wal"

// Durable exposes the follower's data directory (read-only: it takes
// shipped batches alone; tests inspect the replicated database
// through it).
func (f *Follower) Durable() *wal.Durable { return f.d }
