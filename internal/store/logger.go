package store

// Mutation logging: the hook the durability subsystem (internal/wal)
// attaches to. Every committed mutation — DDL and row changes — flows
// through the DB's MutationLogger exactly once, in application order,
// so a write-ahead log can make the in-memory store crash-safe without
// the store importing any I/O code.
//
// Framing rules:
//   - A Tx, the only row write, buffers its ops and logs them as a
//     single atomic unit at Commit, applied and enqueued while every
//     involved table's lock is held; a Tx never committed applies and
//     logs nothing.
//   - DDL (CreateTable, CreateIndex) is logged as it commits.
//   - Replay via ApplyLogged/ApplyDDL*, and Restore, bypass the logger,
//     so recovery never re-logs.
//
// Logging is two-phase so a write-ahead log can group-commit: the
// LogTx CALL runs while the mutated table's lock is still held, which
// fixes the log order of same-row mutations to their apply order; it
// must only assign a sequence number and enqueue (no I/O). The
// returned Ack is invoked after the lock is released and blocks until
// the unit is durable, letting many goroutines share one fsync.

// LoggedOp is one committed row mutation.
//
//   - OpInsert: Row is the inserted row; Key is the zero Row.
//   - OpUpdate: Row sets only the changed columns; Key is the row the
//     update replaces, as it was stored.
//   - OpDelete: Row is the zero Row; Key is the row the delete removes.
//
// Only Key's primary-key columns name the row: a log writes those alone
// (Row.AppendKeyJSON), and a replayed op's Key may set nothing else.
type LoggedOp struct {
	Table string
	Op    Op
	Row   Row
	Key   Row
}

// Ack blocks until the corresponding log unit is durable (per the
// log's sync policy) and reports the outcome. Call it exactly once; the
// logger may reuse it afterwards.
type Ack func() error

// MutationLogger receives committed mutations. Implementations must be
// safe for concurrent use and must not perform blocking I/O inside the
// Log* calls themselves (they run under table locks) — durability is
// awaited via the returned Ack. An Ack error is surfaced to the
// mutating caller (the in-memory change stands — the caller decides
// whether a durability failure is fatal).
type MutationLogger interface {
	// LogDDLTable records a committed CreateTable.
	LogDDLTable(s Schema) Ack
	// LogDDLIndex records a committed CreateIndex.
	LogDDLIndex(table, col string) Ack
	// LogTx records one atomic unit of row mutations: every op of a
	// committed Tx, in application order.
	LogTx(ops []LoggedOp) Ack
}

// loggerBox wraps the interface so atomic.Pointer has a concrete type.
type loggerBox struct{ l MutationLogger }

// SetLogger attaches (or, with nil, detaches) the mutation logger.
// Attach it after recovery has replayed the log and before application
// traffic starts; mutations in flight during the swap may or may not
// be logged.
func (db *DB) SetLogger(l MutationLogger) {
	if l == nil {
		db.logger.Store(nil)
		return
	}
	db.logger.Store(&loggerBox{l: l})
}

// currentLogger returns the attached logger, or nil.
func (db *DB) currentLogger() MutationLogger {
	if b := db.logger.Load(); b != nil {
		return b.l
	}
	return nil
}

// ApplyLogged applies one atomic unit of replayed mutations, bypassing
// the logger. It is the recovery-side twin of
// MutationLogger.LogTx.
func (db *DB) ApplyLogged(ops []LoggedOp) error {
	for _, op := range ops {
		t, err := db.Table(op.Table)
		if err != nil {
			return err
		}
		if err := t.replay(op); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDDLTable replays a CreateTable without re-logging it.
func (db *DB) ApplyDDLTable(s Schema) error {
	_, err := db.addTable(s)
	return err
}

// ApplyDDLIndex replays a CreateIndex without re-logging it.
func (db *DB) ApplyDDLIndex(table, col string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	_, err = t.addIndex(col)
	return err
}

// dropTables removes tables by name (Restore rollback). It is not part
// of the public DDL surface and is never logged.
func (db *DB) dropTables(names []string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, n := range names {
		delete(db.tables, n)
	}
}
