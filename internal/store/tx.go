package store

import (
	"fmt"
	"sort"
	"sync"
)

// Tx is a device-local multi-table transaction. The SyD linking module
// uses it to make "update my calendar + update my link table" atomic on
// one device; cross-device atomicity is the job of negotiation links,
// not of this type.
//
// A Tx buffers its mutations: nothing touches the database until
// Commit. Each op validates at call time against the table state
// combined with the tx's own buffered ops (read-your-writes), so an
// insert-then-update of the same row inside one tx works and a
// duplicate insert fails immediately. Commit locks every involved
// table (in sorted name order), re-validates the buffer against the
// then-current state, applies every op, and hands the buffer to the
// DB's MutationLogger as ONE atomic unit while still holding the
// locks — the unit's log position therefore matches its apply position
// for every row it touched, and a checkpoint snapshot can never
// observe a half-applied transaction that is not also fully in the
// log. If a concurrent mutation invalidated the buffer (a row the tx
// updates was deleted, a key it inserts was taken), Commit applies
// NOTHING and returns the conflict. Rollback simply discards the
// buffer, so a rolled-back tx leaves no trace in memory or in the log.
//
// Before triggers fire at op-record time (and may veto the op); After
// triggers fire once Commit has applied the unit.
type Tx struct {
	db   *DB
	mu   sync.Mutex
	done bool
	ops  []LoggedOp
	// overlay is the read-your-writes view: per table, encoded key →
	// pending row (nil = deleted by this tx, absent = untouched).
	overlay map[string]map[rowKey]Row
	tables  map[string]*Table
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{
		db:      db,
		overlay: make(map[string]map[rowKey]Row),
		tables:  make(map[string]*Table),
	}
}

// effective returns the row at key k as this tx sees it: the buffered
// state when the tx already touched it, the committed row otherwise.
func (tx *Tx) effective(t *Table, k rowKey) (Row, bool) {
	if ov, ok := tx.overlay[t.schema.Name]; ok {
		if r, touched := ov[k]; touched {
			if r == nil {
				return nil, false
			}
			return r.Clone(), true
		}
	}
	t.mu.RLock()
	r, ok := t.rows[k]
	t.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// record buffers one validated op and its overlay effect.
func (tx *Tx) record(t *Table, k rowKey, pending Row, op LoggedOp) {
	name := t.schema.Name
	ov := tx.overlay[name]
	if ov == nil {
		ov = make(map[rowKey]Row)
		tx.overlay[name] = ov
	}
	ov[k] = pending
	tx.tables[name] = t
	tx.ops = append(tx.ops, op)
}

// Insert buffers an insert of r into the named table.
func (tx *Tx) Insert(table string, r Row) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	if err := t.checkTypes(r, true); err != nil {
		return err
	}
	row := r.Clone()
	k, err := t.keyOf(row)
	if err != nil {
		return err
	}
	if _, exists := tx.effective(t, k); exists {
		return fmt.Errorf("%w: %s[%s]", ErrDupKey, t.schema.Name, k)
	}
	if err := t.fire(Before, OpInsert, nil, row.Clone()); err != nil {
		return err
	}
	tx.record(t, k, row, LoggedOp{Table: table, Op: OpInsert, Row: row.Clone()})
	return nil
}

// Update buffers an update of the row identified by keyVals.
func (tx *Tx) Update(table string, changes Row, keyVals ...any) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	if err := t.checkTypes(changes, false); err != nil {
		return err
	}
	for _, kc := range t.schema.Key {
		if _, ok := changes[kc]; ok {
			return fmt.Errorf("%w: %q", ErrKeyImmutable, kc)
		}
	}
	k, err := t.keyFromVals(keyVals)
	if err != nil {
		return err
	}
	old, ok := tx.effective(t, k)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRow, table)
	}
	next := old.Clone()
	for c, v := range changes {
		next[c] = v
	}
	if err := t.fire(Before, OpUpdate, old, next.Clone()); err != nil {
		return err
	}
	tx.record(t, k, next, LoggedOp{Table: table, Op: OpUpdate, Row: changes.Clone(), Key: append([]any(nil), keyVals...)})
	return nil
}

// Delete buffers a delete of the row identified by keyVals.
func (tx *Tx) Delete(table string, keyVals ...any) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	k, err := t.keyFromVals(keyVals)
	if err != nil {
		return err
	}
	old, ok := tx.effective(t, k)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRow, table)
	}
	if err := t.fire(Before, OpDelete, old, nil); err != nil {
		return err
	}
	tx.record(t, k, nil, LoggedOp{Table: table, Op: OpDelete, Key: append([]any(nil), keyVals...)})
	return nil
}

// firedOp remembers what a committed op did, for After triggers.
type firedOp struct {
	t        *Table
	op       Op
	old, new Row
}

// Commit applies the buffered ops atomically and hands them to the
// DB's mutation logger as one unit, all under the locks of every
// involved table. On a conflict with a concurrent mutation nothing is
// applied and the conflict is returned. A logging (durability) error
// is returned but the in-memory changes stand — the caller decides
// whether lost durability is fatal.
func (tx *Tx) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	ops := tx.ops
	tx.ops, tx.overlay = nil, nil
	if len(ops) == 0 {
		return nil
	}

	// Fixed lock order (sorted table names) so concurrent commits
	// cannot deadlock.
	names := make([]string, 0, len(tx.tables))
	for n := range tx.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tx.tables[n].mu.Lock()
	}
	unlock := func() {
		for i := len(names) - 1; i >= 0; i-- {
			tx.tables[names[i]].mu.Unlock()
		}
	}

	if err := validateOpsLocked(tx.tables, ops); err != nil {
		unlock()
		return fmt.Errorf("store: commit conflict: %w", err)
	}
	fired := make([]firedOp, 0, len(ops))
	for _, op := range ops {
		t := tx.tables[op.Table]
		old, new := t.applyOpLocked(op)
		fired = append(fired, firedOp{t: t, op: op.Op, old: old, new: new})
	}
	// Enqueue the unit while the table locks are still held: the log
	// order of these rows is now exactly their apply order relative to
	// any concurrent direct mutation.
	var ack Ack
	if l := tx.db.currentLogger(); l != nil {
		ack = l.LogTx(ops)
	}
	unlock()

	var err error
	if ack != nil {
		err = ack()
	}
	for _, f := range fired {
		if ferr := f.t.fire(After, f.op, f.old, f.new); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// validateOpsLocked replays the buffer against the current (locked)
// table state without mutating anything, so Commit is all-or-nothing
// even when concurrent mutations ran between op record time and
// Commit. Caller holds every involved table's write lock.
func validateOpsLocked(tables map[string]*Table, ops []LoggedOp) error {
	view := make(map[string]map[rowKey]Row)
	for _, op := range ops {
		t := tables[op.Table]
		ov := view[op.Table]
		if ov == nil {
			ov = make(map[rowKey]Row)
			view[op.Table] = ov
		}
		var k rowKey
		var err error
		if op.Op == OpInsert {
			k, err = t.keyOf(op.Row)
		} else {
			k, err = t.keyFromVals(op.Key)
		}
		if err != nil {
			return err
		}
		cur, touched := ov[k]
		if !touched {
			cur = t.rows[k]
		}
		switch op.Op {
		case OpInsert:
			if cur != nil {
				return fmt.Errorf("%w: %s[%s]", ErrDupKey, op.Table, k)
			}
			ov[k] = op.Row
		case OpUpdate:
			if cur == nil {
				return fmt.Errorf("%w: %s[%s]", ErrNoRow, op.Table, k)
			}
			next := cur.Clone()
			for c, v := range op.Row {
				next[c] = v
			}
			ov[k] = next
		case OpDelete:
			if cur == nil {
				return fmt.Errorf("%w: %s[%s]", ErrNoRow, op.Table, k)
			}
			ov[k] = nil
		}
	}
	return nil
}

// Rollback discards the buffered mutations. Nothing was applied and
// nothing is logged.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.ops, tx.overlay = nil, nil
	return nil
}

// keyValsOf extracts the primary key values of r in schema order.
func (t *Table) keyValsOf(r Row) ([]any, error) {
	out := make([]any, len(t.schema.Key))
	for i, kc := range t.schema.Key {
		v, ok := r[kc]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingKey, kc)
		}
		out[i] = v
	}
	return out, nil
}
