package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/trace"
)

// Tx is a device-local multi-table commit unit, and the only way to
// write a table. internal/links and internal/calendar write every
// protocol step through one — the paper's device ran such a step as one
// stored procedure (§5.3) — so "update my calendar + update my link
// table + remember the decision" is atomic on one device and one record
// in its log; the directory writes each registration, lease, group and
// repoint as one. Cross-device atomicity is the job of negotiation
// links, not of this type.
//
// A Tx buffers its mutations: nothing touches the database until
// Commit. Each op validates at call time against the table state
// combined with the tx's own buffered ops (read-your-writes, also
// offered to the caller as Has/View/ViewEq), so an insert-then-update of
// the same row inside one tx works and a duplicate insert fails
// immediately. Commit locks every involved table (in sorted name
// order), re-validates the buffer against the then-current state,
// applies every op, and hands the buffer to the DB's MutationLogger as
// ONE atomic unit while still holding the locks — the unit's log
// position therefore matches its apply position for every row it
// touched, and a checkpoint snapshot can never observe a half-applied
// transaction that is not also fully in the log. If a concurrent
// mutation invalidated the buffer (a row the tx updates was deleted, a
// key it inserts was taken), Commit applies NOTHING and returns the
// conflict (ErrConflict). A tx that is never committed leaves no trace
// in memory or in the log.
//
// What a step decides to send to other devices is queued with
// AfterCommit and runs, in order, only once the unit is applied and
// logged: nothing is announced that is not on the log.
//
// The buffer is two small slices scanned linearly — a step writes a
// handful of rows, and a map per table costs more than it saves there.
// Unit recycles its Tx, buffers and all, so a unit allocates only the
// rows and keys it keeps.
type Tx struct {
	db   *DB
	mu   sync.Mutex
	done bool
	// ops is what Commit logs; at[i] is ops[i]'s table and encoded key.
	ops   []LoggedOp
	at    []txAt
	after []func(context.Context)
	// probe builds a delete's key, and keys holds the composite ones
	// the unit keeps in at until reuse.
	probe [64]byte
	keys  []byte
}

type txAt struct {
	t *Table
	k rowKey
}

// ErrConflict marks a Commit refused because a concurrent mutation
// invalidated the buffer; the error also wraps the ErrNoRow or
// ErrDupKey that says how.
var ErrConflict = errors.New("store: commit conflict")

// unitAttempts bounds how often Unit re-runs a step whose commit
// conflicted.
const unitAttempts = 3

// txPool holds the emptied Txs of finished units.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// Unit runs step as one commit unit: its writes are buffered, applied
// and logged as one record, then its AfterCommit sends run. A step that
// returns an error leaves no trace. A commit-time conflict re-runs the
// step against the state that beat it, so step must keep its side
// effects in the unit (writes and AfterCommit) until Unit returns.
// Unit recycles u once it returns: step must not keep u, nor hand it to
// anything that outlives the call (an AfterCommit function included).
func (db *DB) Unit(ctx context.Context, step func(u *Tx) error) error {
	u := txPool.Get().(*Tx)
	defer func() {
		u.reuse(nil)
		txPool.Put(u)
	}()
	return u.unit(ctx, db, step)
}

// unit is Unit on tx, which each run of step starts from empty.
func (tx *Tx) unit(ctx context.Context, db *DB, step func(u *Tx) error) error {
	for attempt := 1; ; attempt++ {
		tx.reuse(db)
		if err := step(tx); err != nil {
			return err
		}
		err := tx.Commit(ctx)
		if attempt == unitAttempts || !errors.Is(err, ErrConflict) {
			return err
		}
	}
}

// reuse empties tx and readies it for db's next unit (nil: for the
// pool). The buffers keep their storage but no row, key or function.
func (tx *Tx) reuse(db *DB) {
	clear(tx.ops)
	clear(tx.at)
	clear(tx.after)
	tx.db, tx.done = db, false
	tx.ops, tx.at, tx.after, tx.keys = tx.ops[:0], tx.at[:0], tx.after[:0], tx.keys[:0]
}

// keep returns k, a key built in tx.probe, as a copy in tx.keys, which
// stays valid until reuse: a unit's keys are only compared and looked
// up, and nothing holds one once the unit has returned. Any other key is
// returned as it is.
func (tx *Tx) keep(k rowKey) rowKey {
	if len(k) == 0 || unsafe.StringData(string(k)) != &tx.probe[0] {
		return k
	}
	from := len(tx.keys)
	tx.keys = append(tx.keys, k...)
	return rowKey(unsafe.String(&tx.keys[from], len(k)))
}

// last returns the index of the newest of the first n buffered ops that
// touches (t, k), or -1.
func (tx *Tx) last(t *Table, k rowKey, n int) int {
	for i := n - 1; i >= 0; i-- {
		if tx.at[i].t == t && tx.at[i].k == k {
			return i
		}
	}
	return -1
}

// exists reports whether the tx sees a row at (t, k).
func (tx *Tx) exists(t *Table, k rowKey) bool {
	if i := tx.last(t, k, len(tx.ops)); i >= 0 {
		return tx.ops[i].Op != OpDelete
	}
	t.mu.RLock()
	_, ok := t.rows[k]
	t.mu.RUnlock()
	return ok
}

// effective returns the row at (t, k) as the first n buffered ops leave
// it: the buffered state when the tx touched it, the committed row
// otherwise. The result may be the stored or the buffered row itself;
// stored rows are replaced, never changed, so reading one after the
// lock is released is safe, but the caller must not modify it.
func (tx *Tx) effective(t *Table, k rowKey, n int) (Row, bool) {
	i := tx.last(t, k, n)
	if i < 0 {
		t.mu.RLock()
		r, ok := t.rows[k]
		t.mu.RUnlock()
		return r, ok
	}
	switch op := tx.ops[i]; op.Op {
	case OpInsert:
		return op.Row, true
	case OpUpdate:
		base, _ := tx.effective(t, k, i)
		return merged(base, op.Row), true
	}
	return Row{}, false
}

// holds reports whether the row at (t, k), as the first n buffered ops
// leave it, sets the column at p to val, without building it.
func (tx *Tx) holds(t *Table, k rowKey, n, p int, val scalar) bool {
	switch i := tx.last(t, k, n); {
	case i < 0:
		t.mu.RLock()
		defer t.mu.RUnlock()
		return t.rows[k].holds(p, val)
	case tx.ops[i].Op == OpUpdate && tx.ops[i].Row.set&(1<<p) == 0:
		return tx.holds(t, k, i, p, val) // the column is the base row's
	default:
		return tx.ops[i].Row.holds(p, val) // a delete's is no row
	}
}

// locate resolves a read or keyed write: the table and the encoded key,
// a read's built in probe (see keyFromVals).
func (tx *Tx) locate(table string, keyVals []any, probe []byte) (*Table, rowKey, error) {
	if tx.done {
		return nil, "", ErrTxDone
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return nil, "", err
	}
	k, err := t.keyFromVals(keyVals, probe)
	return t, k, err
}

// View calls fn with the row for keyVals as the tx sees it — its own
// buffered writes included — and reports whether there is one. fn must
// not modify the row or keep it.
func (tx *Tx) View(table string, fn func(Row), keyVals ...any) bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	var buf [64]byte
	t, k, err := tx.locate(table, keyVals, buf[:])
	if err != nil {
		return false
	}
	r, ok := tx.effective(t, k, len(tx.ops))
	if ok {
		fn(r)
	}
	return ok
}

// Has reports whether the tx sees a row for keyVals.
func (tx *Tx) Has(table string, keyVals ...any) bool {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	var buf [64]byte
	t, k, err := tx.locate(table, keyVals, buf[:])
	return err == nil && tx.exists(t, k)
}

// ViewEq calls fn with every row with row[col] == v as the tx sees it,
// its own buffered writes included, in primary-key order: the committed
// rows the tx did not touch, and the ones it did as it leaves them. It is
// View's rule for an equality select, and copies no row. fn must not
// modify or keep a row, and must not call the tx, whose lock the visit
// holds.
func (tx *Tx) ViewEq(table, col string, v any, fn func(Row)) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	t, err := tx.db.Table(table)
	if err != nil || tx.done {
		return
	}
	p, val, ok := t.probe(col, v)
	if !ok {
		return
	}
	type keyed struct {
		k rowKey
		r Row
	}
	var buf [8]keyed
	rows, n := buf[:0], len(tx.ops)
	t.mu.RLock()
	t.eachEq(p, val, func(k rowKey, r Row) {
		if tx.last(t, k, n) < 0 {
			rows = append(rows, keyed{k, r})
		}
	})
	t.mu.RUnlock()
	for i, a := range tx.at {
		if a.t != t || tx.last(t, a.k, n) != i || !tx.holds(t, a.k, n, p, val) {
			continue // another table's op, not the newest on its key, or no match
		}
		r, _ := tx.effective(t, a.k, n)
		rows = append(rows, keyed{a.k, r})
	}
	slices.SortFunc(rows, func(a, b keyed) int { return cmp.Compare(a.k, b.k) })
	for _, kr := range rows {
		fn(kr.r)
	}
}

// record buffers one validated op.
func (tx *Tx) record(t *Table, k rowKey, op LoggedOp) {
	tx.ops = append(tx.ops, op)
	tx.at = append(tx.at, txAt{t: t, k: k})
}

// Insert buffers an insert of r into the named table. r belongs to the
// tx from here on, as Update's changes do: it is the row Commit stores
// and logs, so the caller hands over a row it built for the insert and
// neither modifies nor reuses it.
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
	r, k, err := t.insertable(r)
	if err != nil {
		return err
	}
	if tx.exists(t, k) {
		return fmt.Errorf("%w: %s[%s]", ErrDupKey, t.schema.Name, k)
	}
	tx.record(t, k, LoggedOp{Table: table, Op: OpInsert, Row: r})
	return nil
}

// Update buffers an update of the row identified by keyVals. changes
// belongs to the tx from here on: it is what Commit applies and logs.
func (tx *Tx) Update(table string, changes Row, keyVals ...any) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	t, k, err := tx.locate(table, keyVals, nil)
	if err != nil {
		return err
	}
	if changes, err = t.changes(changes); err != nil {
		return err
	}
	if !tx.exists(t, k) {
		return fmt.Errorf("%w: %s[%s]", ErrNoRow, table, k)
	}
	tx.record(t, k, LoggedOp{Table: table, Op: OpUpdate, Row: changes})
	return nil
}

// Delete buffers a delete of the row identified by keyVals.
func (tx *Tx) Delete(table string, keyVals ...any) error {
	return tx.delete(table, keyVals, true)
}

// Remove is Delete for a row that may not be there: it buffers the
// delete if the tx sees the row and does nothing otherwise.
func (tx *Tx) Remove(table string, keyVals ...any) error {
	return tx.delete(table, keyVals, false)
}

func (tx *Tx) delete(table string, keyVals []any, must bool) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	t, k, err := tx.locate(table, keyVals, tx.probe[:])
	if err != nil {
		return err
	}
	if !tx.exists(t, k) {
		if !must {
			return nil
		}
		return fmt.Errorf("%w: %s[%s]", ErrNoRow, table, k)
	}
	tx.record(t, tx.keep(k), LoggedOp{Table: table, Op: OpDelete})
	return nil
}

// AfterCommit queues fn to run once Commit has applied and logged the
// unit, after the fns queued before it; a unit that rolls back or
// conflicts runs none. It is where a step puts what it sends to other
// devices, so a unit never spans an outgoing call.
func (tx *Tx) AfterCommit(fn func(ctx context.Context)) {
	tx.mu.Lock()
	tx.after = append(tx.after, fn)
	tx.mu.Unlock()
}

// Commit applies the buffered ops atomically and hands them to the
// DB's mutation logger as one unit, all under the locks of every
// involved table, then runs the AfterCommit queue with ctx. On a
// conflict with a concurrent mutation nothing is applied or sent and
// the conflict is returned. A logging (durability) error is returned
// and nothing is sent, but the in-memory changes stand — the caller
// decides whether lost durability is fatal. A non-empty unit is a
// "store.commit" span under the span in ctx.
func (tx *Tx) Commit(ctx context.Context) error {
	after, err := tx.commit(ctx)
	for _, fn := range after {
		fn(ctx)
	}
	return err
}

func (tx *Tx) commit(ctx context.Context) ([]func(context.Context), error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, ErrTxDone
	}
	tx.done = true
	ops, at, after := tx.ops, tx.at, tx.after
	if len(ops) == 0 {
		return after, nil
	}
	_, span := trace.Start(ctx, "store.commit")

	// Fixed lock order (sorted table names) so concurrent commits
	// cannot deadlock.
	var tabBuf [4]*Table
	tabs := tabBuf[:0]
	for _, a := range at {
		i := 0
		for i < len(tabs) && tabs[i].schema.Name < a.t.schema.Name {
			i++
		}
		if i < len(tabs) && tabs[i] == a.t {
			continue
		}
		tabs = append(tabs, nil)
		copy(tabs[i+1:], tabs[i:])
		tabs[i] = a.t
	}
	for _, t := range tabs {
		t.mu.Lock()
	}
	unlock := func() {
		for i := len(tabs) - 1; i >= 0; i-- {
			tabs[i].mu.Unlock()
		}
	}

	if err := tx.validateLocked(); err != nil {
		unlock()
		err = fmt.Errorf("%w: %w", ErrConflict, err)
		span.FinishErr(err)
		return nil, err
	}
	for i := range ops {
		at[i].t.applyOpLocked(&ops[i], at[i].k)
	}
	// Enqueue the unit while the table locks are still held: the log
	// order of these rows is now exactly their apply order relative to
	// any concurrent direct mutation.
	var ack Ack
	l := tx.db.currentLogger()
	if l != nil {
		ack = l.LogTx(ops)
	}
	if span != nil {
		span.Annotate(trace.Int("ops", len(ops)), trace.Int("tables", len(tabs)))
		if p, ok := l.(interface{ LastLSN() uint64 }); ok {
			span.Annotate(trace.Int64("lsn", int64(p.LastLSN())))
		}
	}
	unlock()

	var err error
	if ack != nil {
		if err = ack(); err != nil {
			after = nil
		}
	}
	span.FinishErr(err)
	return after, err
}

// validateLocked replays the buffer against the current (locked) table
// state without mutating anything, so Commit is all-or-nothing even
// when concurrent mutations ran between op record time and Commit.
// Caller holds every involved table's write lock.
func (tx *Tx) validateLocked() error {
	for i, op := range tx.ops {
		t, k := tx.at[i].t, tx.at[i].k
		var exists bool
		if j := tx.last(t, k, i); j >= 0 {
			exists = tx.ops[j].Op != OpDelete
		} else {
			_, exists = t.rows[k]
		}
		if err := checkExists(op, k, exists); err != nil {
			return err
		}
	}
	return nil
}
