// Package store is the embedded device database used by every SyD
// device object.
//
// The paper's prototype stored each user's calendar and link tables in
// an Oracle database and used Oracle triggers + Java stored procedures
// for event-based updates (§5.3), while noting that a portable SyD
// should not depend on a specific database and should move triggers to
// the middleware. This package is that portable store: typed tables
// with primary keys, secondary indexes, predicate queries, local
// multi-table transactions, and row-level ECA (event-condition-action)
// triggers that the SyDLinks module attaches to.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ColType enumerates the column types the store supports.
type ColType int

// Column types.
const (
	String ColType = iota
	Int
	Bool
	Float
	Time
)

// String implements fmt.Stringer for diagnostics.
func (t ColType) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Bool:
		return "bool"
	case Float:
		return "float"
	case Time:
		return "time"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its columns and the primary-key columns.
type Schema struct {
	Name    string
	Columns []Column
	// Key lists the primary-key column names, in order.
	Key []string
}

// Row is a single record: column name → value. Values must match the
// declared column types (string, int64, bool, float64, time.Time).
type Row map[string]any

// rowKey is the encoded primary key used as the map key for rows.
type rowKey string

// Clone returns a copy of r safe to hand to callers.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Op enumerates row mutation operations for triggers.
type Op int

// Mutation operations.
const (
	OpInsert Op = iota
	OpUpdate
	OpDelete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Timing says whether a trigger runs before the mutation (and may veto
// it by returning an error) or after it commits to the table.
type Timing int

// Trigger timings.
const (
	Before Timing = iota
	After
)

// TriggerFunc is the action of an ECA trigger. old is nil for inserts,
// new is nil for deletes. A Before trigger returning an error aborts
// the mutation.
type TriggerFunc func(op Op, old, new Row) error

// Errors returned by the store.
var (
	ErrNoTable      = errors.New("store: no such table")
	ErrDupTable     = errors.New("store: table already exists")
	ErrDupKey       = errors.New("store: duplicate primary key")
	ErrNoRow        = errors.New("store: no such row")
	ErrBadColumn    = errors.New("store: unknown column")
	ErrBadType      = errors.New("store: value type does not match column type")
	ErrMissingKey   = errors.New("store: row missing primary-key column")
	ErrKeyImmutable = errors.New("store: primary-key columns cannot be updated")
	ErrNoIndex      = errors.New("store: no such index")
	ErrTxDone       = errors.New("store: transaction already finished")
)

// DB is a device-local database: a set of named tables sharing one
// big lock for multi-table transactions. Safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// logger, when set, receives every committed mutation (see
	// logger.go). Held in an atomic pointer so the hot mutation path
	// never takes db.mu just to check for it.
	logger atomic.Pointer[loggerBox]
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable adds a table with the given schema.
func (db *DB) CreateTable(s Schema) (*Table, error) {
	t, err := db.addTable(s)
	if err != nil {
		return nil, err
	}
	if l := db.currentLogger(); l != nil {
		if err := l.LogDDLTable(s)(); err != nil {
			return t, fmt.Errorf("store: log create table %s: %w", s.Name, err)
		}
	}
	return t, nil
}

// addTable is CreateTable without the log record (replay adds the
// tables the log names).
func (db *DB) addTable(s Schema) (*Table, error) {
	if err := validateSchema(s); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[s.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDupTable, s.Name)
	}
	t := newTable(db, s)
	db.tables[s.Name] = t
	return t, nil
}

// EnsureTable returns the table named s.Name, creating (and logging)
// it when the database does not have it yet. It is how every module
// attaches to a database that may have been recovered from a
// write-ahead log: a recovered table is reused as it stands, with its
// rows and indexes, and no DDL is logged a second time.
func (db *DB) EnsureTable(s Schema) (*Table, error) {
	db.mu.RLock()
	t, ok := db.tables[s.Name]
	db.mu.RUnlock()
	if ok {
		return t, nil
	}
	return db.CreateTable(s)
}

// MustCreateTable is CreateTable panicking on error; for package init
// of fixed schemas.
func (db *DB) MustCreateTable(s Schema) *Table {
	t, err := db.CreateTable(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func validateSchema(s Schema) error {
	if s.Name == "" {
		return errors.New("store: schema needs a name")
	}
	if len(s.Columns) == 0 {
		return errors.New("store: schema needs at least one column")
	}
	cols := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return errors.New("store: empty column name")
		}
		if cols[c.Name] {
			return fmt.Errorf("store: duplicate column %q", c.Name)
		}
		cols[c.Name] = true
	}
	if len(s.Key) == 0 {
		return errors.New("store: schema needs a primary key")
	}
	for _, k := range s.Key {
		if !cols[k] {
			return fmt.Errorf("%w: key column %q", ErrBadColumn, k)
		}
	}
	return nil
}

// Table is a single typed table with primary key, secondary indexes,
// and triggers. All methods are safe for concurrent use.
type Table struct {
	db     *DB
	schema Schema
	cols   map[string]ColType

	mu       sync.RWMutex
	rows     map[rowKey]Row
	indexes  map[string]map[any]map[rowKey]struct{}
	triggers map[Timing][]trigger
}

type trigger struct {
	id string
	op Op
	fn TriggerFunc
}

func newTable(db *DB, s Schema) *Table {
	cols := make(map[string]ColType, len(s.Columns))
	for _, c := range s.Columns {
		cols[c.Name] = c.Type
	}
	return &Table{
		db:       db,
		schema:   s,
		cols:     cols,
		rows:     make(map[rowKey]Row),
		indexes:  make(map[string]map[any]map[rowKey]struct{}),
		triggers: make(map[Timing][]trigger),
	}
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// keyOf builds the encoded primary key for a row.
func (t *Table) keyOf(r Row) (rowKey, error) {
	if len(t.schema.Key) == 1 {
		// Single string keys (the common shape: users by id, services
		// by name) encode as themselves: no buffer, no copy.
		if s, ok := r[t.schema.Key[0]].(string); ok {
			return rowKey(s), nil
		}
	}
	var buf [64]byte
	b := buf[:0]
	for i, k := range t.schema.Key {
		v, ok := r[k]
		if !ok {
			return "", fmt.Errorf("%w: %q", ErrMissingKey, k)
		}
		if b, ok = appendKeyVal(b, i, v); !ok {
			return "", fmt.Errorf("%w: key column %s.%s, got %T", ErrBadType, t.schema.Name, k, v)
		}
	}
	return rowKey(b), nil
}

// appendKeyVal appends the encoding of the i-th key value to b, and
// reports false for a value of no column type: no stored key holds one.
// keyOf and appendKey both encode through it, so stored keys and probe
// keys always agree. It formats without fmt, which would move every
// probe's key values to the heap.
func appendKeyVal(b []byte, i int, v any) ([]byte, bool) {
	if i > 0 {
		b = append(b, 0x1f)
	}
	switch x := v.(type) {
	case string:
		return append(b, x...), true
	case int64:
		return strconv.AppendInt(b, x, 10), true
	case bool:
		return strconv.AppendBool(b, x), true
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64), true
	case time.Time:
		return x.UTC().AppendFormat(b, time.RFC3339Nano), true
	}
	return b, false
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

// KeyOf exposes the encoded key for diagnostics and tests.
func (t *Table) KeyOf(r Row) (string, error) {
	k, err := t.keyOf(r)
	return string(k), err
}

// appendKey appends to b the encoded primary key for key values given in
// schema key order. keyVals does not escape, so a point read that builds
// its key in a stack buffer allocates nothing.
func (t *Table) appendKey(b []byte, keyVals []any) ([]byte, error) {
	if len(keyVals) < len(t.schema.Key) {
		return b, fmt.Errorf("%w: need %d key values", ErrMissingKey, len(t.schema.Key))
	}
	for i := range t.schema.Key {
		var ok bool
		if b, ok = appendKeyVal(b, i, keyVals[i]); !ok {
			return b, fmt.Errorf("%w: key column %s.%s", ErrBadType, t.schema.Name, t.schema.Key[i])
		}
	}
	return b, nil
}

// soleStringKey returns the probe value of a single-column string key,
// which encodes as itself (the same fast path as keyOf).
func (t *Table) soleStringKey(keyVals []any) (string, bool) {
	if len(t.schema.Key) != 1 || len(keyVals) != 1 {
		return "", false
	}
	s, ok := keyVals[0].(string)
	return s, ok
}

// keyFromVals is appendKey for a caller that keeps the key.
func (t *Table) keyFromVals(keyVals []any) (rowKey, error) {
	if s, ok := t.soleStringKey(keyVals); ok {
		return rowKey(s), nil
	}
	var buf [64]byte
	b, err := t.appendKey(buf[:0], keyVals)
	return rowKey(b), err
}

// lookup returns the stored row for keyVals. The key is built on the
// stack and the row map indexed with it directly, so a point read
// allocates nothing; the caller holds t.mu.
func (t *Table) lookup(keyVals []any) (Row, bool) {
	if s, ok := t.soleStringKey(keyVals); ok {
		r, ok := t.rows[rowKey(s)]
		return r, ok
	}
	var buf [64]byte
	k, err := t.appendKey(buf[:0], keyVals)
	if err != nil {
		return nil, false
	}
	r, ok := t.rows[rowKey(k)]
	return r, ok
}

func (t *Table) checkTypes(r Row, requireKey bool) error {
	for name, v := range r {
		ct, ok := t.cols[name]
		if !ok {
			return fmt.Errorf("%w: %q in table %s", ErrBadColumn, name, t.schema.Name)
		}
		if !typeMatches(ct, v) {
			return fmt.Errorf("%w: column %s.%s wants %s, got %T",
				ErrBadType, t.schema.Name, name, ct, v)
		}
	}
	if requireKey {
		for _, k := range t.schema.Key {
			if _, ok := r[k]; !ok {
				return fmt.Errorf("%w: %q", ErrMissingKey, k)
			}
		}
	}
	return nil
}

// checkChanges is checkTypes for an update's changed columns, which
// may not include a primary-key column.
func (t *Table) checkChanges(changes Row) error {
	if err := t.checkTypes(changes, false); err != nil {
		return err
	}
	for _, kc := range t.schema.Key {
		if _, ok := changes[kc]; ok {
			return fmt.Errorf("%w: %q", ErrKeyImmutable, kc)
		}
	}
	return nil
}

func typeMatches(ct ColType, v any) bool {
	switch ct {
	case String:
		_, ok := v.(string)
		return ok
	case Int:
		_, ok := v.(int64)
		return ok
	case Bool:
		_, ok := v.(bool)
		return ok
	case Float:
		_, ok := v.(float64)
		return ok
	case Time:
		_, ok := v.(time.Time)
		return ok
	}
	return false
}

// OnTrigger registers an ECA trigger for op at the given timing,
// returning a registration id usable with DropTrigger.
func (t *Table) OnTrigger(timing Timing, op Op, id string, fn TriggerFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.triggers[timing] = append(t.triggers[timing], trigger{id: id, op: op, fn: fn})
}

// DropTrigger removes all triggers registered under id.
func (t *Table) DropTrigger(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for timing, list := range t.triggers {
		keep := list[:0]
		for _, tr := range list {
			if tr.id != id {
				keep = append(keep, tr)
			}
		}
		t.triggers[timing] = keep
	}
}

// fire runs the triggers for (timing, op); the table lock must NOT be
// held by the caller for After triggers that re-enter the table, so
// fire is always called outside t.mu.
func (t *Table) fire(timing Timing, op Op, old, new Row) error {
	t.mu.RLock()
	if len(t.triggers[timing]) == 0 {
		t.mu.RUnlock()
		return nil
	}
	list := make([]trigger, len(t.triggers[timing]))
	copy(list, t.triggers[timing])
	t.mu.RUnlock()
	for _, tr := range list {
		if tr.op != op {
			continue
		}
		if err := tr.fn(op, old, new); err != nil {
			if timing == Before {
				return err
			}
			// After triggers cannot veto; their errors are
			// surfaced to the caller but the row change stands.
			return fmt.Errorf("store: after-trigger %s: %w", tr.id, err)
		}
	}
	return nil
}

// hasTrigger reports whether any trigger matches (timing, op), letting
// a unit skip the defensive row clones it would otherwise build just to
// hand to fire. A trigger registered concurrently with a mutation may
// miss that mutation either way — the check only moves the race a few
// instructions earlier.
func (t *Table) hasTrigger(timing Timing, op Op) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hasTriggerLocked(timing, op)
}

// hasTriggerLocked is hasTrigger for a caller that holds t.mu.
func (t *Table) hasTriggerLocked(timing Timing, op Op) bool {
	for _, tr := range t.triggers[timing] {
		if tr.op == op {
			return true
		}
	}
	return false
}

// CreateIndex builds a secondary index on column col.
func (t *Table) CreateIndex(col string) error {
	built, err := t.addIndex(col)
	if err != nil || !built {
		return err // idempotent: an index that exists is not logged again
	}
	if l := t.db.currentLogger(); l != nil {
		if err := l.LogDDLIndex(t.schema.Name, col)(); err != nil {
			return fmt.Errorf("store: log create index %s.%s: %w", t.schema.Name, col, err)
		}
	}
	return nil
}

// addIndex is CreateIndex without the log record; it reports whether
// the index was built now rather than found.
func (t *Table) addIndex(col string) (bool, error) {
	if _, ok := t.cols[col]; !ok {
		return false, fmt.Errorf("%w: %q", ErrBadColumn, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return false, nil
	}
	idx := make(map[any]map[rowKey]struct{})
	for k, r := range t.rows {
		v := r[col]
		if idx[v] == nil {
			idx[v] = make(map[rowKey]struct{})
		}
		idx[v][k] = struct{}{}
	}
	t.indexes[col] = idx
	return true, nil
}

func (t *Table) indexAdd(k rowKey, r Row) {
	for col, idx := range t.indexes {
		v := r[col]
		if idx[v] == nil {
			idx[v] = make(map[rowKey]struct{})
		}
		idx[v][k] = struct{}{}
	}
}

func (t *Table) indexRemove(k rowKey, r Row) {
	for col, idx := range t.indexes {
		v := r[col]
		if set, ok := idx[v]; ok {
			delete(set, k)
			if len(set) == 0 {
				delete(idx, v)
			}
		}
	}
}

// Insert adds a new row. Like Update and Delete it is a commit unit of
// that one op: Tx says what a unit checks, fires and logs. The caller
// keeps r: the unit stores a copy.
func (t *Table) Insert(r Row) error {
	return t.db.Unit(context.TODO(), func(u *Tx) error { return u.Insert(t.schema.Name, r.Clone()) })
}

// Get fetches the row whose primary-key columns equal keyVals (in
// schema key order).
func (t *Table) Get(keyVals ...any) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.lookup(keyVals)
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// View calls fn with the stored row for keyVals while holding the
// table's read lock, returning false when no row matches. fn sees the
// live row, not a clone — it must not mutate it or retain a reference
// past the call. Read-heavy infrastructure (directory lookups on the
// invocation hot path, the calendar's free-slot scan) uses View to skip
// Get's defensive copy.
func (t *Table) View(fn func(Row), keyVals ...any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.lookup(keyVals)
	if ok {
		fn(r)
	}
	return ok
}

// Has reports whether a row exists for keyVals, without cloning it the
// way Get would.
func (t *Table) Has(keyVals ...any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.lookup(keyVals)
	return ok
}

// Update applies changes to the row identified by keyVals. Primary-key
// columns cannot change.
func (t *Table) Update(changes Row, keyVals ...any) error {
	return t.db.Unit(context.TODO(), func(u *Tx) error {
		return u.Update(t.schema.Name, changes.Clone(), keyVals...) // the unit keeps what it is given
	})
}

// Delete removes the row identified by keyVals.
func (t *Table) Delete(keyVals ...any) error {
	return t.db.Unit(context.TODO(), func(u *Tx) error { return u.Delete(t.schema.Name, keyVals...) })
}

// Select returns clones of all rows matching pred (nil pred = all),
// in primary-key order. The deterministic order matters: sweeps and
// cascade deletes iterate Select results, and simulation runs must
// replay identically for a given seed.
func (t *Table) Select(pred func(Row) bool) []Row {
	t.mu.RLock()
	keys := make([]rowKey, 0, len(t.rows))
	for k, r := range t.rows {
		if pred == nil || pred(r) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Row, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.rows[k].Clone())
	}
	t.mu.RUnlock()
	return out
}

// SelectEq returns all rows with row[col] == v in primary-key order,
// using a secondary index when one exists and a scan otherwise.
func (t *Table) SelectEq(col string, v any) []Row {
	t.mu.RLock()
	if idx, ok := t.indexes[col]; ok {
		keys := make([]rowKey, 0, len(idx[v]))
		for k := range idx[v] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out := make([]Row, 0, len(keys))
		for _, k := range keys {
			out = append(out, t.rows[k].Clone())
		}
		t.mu.RUnlock()
		return out
	}
	t.mu.RUnlock()
	return t.Select(func(r Row) bool { return r[col] == v })
}

// ViewEq calls fn with every stored row with row[col] == v, in no
// particular order, while holding the table's read lock: SelectEq with
// View's rule and no copies. fn must not modify a row, keep it past the
// call, or write to the table.
func (t *Table) ViewEq(col string, v any, fn func(Row)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if idx, ok := t.indexes[col]; ok {
		for k := range idx[v] {
			fn(t.rows[k])
		}
		return
	}
	for _, r := range t.rows {
		if r[col] == v {
			fn(r)
		}
	}
}

// applyOpLocked applies one already-validated op, whose encoded key is
// k, directly to the table's maps; the caller holds t.mu (Tx.Commit
// applies its whole buffer under the locks of every involved table). An
// inserted row is stored as it stands: Tx.Insert took ownership of it.
// Returns the stored old and new row for After triggers.
func (t *Table) applyOpLocked(op LoggedOp, k rowKey) (old, new Row) {
	cur := t.rows[k]
	switch op.Op {
	case OpInsert:
		t.rows[k] = op.Row
		t.indexAdd(k, op.Row)
		return nil, op.Row
	case OpUpdate:
		t.indexRemove(k, cur)
		stored := merged(cur, op.Row)
		t.rows[k] = stored
		t.indexAdd(k, stored)
		return cur, stored
	case OpDelete:
		delete(t.rows, k)
		t.indexRemove(k, cur)
		return cur, nil
	}
	return nil, nil
}

// checkExists is the rule every apply honours: an insert needs its key
// free, an update or delete needs its row.
func checkExists(op LoggedOp, k rowKey, exists bool) error {
	switch {
	case op.Op == OpInsert && exists:
		return fmt.Errorf("%w: %s[%s]", ErrDupKey, op.Table, k)
	case op.Op != OpInsert && !exists:
		return fmt.Errorf("%w: %s[%s]", ErrNoRow, op.Table, k)
	}
	return nil
}

// replay applies one logged op: a unit's checks and a unit's apply,
// with no trigger fired and nothing logged.
func (t *Table) replay(op LoggedOp) error {
	var k rowKey
	var err error
	switch op.Op {
	case OpInsert:
		if err = t.checkTypes(op.Row, true); err == nil {
			op.Row = op.Row.Clone()
			k, err = t.keyOf(op.Row)
		}
	case OpUpdate:
		if err = t.checkChanges(op.Row); err == nil {
			k, err = t.keyFromVals(op.Key)
		}
	case OpDelete:
		k, err = t.keyFromVals(op.Key)
	default:
		err = fmt.Errorf("store: apply: unknown op %v", op.Op)
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, exists := t.rows[k]
	if err := checkExists(op, k, exists); err != nil {
		return err
	}
	t.applyOpLocked(op, k)
	return nil
}

// Count reports the number of rows.
func (t *Table) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}
