// Package store is the embedded device database used by every SyD
// device object.
//
// The paper's prototype stored each user's calendar and link tables in
// an Oracle database and used Oracle triggers + Java stored procedures
// for event-based updates (§5.3), while noting that a portable SyD
// should not depend on a specific database and should move triggers to
// the middleware. This package is that portable store: typed tables
// with primary keys, secondary indexes, predicate queries and local
// multi-table transactions. It has no triggers: reactions to a change
// are SyDLinks triggers (internal/links), the middleware's own.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
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
	Strings // a []string; no key or indexed column is one
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
	case Strings:
		return "strings"
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

// rowKey is the encoded primary key used as the map key for rows.
type rowKey string

// Op enumerates row mutation operations.
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

func validateSchema(s Schema) error {
	if s.Name == "" {
		return errors.New("store: schema needs a name")
	}
	if len(s.Columns) == 0 {
		return errors.New("store: schema needs at least one column")
	}
	if len(s.Columns) > maxColumns {
		return fmt.Errorf("store: %d columns, at most %d", len(s.Columns), maxColumns)
	}
	cols := make(map[string]ColType, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return errors.New("store: empty column name")
		}
		if _, dup := cols[c.Name]; dup {
			return fmt.Errorf("store: duplicate column %q", c.Name)
		}
		cols[c.Name] = c.Type
	}
	if len(s.Key) == 0 {
		return errors.New("store: schema needs a primary key")
	}
	for _, k := range s.Key {
		switch ct, ok := cols[k]; {
		case !ok:
			return fmt.Errorf("%w: key column %q", ErrBadColumn, k)
		case ct == Strings:
			return fmt.Errorf("%w: key column %q is a list", ErrBadType, k)
		}
	}
	return nil
}

// Table is a single typed table with primary key and secondary
// indexes. A Table is read through visits: View, ViewEq and ViewAll
// call fn with the stored rows under the table's read lock and copy
// nothing, so fn must not modify a row, keep it past the call or write
// to the database; what a write needs is collected in the visit and
// written after it. A visit's order is unspecified: a caller whose
// order reaches a log, a reply or a file sorts. Every write is a unit
// (DB.Unit). All methods are safe for concurrent use.
type Table struct {
	db     *DB
	schema Schema
	l      *layout // every stored row's

	mu      sync.RWMutex
	rows    map[rowKey]Row
	indexes []index
}

// index is a secondary index: the keys of the rows holding each value
// of one column. A row that leaves the column unset is in no entry.
type index struct {
	col int
	m   map[scalar]posting
}

// posting is the keys of the rows holding one value: the key itself
// while one row does, a set once two or more do, so a value one row
// holds (a link's owner, a slot's meeting) costs no map of its own.
type posting struct {
	one  rowKey
	more map[rowKey]struct{} // nil while one row holds the value
}

// each calls fn with every key in p, in no particular order.
func (p posting) each(fn func(rowKey)) {
	if p.more == nil {
		fn(p.one)
		return
	}
	for k := range p.more {
		fn(k)
	}
}

func newTable(db *DB, s Schema) *Table {
	return &Table{
		db:     db,
		schema: s,
		l:      newLayout(s.Name, s.Columns, s.Key),
		rows:   make(map[rowKey]Row),
	}
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// own checks that r is a row of the table, to store or apply, and
// returns the error a setter left in it. The zero Row sets no column.
func (t *Table) own(r Row) (Row, error) {
	switch {
	case r.err != nil:
		return Row{}, r.err
	case r.l == nil:
		return Row{l: t.l}, nil
	case r.l != t.l:
		return Row{}, fmt.Errorf("%w: a row of table %s given to table %s", ErrBadColumn, r.l.table, t.schema.Name)
	}
	return r, nil
}

// insertable is own for an inserted row, which must set every key
// column.
func (t *Table) insertable(r Row) (Row, rowKey, error) {
	r, err := t.own(r)
	if err != nil {
		return Row{}, "", err
	}
	k, err := r.key()
	return r, k, err
}

// changes is own for an update's changed columns, which may not
// include a primary-key column.
func (t *Table) changes(r Row) (Row, error) {
	r, err := t.own(r)
	if err != nil {
		return Row{}, err
	}
	for _, p := range t.l.key {
		if r.set&(1<<p) != 0 {
			return Row{}, fmt.Errorf("%w: %q", ErrKeyImmutable, t.l.cols[p].Name)
		}
	}
	return r, nil
}

// appendKeyVal appends the encoding of the i-th probe key value to b,
// and reports false for a value that is not of the key column's type:
// no stored key holds one. It encodes as Row.appendKey does, so stored
// keys and probe keys always agree, and without fmt, which would move
// every probe's key values to the heap.
func (t *Table) appendKeyVal(b []byte, i int, v any) ([]byte, bool) {
	ct := t.keyType(i)
	val, ok := valueOf(ct, v)
	if !ok {
		return b, false
	}
	return appendKeyValue(b, i, ct, val), true
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
		if b, ok = t.appendKeyVal(b, i, keyVals[i]); !ok {
			return b, fmt.Errorf("%w: key column %s.%s", ErrBadType, t.schema.Name, t.schema.Key[i])
		}
	}
	return b, nil
}

// keyType is the type of the i-th key column.
func (t *Table) keyType(i int) ColType { return t.l.cols[t.l.key[i]].Type }

// soleStringKey returns the probe value of a single-column string key,
// which encodes as itself (the same fast path as Row.key).
func (t *Table) soleStringKey(keyVals []any) (string, bool) {
	if len(t.schema.Key) != 1 || len(keyVals) != 1 || t.keyType(0) != String {
		return "", false
	}
	s, ok := keyVals[0].(string)
	return s, ok
}

// keyFromVals returns the encoded key for keyVals. Without a probe
// buffer the key is a string of its own, for a caller that keeps it. A
// probe key is only compared and looked up, never kept: a composite one
// is built in probe and shares its bytes (the store's one use of
// unsafe), so a point read allocates nothing, and it is valid only while
// probe is and until probe changes.
func (t *Table) keyFromVals(keyVals []any, probe []byte) (rowKey, error) {
	if s, ok := t.soleStringKey(keyVals); ok {
		return rowKey(s), nil
	}
	if probe != nil {
		b, err := t.appendKey(probe[:0], keyVals)
		return rowKey(unsafe.String(unsafe.SliceData(b), len(b))), err
	}
	var buf [64]byte
	b, err := t.appendKey(buf[:0], keyVals)
	return rowKey(b), err
}

// lookup returns the stored row for keyVals; the caller holds t.mu.
func (t *Table) lookup(keyVals []any) (Row, bool) {
	var buf [64]byte
	k, err := t.keyFromVals(keyVals, buf[:])
	if err != nil {
		return Row{}, false
	}
	r, ok := t.rows[k]
	return r, ok
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
	p, ok := t.l.index[col]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrBadColumn, col)
	}
	if t.l.cols[p].Type == Strings {
		return false, fmt.Errorf("%w: index on %s.%s, a list", ErrBadType, t.schema.Name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexOf(p) != nil {
		return false, nil
	}
	t.indexes = append(t.indexes, index{col: p, m: make(map[scalar]posting)})
	idx := &t.indexes[len(t.indexes)-1]
	for k, r := range t.rows {
		idx.add(k, r)
	}
	return true, nil
}

// indexOf returns the index on the column at position p, or nil; the
// caller holds t.mu.
func (t *Table) indexOf(p int) *index {
	for i := range t.indexes {
		if t.indexes[i].col == p {
			return &t.indexes[i]
		}
	}
	return nil
}

func (idx *index) add(k rowKey, r Row) {
	if r.set&(1<<idx.col) == 0 {
		return
	}
	v := r.vals[idx.col].scalar()
	switch p, ok := idx.m[v]; {
	case !ok:
		idx.m[v] = posting{one: k}
	case p.more != nil:
		p.more[k] = struct{}{}
	case p.one != k:
		idx.m[v] = posting{more: map[rowKey]struct{}{p.one: {}, k: {}}}
	}
}

func (idx *index) remove(k rowKey, r Row) {
	if r.set&(1<<idx.col) == 0 {
		return
	}
	v := r.vals[idx.col].scalar()
	switch p, ok := idx.m[v]; {
	case ok && p.more == nil && p.one == k:
		delete(idx.m, v)
	case p.more != nil:
		delete(p.more, k)
		if len(p.more) == 1 {
			for last := range p.more {
				idx.m[v] = posting{one: last}
			}
		}
	}
}

func (t *Table) indexAdd(k rowKey, r Row) {
	for i := range t.indexes {
		t.indexes[i].add(k, r)
	}
}

func (t *Table) indexRemove(k rowKey, r Row) {
	for i := range t.indexes {
		t.indexes[i].remove(k, r)
	}
}

// View calls fn with the stored row for keyVals while holding the
// table's read lock, returning false when no row matches. fn sees the
// live row, not a copy: it must not modify it or keep it past the call.
func (t *Table) View(fn func(Row), keyVals ...any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.lookup(keyVals)
	if ok {
		fn(r)
	}
	return ok
}

// Has reports whether a row exists for keyVals.
func (t *Table) Has(keyVals ...any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.lookup(keyVals)
	return ok
}

// probe converts the value v a caller looks for in column col to the
// column's type, reporting false when the table has no such column, it
// is a list or v is not of its type: then no row matches.
func (t *Table) probe(col string, v any) (int, scalar, bool) {
	p, ok := t.l.index[col]
	if !ok || t.l.cols[p].Type == Strings {
		return 0, scalar{}, false
	}
	val, ok := valueOf(t.l.cols[p].Type, v)
	return p, val.scalar(), ok
}

// holds reports whether r sets the scalar column at position p to v.
func (r Row) holds(p int, v scalar) bool {
	return r.set&(1<<p) != 0 && r.vals[p].scalar() == v
}

// ViewEq calls fn with every stored row with row[col] == v, in no
// particular order, through the column's index when it has one, under
// View's rule.
func (t *Table) ViewEq(col string, v any, fn func(Row)) {
	p, val, ok := t.probe(col, v)
	if !ok {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.eachEq(p, val, func(_ rowKey, r Row) { fn(r) })
}

// ViewAll calls fn with every stored row, in no particular order, under
// View's rule.
func (t *Table) ViewAll(fn func(Row)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		fn(r)
	}
}

// eachEq calls fn with the key and the row of every stored row that sets
// the column at position p to val, through the column's index when it
// has one; the caller holds t.mu.
func (t *Table) eachEq(p int, val scalar, fn func(rowKey, Row)) {
	if idx := t.indexOf(p); idx != nil {
		if post, ok := idx.m[val]; ok {
			post.each(func(k rowKey) { fn(k, t.rows[k]) })
		}
		return
	}
	for k, r := range t.rows {
		if r.holds(p, val) {
			fn(k, r)
		}
	}
}

// applyOpLocked applies one already-validated op, whose encoded key is
// k, directly to the table's maps; the caller holds t.mu (Tx.Commit
// applies its whole buffer under the locks of every involved table). An
// inserted row is stored as it stands: Tx.Insert took ownership of it.
// An update or delete takes as its Key the row it replaces, which names
// the row in the log.
func (t *Table) applyOpLocked(op *LoggedOp, k rowKey) {
	cur := t.rows[k]
	if op.Op != OpInsert {
		op.Key = cur
	}
	switch op.Op {
	case OpInsert:
		t.rows[k] = op.Row
		t.indexAdd(k, op.Row)
	case OpUpdate:
		t.indexRemove(k, cur)
		stored := merged(cur, op.Row)
		t.rows[k] = stored
		t.indexAdd(k, stored)
	case OpDelete:
		delete(t.rows, k)
		t.indexRemove(k, cur)
	}
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
// with nothing logged.
func (t *Table) replay(op LoggedOp) error {
	var k rowKey
	var err error
	switch op.Op {
	case OpInsert:
		if op.Row, k, err = t.insertable(op.Row); err == nil {
			op.Row = op.Row.Clone()
		}
	case OpUpdate:
		if op.Row, err = t.changes(op.Row); err == nil {
			k, err = t.loggedKey(op.Key)
		}
	case OpDelete:
		k, err = t.loggedKey(op.Key)
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
	t.applyOpLocked(&op, k)
	return nil
}

// loggedKey returns the encoded key a logged update or delete names:
// the key columns of key, a row of the table.
func (t *Table) loggedKey(key Row) (rowKey, error) {
	switch {
	case key.err != nil:
		return "", key.err
	case key.l != t.l:
		return "", fmt.Errorf("%w: need a key of table %s", ErrMissingKey, t.schema.Name)
	}
	return key.key()
}

// Count reports the number of rows.
func (t *Table) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}
