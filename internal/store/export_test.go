package store

import "sort"

// MustCreateTable is CreateTable panicking on error; for package init
// of fixed schemas.
func (db *DB) MustCreateTable(s Schema) *Table {
	t, err := db.CreateTable(s)
	if err != nil {
		panic(err)
	}
	return t
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

// Begin starts a transaction the test commits or rolls back itself;
// shipped code writes through Unit, which recycles its Tx.
func (db *DB) Begin() *Tx { return &Tx{db: db} }

// Get returns a copy of the row for keyVals as the tx sees it.
func (tx *Tx) Get(table string, keyVals ...any) (row Row, ok bool) {
	ok = tx.View(table, func(r Row) { row = r.Clone() }, keyVals...)
	return row, ok
}

// Rollback discards the buffered mutations and queued sends. Nothing
// was applied and nothing is logged.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.ops, tx.at, tx.after = nil, nil, nil
	return nil
}
