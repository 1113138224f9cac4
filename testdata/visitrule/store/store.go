// Package store has the visits of repro/internal/store, in outline, for
// the fixture of TestVisitRuleFixture.
package store

// Row is one stored row.
type Row struct{ v string }

// Str reads the row.
func (r Row) Str() string { return r.v }

// Clone copies the row.
func (r Row) Clone() Row { return r }

// Table holds rows.
type Table struct{ rows []Row }

// View visits the row for key.
func (t *Table) View(fn func(Row), key ...any) bool {
	for _, r := range t.rows {
		fn(r)
		return true
	}
	return false
}

// ViewEq visits the rows whose col is v.
func (t *Table) ViewEq(col string, v any, fn func(Row)) { t.ViewAll(fn) }

// ViewAll visits every row.
func (t *Table) ViewAll(fn func(Row)) {
	for _, r := range t.rows {
		fn(r)
	}
}

// Tx is a unit over one table.
type Tx struct{ t *Table }

// View visits the row for key as the unit sees it.
func (tx *Tx) View(table string, fn func(Row), key ...any) bool { return tx.t.View(fn, key...) }

// ViewEq visits the rows whose col is v as the unit sees them.
func (tx *Tx) ViewEq(table, col string, v any, fn func(Row)) { tx.t.ViewEq(col, v, fn) }
