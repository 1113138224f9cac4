// Package visitrule is the fixture of TestVisitRuleFixture: each line
// marked "want: <how>" keeps the row its visit was handed, and no other
// line does.
package visitrule

import "visitrule/store"

type holder struct{ row store.Row }

var kept store.Row

func keeps(t *store.Table, tx *store.Tx, ch chan store.Row, m map[string]store.Row) []holder {
	var rows []store.Row
	var held []holder
	var h holder
	var last store.Row
	t.ViewEq("c", 1, func(r store.Row) { rows = append(rows, r) })              // want: append
	t.ViewAll(func(r store.Row) { last = r })                                   // want: captured
	t.ViewAll(func(r store.Row) { kept = r })                                   // want: captured
	t.View(func(r store.Row) { h.row = r }, "k")                                // want: field
	t.ViewAll(func(r store.Row) { m[r.Str()] = r })                             // want: map
	tx.View("t", func(r store.Row) { ch <- r }, "k")                            // want: channel
	tx.ViewEq("t", "c", 1, func(r store.Row) { go func() { _ = r.Str() }() })   // want: go
	t.ViewAll(func(r store.Row) { x := r; rows = append(rows, x) })             // want: append
	t.ViewAll(func(r store.Row) { held = append(held, holder{row: r}) })        // want: append
	t.ViewAll(func(r store.Row) { var p *store.Row = &r; h = holder{row: *p} }) // want: captured
	_ = last
	return append(held, h)
}

func keepsNothing(t *store.Table, tx *store.Tx) []string {
	var names []string
	var rows []store.Row
	t.ViewAll(func(r store.Row) { names = append(names, r.Str()) })
	t.ViewAll(func(r store.Row) { rows = append(rows, r.Clone()) })
	t.ViewAll(func(r store.Row) {
		local := r
		var ours []store.Row
		ours = append(ours, local)
		names = append(names, ours[0].Str())
	})
	tx.ViewEq("t", "c", 1, func(store.Row) { names = append(names, "seen") })
	tx.View("t", func(r store.Row) { go func(s string) { _ = s }(r.Str()) }, "k")
	return names
}
