package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func calendarSchema() Schema {
	return Schema{
		Name: "calendar",
		Columns: []Column{
			{Name: "day", Type: String},
			{Name: "hour", Type: Int},
			{Name: "status", Type: String},
			{Name: "meeting", Type: String},
			{Name: "priority", Type: Int},
			{Name: "locked", Type: Bool},
			{Name: "updated", Type: Time},
		},
		Key: []string{"day", "hour"},
	}
}

func newCalTable(t *testing.T) *Table {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable(calendarSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func slotRow(tab *Table, day string, hour int64, status string) Row {
	return row(tab, slotFields(day, hour, status)...)
}

// slotFields are the column, value pairs of slotRow.
func slotFields(day string, hour int64, status string) []any {
	return []any{"day", day, "hour", hour, "status", status,
		"meeting", "", "priority", int64(0), "locked", false,
		"updated", time.Date(2003, 4, 22, 0, 0, 0, 0, time.UTC)}
}

// row builds a row of tab from column, value pairs.
func row(tab *Table, kv ...any) Row {
	r := tab.NewRow()
	for i := 0; i < len(kv); i += 2 {
		r.Set(kv[i].(string), kv[i+1])
	}
	return r
}

// insert, update and remove write one row of t in a unit of their own,
// and get copies one out of a visit: the one-row writes and point read
// of these tests. The writes copy what they are given, so a caller may
// reuse its rows.
func (t *Table) insert(r Row) error {
	return t.db.Unit(context.Background(), func(u *Tx) error { return u.Insert(t.schema.Name, r.Clone()) })
}

func (t *Table) update(changes Row, keyVals ...any) error {
	return t.db.Unit(context.Background(), func(u *Tx) error { return u.Update(t.schema.Name, changes.Clone(), keyVals...) })
}

func (t *Table) remove(keyVals ...any) error {
	return t.db.Unit(context.Background(), func(u *Tx) error { return u.Delete(t.schema.Name, keyVals...) })
}

func (t *Table) get(keyVals ...any) (row Row, ok bool) {
	ok = t.View(func(r Row) { row = r.Clone() }, keyVals...)
	return row, ok
}

// selectWhere copies the rows pred holds for (nil: every row) out of a
// visit, in key order; selectEq those ViewEq visits.
func (t *Table) selectWhere(pred func(Row) bool) []Row {
	var rows []Row
	t.ViewAll(func(r Row) {
		if pred == nil || pred(r) {
			rows = append(rows, r.Clone())
		}
	})
	return byKey(rows)
}

func (t *Table) selectEq(col string, v any) []Row {
	var rows []Row
	t.ViewEq(col, v, func(r Row) { rows = append(rows, r.Clone()) })
	return byKey(rows)
}

func byKey(rows []Row) []Row {
	slices.SortFunc(rows, func(a, b Row) int {
		ka, _ := a.key()
		kb, _ := b.key()
		return cmp.Compare(ka, kb)
	})
	return rows
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	cases := []struct {
		name string
		s    Schema
	}{
		{"empty name", Schema{Columns: []Column{{Name: "a"}}, Key: []string{"a"}}},
		{"no columns", Schema{Name: "t", Key: []string{"a"}}},
		{"no key", Schema{Name: "t", Columns: []Column{{Name: "a"}}}},
		{"bad key col", Schema{Name: "t", Columns: []Column{{Name: "a"}}, Key: []string{"zz"}}},
		{"dup column", Schema{Name: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}, Key: []string{"a"}}},
		{"empty column", Schema{Name: "t", Columns: []Column{{Name: ""}}, Key: []string{""}}},
	}
	for _, c := range cases {
		if _, err := db.CreateTable(c.s); err == nil {
			t.Errorf("%s: CreateTable succeeded", c.name)
		}
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(calendarSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(calendarSchema()); !errors.Is(err, ErrDupTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableLookup(t *testing.T) {
	db := NewDB()
	db.MustCreateTable(calendarSchema())
	if _, err := db.Table("calendar"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v", err)
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "calendar" {
		t.Fatalf("TableNames = %v", got)
	}
}

func TestInsertGet(t *testing.T) {
	tab := newCalTable(t)
	if err := tab.insert(slotRow(tab, "2003-04-22", 9, "free")); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.get("2003-04-22", int64(9))
	if !ok {
		t.Fatal("row not found")
	}
	if got.Str("status") != "free" {
		t.Fatalf("status = %v", got.Str("status"))
	}
	if _, ok := tab.get("2003-04-22", int64(10)); ok {
		t.Fatal("phantom row")
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	tab := newCalTable(t)
	if err := tab.insert(slotRow(tab, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tab.insert(slotRow(tab, "d", 9, "busy")); !errors.Is(err, ErrDupKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tab := newCalTable(t)
	r := slotRow(tab, "d", 9, "free")
	r.Set("hour", "nine") // wrong type
	if err := tab.insert(r); !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v", err)
	}
	r = slotRow(tab, "d", 9, "free")
	r.Set("bogus", 1)
	if err := tab.insert(r); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v", err)
	}
	r = row(tab, "hour", int64(9), "status", "free")
	if err := tab.insert(r); !errors.Is(err, ErrMissingKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdate(t *testing.T) {
	tab := newCalTable(t)
	if err := tab.insert(slotRow(tab, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tab.update(row(tab, "status", "reserved", "meeting", "M1"), "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	got, _ := tab.get("d", int64(9))
	if got.Str("status") != "reserved" || got.Str("meeting") != "M1" {
		t.Fatalf("row = %v", got)
	}
	if err := tab.update(row(tab, "status", "x"), "d", int64(10)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("missing row: %v", err)
	}
	if err := tab.update(row(tab, "day", "e"), "d", int64(9)); !errors.Is(err, ErrKeyImmutable) {
		t.Fatalf("key change: %v", err)
	}
	if err := tab.update(row(tab, "hour", "x"), "d", int64(9)); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tab := newCalTable(t)
	if err := tab.insert(slotRow(tab, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tab.remove("d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.get("d", int64(9)); ok {
		t.Fatal("row survived delete")
	}
	if err := tab.remove("d", int64(9)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestSelect: a visit of every row sees each once.
func TestSelect(t *testing.T) {
	tab := newCalTable(t)
	for h := int64(9); h < 17; h++ {
		status := "free"
		if h%2 == 0 {
			status = "busy"
		}
		if err := tab.insert(slotRow(tab, "d", h, status)); err != nil {
			t.Fatal(err)
		}
	}
	free := tab.selectWhere(func(r Row) bool { return r.Str("status") == "free" })
	if len(free) != 4 {
		t.Fatalf("free slots = %d", len(free))
	}
	all := tab.selectWhere(nil)
	if len(all) != 8 || tab.Count() != 8 {
		t.Fatalf("all = %d count = %d", len(all), tab.Count())
	}
}

// TestSelectEqWithAndWithoutIndex: an equality visit reads the same rows
// through a scan and through an index, which follows updates and
// deletes.
func TestSelectEqWithAndWithoutIndex(t *testing.T) {
	tab := newCalTable(t)
	for h := int64(0); h < 100; h++ {
		status := "free"
		if h%10 == 0 {
			status = "busy"
		}
		if err := tab.insert(slotRow(tab, "d", h, status)); err != nil {
			t.Fatal(err)
		}
	}
	scan := tab.selectEq("status", "busy")
	if err := tab.CreateIndex("status"); err != nil {
		t.Fatal(err)
	}
	idx := tab.selectEq("status", "busy")
	if len(scan) != len(idx) || len(idx) != 10 {
		t.Fatalf("scan=%d idx=%d", len(scan), len(idx))
	}
	// Index stays consistent across update and delete.
	if err := tab.update(row(tab, "status", "free"), "d", int64(0)); err != nil {
		t.Fatal(err)
	}
	if got := len(tab.selectEq("status", "busy")); got != 9 {
		t.Fatalf("after update: %d", got)
	}
	if err := tab.remove("d", int64(10)); err != nil {
		t.Fatal(err)
	}
	if got := len(tab.selectEq("status", "busy")); got != 8 {
		t.Fatalf("after delete: %d", got)
	}
	if err := tab.CreateIndex("nope"); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("bad index col: %v", err)
	}
	if err := tab.CreateIndex("status"); err != nil {
		t.Fatalf("re-creating index should be idempotent: %v", err)
	}
}

func TestConcurrentInsertsDistinctKeys(t *testing.T) {
	tab := newCalTable(t)
	var wg sync.WaitGroup
	const n = 50
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tab.insert(slotRow(tab, "d", int64(i), "free"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tab.Count() != n {
		t.Fatalf("count = %d", tab.Count())
	}
}

func TestConcurrentInsertSameKeyExactlyOneWins(t *testing.T) {
	tab := newCalTable(t)
	var wg sync.WaitGroup
	var okCount, dupCount sync.Map
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := tab.insert(slotRow(tab, "d", 9, "free"))
			if err == nil {
				okCount.Store(i, true)
			} else if errors.Is(err, ErrDupKey) {
				dupCount.Store(i, true)
			}
		}(i)
	}
	wg.Wait()
	oks := 0
	okCount.Range(func(k, v any) bool { oks++; return true })
	if oks != 1 {
		t.Fatalf("winners = %d, want exactly 1", oks)
	}
}

// TestInsertSelectProperty: after inserting a random set of rows with
// distinct keys, Count and a visit of every row agree and every key
// reads back.
func TestInsertSelectProperty(t *testing.T) {
	f := func(hours []uint8) bool {
		db := NewDB()
		tab := db.MustCreateTable(calendarSchema())
		seen := map[int64]bool{}
		var keys []int64
		for _, h := range hours {
			k := int64(h)
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			if err := tab.insert(slotRow(tab, "d", k, "free")); err != nil {
				return false
			}
		}
		if tab.Count() != len(keys) || len(tab.selectWhere(nil)) != len(keys) {
			return false
		}
		for _, k := range keys {
			if _, ok := tab.get("d", k); !ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeKeyOrdering(t *testing.T) {
	tab := newCalTable(t)
	if err := tab.insert(slotRow(tab, "a", 1, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tab.insert(slotRow(tab, "a", 2, "busy")); err != nil {
		t.Fatal(err)
	}
	if err := tab.insert(slotRow(tab, "b", 1, "busy")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range tab.selectWhere(nil) {
		got = append(got, fmt.Sprintf("%v/%v=%v", r.Str("day"), r.Int("hour"), r.Str("status")))
	}
	sort.Strings(got)
	want := []string{"a/1=free", "a/2=busy", "b/1=busy"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

// TestPointReadsDoNotAllocate: View and Has build a two-column key on the
// stack and index the row map with it, so neither the key string nor the
// boxed key values reach the heap, for a row that is there or not. The
// days are built at run time: a constant string boxes for free anyway.
func TestPointReadsDoNotAllocate(t *testing.T) {
	tab := newCalTable(t)
	days := []string{fmt.Sprint("2003-04-", 21), fmt.Sprint("2003-04-", 22)}
	if err := tab.insert(slotRow(tab, days[0], 9, "busy")); err != nil {
		t.Fatal(err)
	}
	found, seen := 0, ""
	read := func(r Row) { seen = r.Str("status") }
	allocs := testing.AllocsPerRun(100, func() {
		for _, day := range days {
			for hour := int64(9); hour < 18; hour++ {
				if tab.View(read, day, hour) && tab.Has(day, hour) {
					found++
				}
			}
		}
	})
	if found != 101 || seen != "busy" { // AllocsPerRun warms up with one run of its own
		t.Fatalf("found the row %d times with status %q, want 101 and busy", found, seen)
	}
	if allocs != 0 {
		t.Fatalf("18 View + 18 Has on a two-column key: %.0f allocs, want 0", allocs)
	}
	// A probe of no column type matches nothing, as it stored nothing.
	if tab.Has(days[0], 9) || tab.Has(days[0]) {
		t.Fatal("a key of the wrong type or length found a row")
	}
	if err := tab.remove(days[0], 9); !errors.Is(err, ErrBadType) {
		t.Fatalf("delete by an int key: %v, want ErrBadType", err)
	}
}

// TestTxInsertKeepsTheRow: Tx.Insert takes the row it is given, so the
// table stores that row's values themselves and no copy is made on the
// way.
func TestTxInsertKeepsTheRow(t *testing.T) {
	tab := newCalTable(t)
	r := slotRow(tab, "d", 9, "busy")
	tx := tab.db.Begin()
	if err := tx.Insert("calendar", r); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	var stored Row
	tab.View(func(s Row) { stored = s }, "d", int64(9))
	if &stored.vals[0] != &r.vals[0] {
		t.Fatal("the table stores a copy of the row Tx.Insert was given")
	}
}

// TestViewEqReadsInPlace: ViewEq visits the rows a filtered visit of
// every row finds, with an index and without one, and copies none of
// them.
func TestViewEqReadsInPlace(t *testing.T) {
	tab := newCalTable(t)
	for h := int64(0); h < 6; h++ {
		if err := tab.insert(slotRow(tab, "d", h, []string{"busy", "free"}[h%2])); err != nil {
			t.Fatal(err)
		}
	}
	busy := fmt.Sprint("bu", "sy") // built at run time, as a caller's value is
	for _, indexed := range []bool{false, true} {
		if indexed {
			if err := tab.CreateIndex("status"); err != nil {
				t.Fatal(err)
			}
		}
		var hours []int64
		tab.ViewEq("status", busy, func(r Row) { hours = append(hours, r.Int("hour")) })
		sort.Slice(hours, func(i, j int) bool { return hours[i] < hours[j] })
		var want []int64
		for _, r := range tab.selectWhere(func(r Row) bool { return r.Str("status") == busy }) {
			want = append(want, r.Int("hour"))
		}
		if fmt.Sprint(hours) != fmt.Sprint(want) || len(want) != 3 {
			t.Fatalf("indexed=%v: ViewEq visits hours %v, a scan finds %v", indexed, hours, want)
		}
		n := 0
		if allocs := testing.AllocsPerRun(100, func() { tab.ViewEq("status", busy, func(Row) { n++ }) }); allocs != 0 {
			t.Fatalf("indexed=%v: ViewEq costs %.0f allocs, want 0", indexed, allocs)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	db := NewDB()
	tab := db.MustCreateTable(calendarSchema())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tab.insert(slotRow(tab, "d", int64(i), "free")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewEqIndexed(b *testing.B) {
	db := NewDB()
	tab := db.MustCreateTable(calendarSchema())
	for i := 0; i < 10000; i++ {
		status := "free"
		if i%100 == 0 {
			status = "busy"
		}
		if err := tab.insert(slotRow(tab, "d", int64(i), status)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tab.CreateIndex("status"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tab.ViewEq("status", "busy", func(Row) { n++ })
		if n != 100 {
			b.Fatalf("got %d", n)
		}
	}
}

// TestIndexPostingsGrowAndShrink: the rows holding one indexed value go
// 0 → 1 → 2 → 1 → 0 by insert, insert, update and delete, the posting
// holding the key inline while one row does. At every step ViewEq on
// the indexed table reads what a scan of an unindexed twin does, and a reader running beside the writes sees one row or two
// whenever it sees any.
func TestIndexPostingsGrowAndShrink(t *testing.T) {
	indexed, scanned := newCalTable(t), newCalTable(t)
	if err := indexed.CreateIndex("status"); err != nil {
		t.Fatal(err)
	}
	busy := fmt.Sprint("bu", "sy")
	view := func(tab *Table) []Row {
		var rows []Row
		tab.ViewEq("status", busy, func(r Row) { rows = append(rows, r.Clone()) })
		sort.Slice(rows, func(i, j int) bool { return rows[i].Int("hour") < rows[j].Int("hour") })
		return rows
	}
	steps := []struct {
		name  string
		write func(tab *Table) error
		rows  int
	}{
		{"insert 9", func(tab *Table) error { return tab.insert(slotRow(tab, "d", 9, busy)) }, 1},
		{"insert 10", func(tab *Table) error { return tab.insert(slotRow(tab, "d", 10, busy)) }, 2},
		{"free 9", func(tab *Table) error { return tab.update(row(tab, "status", "free"), "d", int64(9)) }, 1},
		{"delete 10", func(tab *Table) error { return tab.remove("d", int64(10)) }, 0},
		{"delete 9", func(tab *Table) error { return tab.remove("d", int64(9)) }, 0},
	}
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if n := len(indexed.selectEq("status", busy)); n > 2 {
				done <- fmt.Errorf("a reader saw %d busy rows", n)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		for _, st := range steps {
			for _, tab := range []*Table{indexed, scanned} {
				if err := st.write(tab); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
			}
			indexed.mu.RLock()
			post, ok := indexed.indexes[0].m[scalar{s: busy}]
			got := 0
			if ok {
				post.each(func(rowKey) { got++ })
				if (post.more == nil) != (got == 1) {
					t.Fatalf("%s: %d rows, inline %v", st.name, got, post.more == nil)
				}
			}
			indexed.mu.RUnlock()
			if got != st.rows {
				t.Fatalf("%s: the posting holds %d rows, want %d", st.name, got, st.rows)
			}
			if v, w := view(indexed), view(scanned); !reflect.DeepEqual(v, w) || len(v) != st.rows {
				t.Fatalf("%s: ViewEq reads %v, a scan %v", st.name, v, w)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
