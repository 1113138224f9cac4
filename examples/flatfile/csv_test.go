package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/store"
)

var ctx = context.Background()

func newCal(t *testing.T) (*store.DB, *store.Table) {
	t.Helper()
	db := store.NewDB()
	tab, err := db.CreateTable(store.Schema{
		Name: "calendar",
		Columns: []store.Column{
			{Name: "day", Type: store.String},
			{Name: "hour", Type: store.Int},
			{Name: "status", Type: store.String},
			{Name: "meeting", Type: store.String},
			{Name: "priority", Type: store.Int},
			{Name: "locked", Type: store.Bool},
			{Name: "updated", Type: store.Time},
		},
		Key: []string{"day", "hour"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func slotRow(tab *store.Table, day string, hour int64, status string) store.Row {
	r := tab.NewRow()
	r.SetStr("day", day)
	r.SetInt("hour", hour)
	r.SetStr("status", status)
	r.SetStr("meeting", "")
	r.SetInt("priority", 0)
	r.SetBool("locked", false)
	r.SetTime("updated", time.Date(2003, 4, 22, 0, 0, 0, 0, time.UTC))
	return r
}

func TestCSVRoundTrip(t *testing.T) {
	db, tab := newCal(t)
	ts := time.Date(2003, 4, 22, 14, 0, 0, 0, time.UTC)
	for h := int64(9); h < 12; h++ {
		r := slotRow(tab, "2003-04-22", h, "free")
		r.SetTime("updated", ts)
		r.SetInt("priority", h)
		r.SetBool("locked", h%2 == 0)
		if err := insertRow(db, tab, r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := exportCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "day,hour,status,meeting,priority,locked,updated\n") {
		t.Fatalf("header wrong:\n%s", out)
	}

	db2, tab2 := newCal(t)
	if err := importCSV(ctx, db2, "calendar", strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	if tab2.Count() != 3 {
		t.Fatalf("count = %d", tab2.Count())
	}
	r, ok := getRow(tab2, "2003-04-22", int64(10))
	if !ok {
		t.Fatal("row lost")
	}
	if r.Int("priority") != 10 || !r.Bool("locked") {
		t.Fatalf("row = %v", r)
	}
	if got := r.Time("updated"); !got.Equal(ts) {
		t.Fatalf("updated = %v", got)
	}
}

func TestCSVImportUpsert(t *testing.T) {
	db, tab := newCal(t)
	if err := insertRow(db, tab, slotRow(tab, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	csvIn := "day,hour,status\nd,9,reserved\nd,10,free\n"
	if err := importCSV(ctx, db, "calendar", strings.NewReader(csvIn)); err != nil {
		t.Fatal(err)
	}
	r, _ := getRow(tab, "d", int64(9))
	if r.Str("status") != "reserved" {
		t.Fatalf("status = %v", r.Str("status"))
	}
	if tab.Count() != 2 {
		t.Fatalf("count = %d", tab.Count())
	}
}

func TestCSVImportErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unknown column", "day,bogus\nd,1\n"},
		{"bad int", "day,hour\nd,nine\n"},
		{"missing key", "status\nfree\n"},
		{"bad bool", "day,hour,locked\nd,9,maybe\n"},
		{"bad time", "day,hour,updated\nd,9,notatime\n"},
	}
	for _, c := range cases {
		db, _ := newCal(t)
		if err := importCSV(ctx, db, "calendar", strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: import succeeded", c.name)
		}
	}
}

// TestCSVImportIsOneUnit: a file with a bad line leaves the table as it
// was, the good lines before it included.
func TestCSVImportIsOneUnit(t *testing.T) {
	db, tab := newCal(t)
	if err := importCSV(ctx, db, "calendar", strings.NewReader("day,hour\nd,9\nd,nine\n")); err == nil {
		t.Fatal("a file with a bad line imported")
	}
	if n := tab.Count(); n != 0 {
		t.Fatalf("%d rows after a refused import, want 0", n)
	}
}

func TestCSVEmptyValuesDecodeToZero(t *testing.T) {
	db, tab := newCal(t)
	in := "day,hour,status,priority,locked,updated\nd,9,,,,\n"
	if err := importCSV(ctx, db, "calendar", strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	r, _ := getRow(tab, "d", int64(9))
	if !r.Has("priority") || r.Int("priority") != 0 || !r.Has("locked") || r.Bool("locked") {
		t.Fatalf("row = %v", r)
	}
	if !r.Has("updated") || !r.Time("updated").IsZero() {
		t.Fatalf("updated = %v", r.Time("updated"))
	}
}

func TestCSVFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calendar.csv")

	db, tab := newCal(t)
	if err := insertRow(db, tab, slotRow(tab, "d", 9, "reserved")); err != nil {
		t.Fatal(err)
	}
	if err := saveCSVFile(tab, path); err != nil {
		t.Fatal(err)
	}

	db2, tab2 := newCal(t)
	if err := loadCSVFile(ctx, db2, "calendar", path); err != nil {
		t.Fatal(err)
	}
	if tab2.Count() != 1 {
		t.Fatalf("count = %d", tab2.Count())
	}
	// Missing file is fine.
	db3, tab3 := newCal(t)
	if err := loadCSVFile(ctx, db3, "calendar", filepath.Join(dir, "absent.csv")); err != nil {
		t.Fatal(err)
	}
	if tab3.Count() != 0 {
		t.Fatal("phantom rows")
	}
}

func TestCSVExportDeterministic(t *testing.T) {
	mk := func() string {
		db, tab := newCal(t)
		for _, h := range []int64{12, 9, 15, 10} {
			if err := insertRow(db, tab, slotRow(tab, "d", h, "free")); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := exportCSV(tab, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if mk() != mk() {
		t.Fatal("export not deterministic")
	}
}

func TestCSVHeaderGarbage(t *testing.T) {
	db, _ := newCal(t)
	err := importCSV(ctx, db, "calendar", strings.NewReader(""))
	if err == nil {
		t.Fatal("empty input accepted")
	}
	if errors.Is(err, store.ErrBadColumn) {
		t.Fatal("empty input misclassified as bad column")
	}
}

// TestCSVRoundTripProperty: any set of rows exports and imports back
// to the same table.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(hours []uint8) bool {
		db, tab := newCal(t)
		seen := map[int64]bool{}
		for _, h := range hours {
			k := int64(h)
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := insertRow(db, tab, slotRow(tab, "d", k, fmt.Sprintf("s-%d", h))); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := exportCSV(tab, &buf); err != nil {
			return false
		}
		db2, tab2 := newCal(t)
		if err := importCSV(ctx, db2, "calendar", &buf); err != nil {
			return false
		}
		return reflect.DeepEqual(allRows(tab), allRows(tab2))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// insertRow writes one row of tab in a unit of its own, and getRow
// copies one out of a visit.
func insertRow(db *store.DB, tab *store.Table, r store.Row) error {
	return db.Unit(ctx, func(u *store.Tx) error { return u.Insert(tab.Schema().Name, r) })
}

func getRow(tab *store.Table, key ...any) (row store.Row, ok bool) {
	ok = tab.View(func(r store.Row) { row = r.Clone() }, key...)
	return row, ok
}

// allRows copies every row of tab out of a visit, ordered by their text.
func allRows(tab *store.Table) []store.Row {
	var rows []store.Row
	tab.ViewAll(func(r store.Row) { rows = append(rows, r.Clone()) })
	slices.SortFunc(rows, func(a, b store.Row) int { return strings.Compare(a.String(), b.String()) })
	return rows
}
