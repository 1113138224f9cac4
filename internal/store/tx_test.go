package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func twoTableDB(t *testing.T) (*DB, *Table, *Table) {
	t.Helper()
	db := NewDB()
	cal := db.MustCreateTable(calendarSchema())
	links := db.MustCreateTable(Schema{
		Name: "links",
		Columns: []Column{
			{Name: "id", Type: String},
			{Name: "kind", Type: String},
			{Name: "prio", Type: Int},
		},
		Key: []string{"id"},
	})
	return db, cal, links
}

func TestTxCommit(t *testing.T) {
	db, cal, links := twoTableDB(t)
	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "reserved")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("links", row(links, "id", "L1", "kind", "negotiation-and", "prio", int64(5))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cal.Count() != 1 || links.Count() != 1 {
		t.Fatalf("counts = %d, %d", cal.Count(), links.Count())
	}
	if err := tx.Commit(context.Background()); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestTxRollbackUndoesEverything(t *testing.T) {
	db, cal, links := twoTableDB(t)
	if err := cal.insert(slotRow(cal, "d", 8, "busy")); err != nil {
		t.Fatal(err)
	}
	if err := links.insert(row(links, "id", "L0", "kind", "subscription", "prio", int64(1))); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "reserved")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("calendar", row(cal, "status", "reserved"), "d", int64(8)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("links", "L0"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	if _, ok := cal.get("d", int64(9)); ok {
		t.Fatal("inserted row survived rollback")
	}
	got, _ := cal.get("d", int64(8))
	if got.Str("status") != "busy" {
		t.Fatalf("update not undone: %v", got.Str("status"))
	}
	if _, ok := links.get("L0"); !ok {
		t.Fatal("deleted row not restored")
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double rollback: %v", err)
	}
}

func TestTxRollbackReverseOrder(t *testing.T) {
	// Insert then update the same row inside one tx: rollback must
	// undo the update first, then the insert, leaving no row.
	db, cal, _ := twoTableDB(t)
	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("calendar", row(cal, "status", "reserved"), "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if cal.Count() != 0 {
		t.Fatalf("count = %d after rollback", cal.Count())
	}
}

func TestTxOperationsAfterDone(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	tx := db.Begin()
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); !errors.Is(err, ErrTxDone) {
		t.Fatalf("insert after done: %v", err)
	}
	if err := tx.Update("calendar", row(cal, "status", "x"), "d", int64(9)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("update after done: %v", err)
	}
	if err := tx.Delete("calendar", "d", int64(9)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("delete after done: %v", err)
	}
}

func TestTxErrorsPropagate(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	if err := cal.insert(slotRow(cal, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); !errors.Is(err, ErrDupKey) {
		t.Fatalf("dup insert: %v", err)
	}
	if err := tx.Update("nope", Row{}, "k"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("bad table: %v", err)
	}
	if err := tx.Delete("calendar", "d", int64(99)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("missing row: %v", err)
	}
	// Failed ops added no undo entries; rollback is a no-op.
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cal.get("d", int64(9)); !ok {
		t.Fatal("pre-existing row disturbed")
	}
}

func TestTxReadYourWrites(t *testing.T) {
	// A tx sees its own buffered ops: insert → update → delete of the
	// same row works, and after an in-tx delete the key is free again.
	db, cal, _ := twoTableDB(t)
	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("calendar", row(cal, "status", "reserved"), "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "again")); !errors.Is(err, ErrDupKey) {
		t.Fatalf("dup of own insert: %v", err)
	}
	if err := tx.Delete("calendar", "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "reborn")); err != nil {
		t.Fatalf("insert after own delete: %v", err)
	}
	// Nothing is visible outside the tx until Commit.
	if cal.Count() != 0 {
		t.Fatalf("buffered ops leaked: %d rows", cal.Count())
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := cal.get("d", int64(9))
	if !ok || got.Str("status") != "reborn" {
		t.Fatalf("committed row = %v, %v", got, ok)
	}
}

func TestTxCommitConflictAppliesNothing(t *testing.T) {
	// A direct mutation between op record time and Commit invalidates
	// the buffer; Commit must apply none of the tx's ops.
	db, cal, links := twoTableDB(t)
	if err := cal.insert(slotRow(cal, "d", 8, "busy")); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("links", row(links, "id", "L9", "kind", "subscription", "prio", int64(1))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("calendar", row(cal, "status", "reserved"), "d", int64(8)); err != nil {
		t.Fatal(err)
	}
	if err := cal.remove("d", int64(8)); err != nil { // concurrent writer wins
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); !errors.Is(err, ErrNoRow) {
		t.Fatalf("conflicted commit: %v", err)
	}
	if _, ok := links.get("L9"); ok {
		t.Fatal("conflicted commit applied part of the tx")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db, cal, links := twoTableDB(t)
	ts := time.Date(2003, 4, 22, 14, 30, 0, 0, time.UTC)
	r := slotRow(cal, "d", 9, "reserved")
	r.SetTime("updated", ts)
	if err := cal.insert(r); err != nil {
		t.Fatal(err)
	}
	if err := links.insert(row(links, "id", "L1", "kind", "negotiation-or", "prio", int64(3))); err != nil {
		t.Fatal(err)
	}
	if err := cal.CreateIndex("status"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	cal2, err := db2.Table("calendar")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cal2.get("d", int64(9))
	if !ok {
		t.Fatal("row lost in round trip")
	}
	if got.Str("status") != "reserved" {
		t.Fatalf("status = %v", got.Str("status"))
	}
	if gotTS := got.Time("updated"); !gotTS.Equal(ts) {
		t.Fatalf("updated = %v", gotTS)
	}
	if got.Int("hour") != 9 {
		t.Fatalf("hour restored as %v", got)
	}
	// Index was rebuilt and works.
	if n := len(cal2.selectEq("status", "reserved")); n != 1 {
		t.Fatalf("indexed select = %d", n)
	}
	links2, err := db2.Table("links")
	if err != nil {
		t.Fatal(err)
	}
	if links2.Count() != 1 {
		t.Fatalf("links count = %d", links2.Count())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	db := NewDB()
	if err := db.Restore(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage restore succeeded")
	}
	if err := db.Restore(bytes.NewReader([]byte(`{"version":99}`))); err == nil {
		t.Fatal("bad version restore succeeded")
	}
}

func TestRestoreIntoNonEmptyDBConflicts(t *testing.T) {
	db, _, _ := twoTableDB(t)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(&buf); !errors.Is(err, ErrDupTable) {
		t.Fatalf("err = %v", err)
	}
}

// TestTxUnitAllocs: a commit unit allocates only what it keeps. Four
// inserts of rows built beforehand into four tables cost nothing as one
// Unit, whose Tx and buffers are recycled. A unit cost 70 when Tx kept
// map-of-maps overlays and cloned every row three times, and 1 while
// each unit made its own Tx.
func TestTxUnitAllocs(t *testing.T) {
	db := NewDB()
	names := [4]string{"t0", "t1", "t2", "t3"}
	var tabs [4]*Table
	for i, n := range names {
		tabs[i] = db.MustCreateTable(Schema{
			Name:    n,
			Columns: []Column{{Name: "id", Type: String}, {Name: "v", Type: String}, {Name: "n", Type: Int}},
			Key:     []string{"id"},
		})
	}
	const runs = 200
	rows := make([]Row, 0, (runs+1)*len(names))
	for i := 0; i < cap(rows); i++ {
		rows = append(rows, row(tabs[i%len(tabs)], "id", fmt.Sprintf("k%06d", i), "v", "x", "n", int64(7)))
	}
	next := func() Row { r := rows[0]; rows = rows[1:]; return r }
	ctx := context.Background()
	step := func(u *Tx) error {
		for _, n := range names {
			if err := u.Insert(n, next()); err != nil {
				return err
			}
		}
		return nil
	}
	unit := testing.AllocsPerRun(runs, func() {
		if err := db.Unit(ctx, step); err != nil {
			t.Fatal(err)
		}
	})
	want := 0.0
	if raceEnabled {
		want += 4
	}
	if unit > want {
		t.Fatalf("4 inserts cost %.0f allocs as one unit, want at most %.0f", unit, want)
	}
}

// TestTxReadsSeeTheBuffer: Get, Has, View and ViewEq answer as the tx
// leaves the rows, not as the table still holds them.
func TestTxReadsSeeTheBuffer(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	if err := cal.CreateIndex("status"); err != nil {
		t.Fatal(err)
	}
	for h, st := range map[int64]string{8: "busy", 9: "busy", 10: "free"} {
		if err := cal.insert(slotRow(cal, "d", h, st)); err != nil {
			t.Fatal(err)
		}
	}
	tx := db.Begin()
	if err := tx.Update("calendar", row(cal, "status", "free"), "d", int64(8)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("calendar", "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("calendar", slotRow(cal, "d", 7, "busy")); err != nil {
		t.Fatal(err)
	}
	if got, ok := tx.Get("calendar", "d", int64(8)); !ok || got.Str("status") != "free" || got.Int("hour") != 8 {
		t.Fatalf("Get of an updated row = %v, %v", got, ok)
	}
	if tx.Has("calendar", "d", int64(9)) || !tx.Has("calendar", "d", int64(7)) || !tx.Has("calendar", "d", int64(10)) {
		t.Fatal("Has does not follow the buffer")
	}
	if err := tx.Remove("calendar", "d", int64(9)); err != nil {
		t.Fatalf("Remove of a row the tx already deleted: %v", err)
	}
	if err := tx.Delete("calendar", "d", int64(9)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Delete of a row the tx already deleted: %v", err)
	}
	var seen string
	if !tx.View("calendar", func(r Row) { seen = r.Str("status") }, "d", int64(7)) || seen != "busy" {
		t.Fatalf("View of an inserted row saw %q", seen)
	}
	hours := func(rows []Row) (out []int64) {
		for _, r := range rows {
			out = append(out, r.Int("hour"))
		}
		return out
	}
	txHours := func(status string) (out []int64) {
		tx.ViewEq("calendar", "status", status, func(r Row) { out = append(out, r.Int("hour")) })
		return out
	}
	if got := txHours("busy"); !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("busy hours in the tx = %v, want [7]", got)
	}
	if got := txHours("free"); !reflect.DeepEqual(got, []int64{10, 8}) {
		t.Fatalf("free hours in the tx = %v, want [10 8] (key order)", got)
	}
	if got := hours(cal.selectEq("status", "busy")); !reflect.DeepEqual(got, []int64{8, 9}) {
		t.Fatalf("busy hours in the table before commit = %v", got)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := hours(cal.selectEq("status", "busy")); !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("busy hours after commit = %v", got)
	}
	// Only a row the tx updated is built to be read: inserted, deleted and
	// committed rows are visited where they are.
	tx = db.Begin()
	defer tx.Rollback()
	if err := tx.Insert("calendar", slotRow(cal, "d", 11, "busy")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("calendar", "d", int64(10)); err != nil {
		t.Fatal(err)
	}
	if got := txHours("busy"); !reflect.DeepEqual(got, []int64{11, 7}) {
		t.Fatalf("busy hours in the second tx = %v, want [11 7] (key order)", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { tx.ViewEq("calendar", "status", "free", func(Row) {}) }); allocs != 0 {
		t.Fatalf("ViewEq costs %.0f allocs, want 0", allocs)
	}
	// An updated row is built only when it matches: the update's own
	// column rules it out here, before any copy.
	moved := db.Begin()
	defer moved.Rollback()
	if err := moved.Update("calendar", row(cal, "status", "free"), "d", int64(7)); err != nil {
		t.Fatal(err)
	}
	busy := 0
	if allocs := testing.AllocsPerRun(100, func() { moved.ViewEq("calendar", "status", "busy", func(Row) { busy++ }) }); allocs != 0 || busy != 0 {
		t.Fatalf("ViewEq past an update that no longer matches costs %.0f allocs and visits %d rows, want 0 and 0", allocs, busy)
	}
}

// TestTxAfterCommit: what a unit queued runs in order once the unit is
// applied, with Commit's context, and not at all when the unit conflicts
// or rolls back.
func TestTxAfterCommit(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "step")
	var ran []string
	queue := func(tx *Tx, name string) {
		tx.AfterCommit(func(ctx context.Context) {
			if _, ok := cal.get("d", int64(9)); !ok {
				t.Errorf("%s ran before the unit was applied", name)
			}
			ran = append(ran, name+":"+ctx.Value(key{}).(string))
		})
	}
	tx := db.Begin()
	queue(tx, "first")
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	queue(tx, "second")
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []string{"first:step", "second:step"}) {
		t.Fatalf("ran %v", ran)
	}

	ran = nil
	conflicted := db.Begin()
	queue(conflicted, "conflicted")
	if err := conflicted.Update("calendar", row(cal, "status", "x"), "d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := cal.remove("d", int64(9)); err != nil {
		t.Fatal(err)
	}
	if err := conflicted.Commit(ctx); !errors.Is(err, ErrConflict) || !errors.Is(err, ErrNoRow) {
		t.Fatalf("conflicted commit: %v", err)
	}
	rolled := db.Begin()
	queue(rolled, "rolled back")
	if err := rolled.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ran != nil {
		t.Fatalf("a unit that did not commit ran %v", ran)
	}
}

// TestUnitRerunsOnConflict: a step whose commit loses to a concurrent
// write runs again on the state that beat it, and only the run that
// commits sends anything.
func TestUnitRerunsOnConflict(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	runs, sent := 0, 0
	err := db.Unit(context.Background(), func(u *Tx) error {
		runs++
		u.AfterCommit(func(context.Context) { sent++ })
		if u.Has("calendar", "d", int64(9)) {
			return u.Update("calendar", row(cal, "status", "second"), "d", int64(9))
		}
		if err := u.Insert("calendar", slotRow(cal, "d", 9, "first")); err != nil {
			return err
		}
		// A rival takes the key between this step's read and its commit.
		return cal.insert(slotRow(cal, "d", 9, "rival"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := cal.get("d", int64(9)); runs != 2 || sent != 1 || got.Str("status") != "second" {
		t.Fatalf("runs %d, sends %d, row %v; want 2, 1, status second", runs, sent, got)
	}
	stepErr := errors.New("step refused")
	if err := db.Unit(context.Background(), func(u *Tx) error {
		_ = u.Delete("calendar", "d", int64(9))
		return stepErr
	}); err != stepErr || cal.Count() != 1 {
		t.Fatalf("failed step: err %v, %d rows", err, cal.Count())
	}
}

// TestCommitSpan: a non-empty unit is one store.commit span under the
// step's span; an empty one is none.
func TestCommitSpan(t *testing.T) {
	db, cal, links := twoTableDB(t)
	tr := trace.New("n", trace.WithSampleRate(1))
	ctx, root := tr.StartSpan(context.Background(), "step")
	if err := db.Begin().Commit(ctx); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert("calendar", slotRow(cal, "d", 9, "free")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("links", row(links, "id", "L1", "kind", "k", "prio", int64(1))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	var commits []*trace.Span
	for _, s := range tr.Snapshot() {
		if s.Name == "store.commit" {
			commits = append(commits, s)
		}
	}
	if len(commits) != 1 || commits[0].ParentID != root.SpanID {
		t.Fatalf("store.commit spans = %+v, want one under the step", commits)
	}
	attrs := map[string]string{}
	for _, a := range commits[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["ops"] != "2" || attrs["tables"] != "2" {
		t.Fatalf("store.commit attrs = %v", attrs)
	}
}

// TestRecycledTxDeletesAsFreshOnes: a delete's key lives in its Tx's
// key arena until the Tx is recycled. A unit that deletes composite-key
// rows, loses a commit conflict and runs again, and the units that
// follow it on the same recycled Tx leave the table, its index and the
// log exactly as the same steps leave them on a fresh Tx each run; and
// every run starts with the arena empty.
func TestRecycledTxDeletesAsFreshOnes(t *testing.T) {
	const day = "2003-04-22"
	recycled, fresh := newDriven(), newDriven()
	for _, d := range []*driven{recycled, fresh} {
		for h := int64(0); h < 8; h++ {
			if err := d.tab.insert(slotRow(d.tab, day, h, fmt.Sprintf("s%d", h%4))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// steps[i] is unit i's step on d; run counts its runs.
	steps := []func(d *driven, u *Tx, run int) error{
		func(d *driven, u *Tx, run int) error {
			if run == 1 {
				for _, h := range []int64{0, 1} {
					if err := u.Delete("calendar", day, h); err != nil {
						return err
					}
				}
				if err := u.Remove("calendar", day, int64(2)); err != nil {
					return err
				}
				// A rival deletes a row this run deletes, before its commit.
				return d.tab.remove(day, int64(1))
			}
			for _, h := range []int64{0, 1, 2} {
				if err := u.Remove("calendar", day, h); err != nil {
					return err
				}
			}
			return u.Insert("calendar", slotRow(d.tab, day, 1, "s3"))
		},
		func(d *driven, u *Tx, _ int) error {
			for _, h := range []int64{3, 4} {
				if err := u.Delete("calendar", day, h); err != nil {
					return err
				}
			}
			if err := u.Update("calendar", row(d.tab, "status", "s0"), day, int64(5)); err != nil {
				return err
			}
			return u.Remove("calendar", day, int64(9))
		},
		func(d *driven, u *Tx, _ int) error {
			if err := u.Delete("calendar", day, int64(1)); err != nil {
				return err
			}
			if err := u.Insert("calendar", slotRow(d.tab, day, 3, "s2")); err != nil {
				return err
			}
			return u.Delete("calendar", day, int64(5))
		},
		func(d *driven, u *Tx, _ int) error {
			for _, h := range []int64{7, 3} {
				if err := u.Delete("calendar", day, h); err != nil {
					return err
				}
			}
			return nil
		},
	}
	ctx := context.Background()
	tx := new(Tx)
	for i, step := range steps {
		runs := 0
		err := tx.unit(ctx, recycled.db, func(u *Tx) error {
			if len(u.keys) != 0 {
				t.Fatalf("unit %d run %d starts with %d bytes of keys", i, runs+1, len(u.keys))
			}
			runs++
			return step(recycled, u, runs)
		})
		if err != nil {
			t.Fatalf("unit %d on a recycled Tx: %v", i, err)
		}
		for run := 1; ; run++ {
			u := fresh.db.Begin()
			if err := step(fresh, u, run); err != nil {
				t.Fatalf("unit %d run %d on a fresh Tx: %v", i, run, err)
			}
			if err = u.Commit(ctx); !errors.Is(err, ErrConflict) {
				if err != nil || run != runs {
					t.Fatalf("unit %d: %d runs on fresh Txs (last %v), %d on a recycled one", i, run, err, runs)
				}
				break
			}
		}
	}
	if !reflect.DeepEqual(recycled.state(), fresh.state()) {
		t.Fatalf("state: recycled Tx %v, fresh Txs %v", recycled.state(), fresh.state())
	}
	if !reflect.DeepEqual(recycled.log.units, fresh.log.units) {
		t.Fatalf("log: recycled Tx %v, fresh Txs %v", recycled.log.units, fresh.log.units)
	}
	if _, ok := recycled.tab.get(day, int64(6)); !ok || recycled.tab.Count() != 1 {
		t.Fatalf("%d rows left, want the one at hour 6", recycled.tab.Count())
	}
}

// TestUnitStartsEmpty: Unit recycles its Tx, and a step always starts
// from an empty one: no op and no AfterCommit function of a step that
// failed, of a run that lost a commit conflict and was run again, or of a
// unit that ended in ErrTxDone. Eight writers share the pool meanwhile.
func TestUnitStartsEmpty(t *testing.T) {
	db, cal, _ := twoTableDB(t)
	ctx := context.Background()
	check := func(u *Tx) {
		t.Helper()
		if u.done || len(u.ops) != 0 || len(u.at) != 0 || len(u.after) != 0 {
			t.Fatalf("a step starts with done=%v, %d ops, %d keys, %d AfterCommit functions", u.done, len(u.ops), len(u.at), len(u.after))
		}
	}
	ran := 0
	queue := func(u *Tx) { u.AfterCommit(func(context.Context) { ran++ }) }
	boom := errors.New("boom")

	// A step that fails.
	if err := db.Unit(ctx, func(u *Tx) error {
		check(u)
		queue(u)
		_ = u.Insert("calendar", slotRow(cal, "d", 1, "busy"))
		return boom
	}); err != boom {
		t.Fatalf("failed step: %v", err)
	}
	// A commit conflict: a direct insert takes the key the first run
	// inserts, and the second run starts empty and updates it instead.
	runs := 0
	if err := db.Unit(ctx, func(u *Tx) error {
		check(u)
		runs++
		queue(u)
		if runs > 1 {
			return u.Update("calendar", row(cal, "status", "free"), "d", int64(2))
		}
		if err := u.Insert("calendar", slotRow(cal, "d", 2, "busy")); err != nil {
			return err
		}
		return cal.insert(slotRow(cal, "d", 2, "busy"))
	}); err != nil || runs != 2 || ran != 1 {
		t.Fatalf("conflicted unit: %v after %d runs, %d AfterCommit functions ran, want nil, 2 and 1", err, runs, ran)
	}
	// A unit the step commits itself ends in ErrTxDone, as does a write
	// its AfterCommit function tries.
	var late error
	if err := db.Unit(ctx, func(u *Tx) error {
		check(u)
		u.AfterCommit(func(ctx context.Context) { late = u.Insert("calendar", slotRow(cal, "d", 3, "busy")) })
		return u.Commit(ctx)
	}); !errors.Is(err, ErrTxDone) || !errors.Is(late, ErrTxDone) {
		t.Fatalf("a finished unit: %v, late write %v, want ErrTxDone twice", err, late)
	}

	var wg sync.WaitGroup
	var ranAll atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				day := fmt.Sprintf("w%d", w)
				err := db.Unit(ctx, func(u *Tx) error {
					if u.done || len(u.ops)+len(u.at)+len(u.after) != 0 {
						return errors.New("a step started with a used Tx")
					}
					u.AfterCommit(func(context.Context) { ranAll.Add(1) })
					if i%5 == 4 {
						return boom
					}
					return u.Insert("calendar", slotRow(cal, day, int64(i), "busy"))
				})
				if err != nil && err != boom {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ranAll.Load(); got != 8*40 {
		t.Fatalf("%d AfterCommit functions ran, want %d", got, 8*40)
	}
	if n := cal.Count(); n != 1+8*40 {
		t.Fatalf("%d rows, want %d", n, 1+8*40)
	}
}
