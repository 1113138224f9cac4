package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Log replay is a unit's apply minus the log: this file drives random
// one-op units and replays what they logged into a second table.

// recLogger records every unit handed to LogTx.
type recLogger struct{ units [][]LoggedOp }

func (l *recLogger) LogDDLTable(Schema) Ack         { return func() error { return nil } }
func (l *recLogger) LogDDLIndex(string, string) Ack { return func() error { return nil } }
func (l *recLogger) LogTx(ops []LoggedOp) Ack {
	l.units = append(l.units, append([]LoggedOp(nil), ops...))
	return func() error { return nil }
}

// driven is one calendar table with an index and a recording logger.
type driven struct {
	db  *DB
	tab *Table
	log recLogger
}

func newDriven() *driven {
	d := &driven{db: NewDB()}
	d.db.SetLogger(&d.log)
	d.tab = d.db.MustCreateTable(calendarSchema())
	if err := d.tab.CreateIndex("status"); err != nil {
		panic(err)
	}
	return d
}

// keyedOp is a generated write to the calendar table: the op, the
// column, value pairs of its row, and the key values an update or a
// delete names its row by.
type keyedOp struct {
	op  Op
	kv  []any
	key []any
}

// unit writes op as a commit unit of that one op.
func (d *driven) unit(op keyedOp) error {
	return d.db.Unit(context.Background(), func(u *Tx) error {
		switch op.op {
		case OpInsert:
			return u.Insert("calendar", row(d.tab, op.kv...))
		case OpUpdate:
			return u.Update("calendar", row(d.tab, op.kv...), op.key...)
		}
		return u.Delete("calendar", op.key...)
	})
}

// state is everything a reader can see: rows by key, and the index read
// of every status the generator uses.
func (d *driven) state() map[string]any {
	out := map[string]any{"rows": snapshotRows(d.tab), "count": d.tab.Count()}
	for s := 0; s < 4; s++ {
		st := fmt.Sprintf("s%d", s)
		out[st] = d.tab.selectEq("status", st)
	}
	return out
}

// moved is the unit u with its rows rebuilt for d's table, as a log
// decoded into d's DB holds them.
func (d *driven) moved(u []LoggedOp) []LoggedOp {
	out := make([]LoggedOp, len(u))
	for i, op := range u {
		op.Row, op.Key = d.moveRow(op.Row), d.moveRow(op.Key)
		out[i] = op
	}
	return out
}

func (d *driven) moveRow(r Row) Row {
	if r.l == nil {
		return r
	}
	out := d.tab.NewRow()
	for p, c := range r.l.cols {
		if r.set&(1<<p) != 0 {
			q := d.tab.l.index[c.Name]
			out.vals[q], out.set = r.vals[p], out.set|1<<q
		}
	}
	return out
}

var writeSentinels = []error{ErrDupKey, ErrNoRow, ErrKeyImmutable, ErrBadColumn, ErrBadType}

// sentinel names the store error err is, "" for nil.
func sentinel(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range writeSentinels {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other: " + err.Error()
}

// randomOp draws one write over 12 hours of one day, so that about half
// the keyed writes find their row; one in four is malformed.
func randomOp(rng *rand.Rand, raw uint8) keyedOp {
	h := int64(raw % 12)
	st := fmt.Sprintf("s%d", rng.Intn(4))
	key := []any{"d", h}
	switch raw % 8 {
	case 0, 1:
		return keyedOp{OpInsert, slotFields("d", h, st), key}
	case 2, 3:
		return keyedOp{OpUpdate, []any{"status", st, "priority", int64(raw)}, key}
	case 4, 5:
		return keyedOp{OpDelete, nil, key}
	case 6:
		return keyedOp{OpUpdate, []any{"hour", h + 1}, key}
	}
	return keyedOp{OpUpdate, []any{"nope", st}, key}
}

func TestReplayIsTheUnitsApply(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 60 {
			opsRaw = opsRaw[:60]
		}
		rng := rand.New(rand.NewSource(seed))
		a := newDriven()
		written := 0
		for i, raw := range opsRaw {
			op := randomOp(rng, raw)
			n := len(a.log.units)
			if err := a.unit(op); err != nil {
				// A write is refused for a reason the store names, and
				// a refused write changed nothing, so it logged nothing.
				if strings.HasPrefix(sentinel(err), "other") || len(a.log.units) != n {
					t.Logf("op %d %v: refused (%v), logged %d", i, op, err, len(a.log.units)-n)
					return false
				}
				continue
			}
			written++
		}
		// One LogTx of one op per write that happened.
		if len(a.log.units) != written {
			t.Logf("%d writes; log %v", written, a.log.units)
			return false
		}
		for _, u := range a.log.units {
			if len(u) != 1 {
				t.Logf("a unit of one op logged %d ops", len(u))
				return false
			}
		}

		// Replaying that log reproduces the table, silently.
		r := newDriven()
		for _, u := range a.log.units {
			if err := r.db.ApplyLogged(r.moved(u)); err != nil {
				t.Logf("replay %v: %v", u, err)
				return false
			}
		}
		if !reflect.DeepEqual(a.state(), r.state()) {
			t.Logf("state: written %v, replayed %v", a.state(), r.state())
			return false
		}
		if len(r.log.units) != 0 {
			t.Logf("replay logged %v", r.log.units)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestApplyLoggedChecksItsInput: replay skips the log, not the checks a
// corrupt or out-of-order log record must not get past.
func TestApplyLoggedChecksItsInput(t *testing.T) {
	d := newDriven()
	ins := LoggedOp{Table: "calendar", Op: OpInsert, Row: slotRow(d.tab, "d", 9, "s0")}
	if err := d.db.ApplyLogged([]LoggedOp{ins}); err != nil {
		t.Fatal(err)
	}
	before := d.state()
	key, gone := row(d.tab, "day", "d", "hour", int64(9)), row(d.tab, "day", "d", "hour", int64(10))
	for _, c := range []struct {
		name string
		op   LoggedOp
		want error
	}{
		{"duplicate insert", ins, ErrDupKey},
		{"update of a missing row", LoggedOp{Table: "calendar", Op: OpUpdate, Row: row(d.tab, "status", "s1"), Key: gone}, ErrNoRow},
		{"delete of a missing row", LoggedOp{Table: "calendar", Op: OpDelete, Key: gone}, ErrNoRow},
		{"mistyped column", LoggedOp{Table: "calendar", Op: OpUpdate, Row: row(d.tab, "status", int64(1)), Key: key}, ErrBadType},
		{"mistyped inserted column", LoggedOp{Table: "calendar", Op: OpInsert, Row: row(d.tab, "day", "d", "hour", "ten")}, ErrBadType},
		{"unknown column", LoggedOp{Table: "calendar", Op: OpUpdate, Row: row(d.tab, "nope", "x"), Key: key}, ErrBadColumn},
		{"insert without its key", LoggedOp{Table: "calendar", Op: OpInsert, Row: row(d.tab, "day", "d")}, ErrMissingKey},
		{"key column changed", LoggedOp{Table: "calendar", Op: OpUpdate, Row: row(d.tab, "hour", int64(3)), Key: key}, ErrKeyImmutable},
		{"short key", LoggedOp{Table: "calendar", Op: OpDelete, Key: row(d.tab, "day", "d")}, ErrMissingKey},
		{"unknown table", LoggedOp{Table: "nope", Op: OpDelete, Key: key}, ErrNoTable},
	} {
		if err := d.db.ApplyLogged([]LoggedOp{c.op}); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if err := d.db.ApplyLogged([]LoggedOp{{Table: "calendar", Op: Op(9), Key: key}}); err == nil {
		t.Error("unknown op applied")
	}
	if !reflect.DeepEqual(before, d.state()) {
		t.Errorf("refused replays changed the table: %v -> %v", before, d.state())
	}
	if len(d.log.units) != 0 {
		t.Errorf("replay logged %v", d.log.units)
	}
}
