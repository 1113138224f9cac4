package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// snapshotRows captures a table's content keyed by primary key.
func snapshotRows(t *Table) map[string]Row {
	out := map[string]Row{}
	for _, r := range t.selectWhere(nil) {
		_, k, _ := t.insertable(r)
		out[string(k)] = r
	}
	return out
}

// TestTxRollbackPropertyRestoresExactState: apply a random sequence of
// inserts/updates/deletes through a transaction and roll it back — the
// table must be byte-for-byte identical to its state before Begin.
func TestTxRollbackPropertyRestoresExactState(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 40 {
			opsRaw = opsRaw[:40]
		}
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		tab := db.MustCreateTable(calendarSchema())
		// Seed some committed rows.
		for h := int64(0); h < 6; h++ {
			if err := tab.insert(slotRow(tab, "d", h, fmt.Sprintf("s%d", rng.Intn(3)))); err != nil {
				return false
			}
		}
		before := snapshotRows(tab)

		tx := db.Begin()
		for _, op := range opsRaw {
			h := int64(op % 12) // half exist, half don't
			switch op % 3 {
			case 0:
				_ = tx.Insert("calendar", slotRow(tab, "d", h, "txrow"))
			case 1:
				_ = tx.Update("calendar", row(tab, "status", fmt.Sprintf("u%d", op)), "d", h)
			case 2:
				_ = tx.Delete("calendar", "d", h)
			}
		}
		if err := tx.Rollback(); err != nil {
			return false
		}
		after := snapshotRows(tab)
		return reflect.DeepEqual(before, after)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestorePropertyIdentity: snapshot/restore preserves every
// row of a randomly populated database.
func TestSnapshotRestorePropertyIdentity(t *testing.T) {
	f := func(hours []uint8, statuses []uint8) bool {
		db := NewDB()
		tab := db.MustCreateTable(calendarSchema())
		seen := map[int64]bool{}
		for i, h := range hours {
			k := int64(h)
			if seen[k] {
				continue
			}
			seen[k] = true
			st := "free"
			if i < len(statuses) {
				st = fmt.Sprintf("s%d", statuses[i]%5)
			}
			r := slotRow(tab, "d", k, st)
			r.SetTime("updated", time.Date(2003, 4, int(h%27)+1, 0, 0, 0, 0, time.UTC))
			if err := tab.insert(r); err != nil {
				return false
			}
		}
		var buf writerBuffer
		if err := db.Snapshot(&buf); err != nil {
			return false
		}
		db2 := NewDB()
		if err := db2.Restore(&buf); err != nil {
			return false
		}
		tab2, err := db2.Table("calendar")
		if err != nil {
			return false
		}
		return reflect.DeepEqual(snapshotRows(tab), snapshotRows(tab2))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// writerBuffer aliases bytes.Buffer for the property closures.
type writerBuffer = bytes.Buffer

// TestTxViewEqProperty: after every op of a random sequence of buffered
// inserts, updates and deletes, ViewEq visits, in key order, the rows a
// brute-force reference lists: the committed rows overlaid with the tx's
// effective rows, those holding the value. It probes an indexed column
// (status, when indexed) and an unindexed one (meeting), with values set,
// set to "" and left unset.
func TestTxViewEqProperty(t *testing.T) {
	pick := func(rng *rand.Rand, prefix string) string {
		if n := rng.Intn(4); n < 3 {
			return fmt.Sprint(prefix, n)
		}
		return ""
	}
	f := func(seed int64, indexed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		tab := db.MustCreateTable(calendarSchema())
		if indexed {
			if err := tab.CreateIndex("status"); err != nil {
				t.Fatal(err)
			}
		}
		model := map[rowKey]Row{} // every row as the tx should see it
		keyOf := func(r Row) rowKey { k, _ := r.key(); return k }
		for h := int64(0); h < 8; h++ {
			if rng.Intn(2) == 0 {
				continue
			}
			r := row(tab, "day", "d", "hour", h, "status", pick(rng, "s"), "meeting", pick(rng, "m"))
			if err := tab.insert(r); err != nil {
				t.Fatal(err)
			}
			model[keyOf(r)] = r
		}
		tx := db.Begin()
		defer tx.Rollback()
		for i := 0; i < 30; i++ {
			h := rng.Int63n(10)
			probe := row(tab, "day", "d", "hour", h)
			k := keyOf(probe)
			_, had := model[k]
			var err error
			var want error // what the model says the op answers
			switch rng.Intn(3) {
			case 0:
				r := row(tab, "day", "d", "hour", h, "status", pick(rng, "s"))
				if rng.Intn(2) == 0 {
					r.SetStr("meeting", pick(rng, "m"))
				}
				if err = tx.Insert("calendar", r); !had {
					model[k] = r
				} else {
					want = ErrDupKey
				}
			case 1:
				ch := tab.NewRow()
				if rng.Intn(2) == 0 {
					ch.SetStr("status", pick(rng, "s"))
				} else {
					ch.SetStr("meeting", pick(rng, "m"))
				}
				if err = tx.Update("calendar", ch, "d", h); had {
					model[k] = merged(model[k], ch)
				} else {
					want = ErrNoRow
				}
			case 2:
				err = tx.Remove("calendar", "d", h)
				delete(model, k)
			}
			if !errors.Is(err, want) || (want == nil) != (err == nil) {
				t.Errorf("op %d at hour %d: %v, want %v", i, h, err, want)
				return false
			}
			for _, col := range []string{"status", "meeting"} {
				for _, v := range []string{"s0", "s1", "m0", "m2", ""} {
					var want []rowKey
					for k, r := range model {
						if p := tab.l.index[col]; r.holds(p, scalar{s: v}) {
							want = append(want, k)
						}
					}
					slices.Sort(want)
					var wantRows, gotRows []string
					for _, k := range want {
						wantRows = append(wantRows, model[k].String())
					}
					tx.ViewEq("calendar", col, v, func(r Row) { gotRows = append(gotRows, r.String()) })
					if !reflect.DeepEqual(gotRows, wantRows) {
						t.Errorf("indexed=%v, after op %d: ViewEq(%s = %q) visits %v, want %v", indexed, i, col, v, gotRows, wantRows)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}
