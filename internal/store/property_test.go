package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// snapshotRows captures a table's content keyed by primary key.
func snapshotRows(t *Table) map[string]Row {
	out := map[string]Row{}
	for _, r := range t.Select(nil) {
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
			if err := tab.Insert(slotRow(tab, "d", h, fmt.Sprintf("s%d", rng.Intn(3)))); err != nil {
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
			if err := tab.Insert(r); err != nil {
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
