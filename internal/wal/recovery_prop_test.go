package wal

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// The crash-recovery property: apply a random mutation script through
// a Durable, crash at a random byte offset (truncate or corrupt the
// log tail), recover, and the recovered DB must equal a reference DB
// that replayed exactly the completed atomic units — no more, no less.

// scriptUnit is one atomic unit of the script: it appends exactly one
// WAL record, and applies identically to a plain reference DB.
type scriptUnit struct {
	name  string
	apply func(db *store.DB) error
}

// genScript builds a deterministic random script. The generator tracks
// live keys per table so every op is valid when replayed in order.
func genScript(rng *rand.Rand, nops int) []scriptUnit {
	base := time.Date(2026, 8, 6, 9, 0, 0, 0, time.UTC)
	units := []scriptUnit{
		{name: "ddl t1", apply: func(db *store.DB) error {
			_, err := db.CreateTable(testSchema("t1"))
			return err
		}},
		{name: "ddl t2", apply: func(db *store.DB) error {
			_, err := db.CreateTable(store.Schema{
				Name: "t2",
				Columns: []store.Column{
					{Name: "k", Type: store.String},
					{Name: "n", Type: store.Int},
					{Name: "on", Type: store.Bool},
				},
				Key: []string{"k"},
			})
			return err
		}},
		{name: "idx t1.val", apply: func(db *store.DB) error {
			t, err := db.Table("t1")
			if err != nil {
				return err
			}
			return t.CreateIndex("val")
		}},
	}

	var nextID int64
	live1 := []int64{} // live keys in t1
	live2 := []string{}
	type op struct {
		table string
		kind  store.Op
		id    int64
		key   string
		val   string
		n     int64
	}
	// makeOp draws one valid op and updates the key model.
	makeOp := func() op {
		for {
			switch rng.Intn(6) {
			case 0, 1: // insert t1
				id := nextID
				nextID++
				live1 = append(live1, id)
				return op{table: "t1", kind: store.OpInsert, id: id, val: fmt.Sprintf("v%d", rng.Intn(1000))}
			case 2: // update t1
				if len(live1) == 0 {
					continue
				}
				return op{table: "t1", kind: store.OpUpdate, id: live1[rng.Intn(len(live1))], val: fmt.Sprintf("u%d", rng.Intn(1000))}
			case 3: // delete t1
				if len(live1) == 0 {
					continue
				}
				i := rng.Intn(len(live1))
				id := live1[i]
				live1 = append(live1[:i], live1[i+1:]...)
				return op{table: "t1", kind: store.OpDelete, id: id}
			case 4: // insert t2
				k := fmt.Sprintf("k%d", nextID)
				nextID++
				live2 = append(live2, k)
				return op{table: "t2", kind: store.OpInsert, key: k, n: rng.Int63n(100)}
			default: // update t2
				if len(live2) == 0 {
					continue
				}
				return op{table: "t2", kind: store.OpUpdate, key: live2[rng.Intn(len(live2))], n: rng.Int63n(100)}
			}
		}
	}
	applyOne := func(db *store.DB, o op, via *store.Tx) error {
		row1 := func(o op) store.Row {
			return rowIn(db, "t1", map[string]any{"id": o.id, "val": o.val, "ts": base.Add(time.Duration(o.id) * time.Minute)})
		}
		switch {
		case o.table == "t1" && o.kind == store.OpInsert:
			if via != nil {
				return via.Insert("t1", row1(o))
			}
			t, _ := db.Table("t1")
			return insertRow(db, t, row1(o))
		case o.table == "t1" && o.kind == store.OpUpdate:
			if via != nil {
				return via.Update("t1", rowIn(db, "t1", map[string]any{"val": o.val}), o.id)
			}
			t, _ := db.Table("t1")
			return updateRow(db, t, rowIn(db, "t1", map[string]any{"val": o.val}), o.id)
		case o.table == "t1" && o.kind == store.OpDelete:
			if via != nil {
				return via.Delete("t1", o.id)
			}
			t, _ := db.Table("t1")
			return deleteRow(db, t, o.id)
		case o.table == "t2" && o.kind == store.OpInsert:
			r := rowIn(db, "t2", map[string]any{"k": o.key, "n": o.n, "on": o.n%2 == 0})
			if via != nil {
				return via.Insert("t2", r)
			}
			t, _ := db.Table("t2")
			return insertRow(db, t, r)
		default:
			if via != nil {
				return via.Update("t2", rowIn(db, "t2", map[string]any{"n": o.n}), o.key)
			}
			t, _ := db.Table("t2")
			return updateRow(db, t, rowIn(db, "t2", map[string]any{"n": o.n}), o.key)
		}
	}

	for len(units) < nops {
		if rng.Intn(4) == 0 {
			// Multi-op transaction: 2-4 ops, one atomic record.
			k := 2 + rng.Intn(3)
			ops := make([]op, 0, k)
			for j := 0; j < k; j++ {
				ops = append(ops, makeOp())
			}
			units = append(units, scriptUnit{
				name: fmt.Sprintf("tx(%d)", k),
				apply: func(db *store.DB) error {
					return db.Unit(context.Background(), func(u *store.Tx) error {
						for _, o := range ops {
							if err := applyOne(db, o, u); err != nil {
								return err
							}
						}
						return nil
					})
				},
			})
			continue
		}
		o := makeOp()
		units = append(units, scriptUnit{
			name:  fmt.Sprintf("%s %v", o.table, o.kind),
			apply: func(db *store.DB) error { return applyOne(db, o, nil) },
		})
	}
	return units
}

// secondCycleUnits builds a post-recovery workload that is valid no
// matter where the first crash cut: it touches only fresh high-id rows
// (plus an ensure-table unit, since the first cut may even precede the
// DDL record).
func secondCycleUnits(rng *rand.Rand) []scriptUnit {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	units := []scriptUnit{{name: "c2 ensure t1", apply: func(db *store.DB) error {
		if _, err := db.Table("t1"); err == nil {
			return nil
		}
		_, err := db.CreateTable(testSchema("t1"))
		return err
	}}}
	next := int64(10_000 + rng.Intn(100))
	row := func(db *store.DB, id int64, val string) store.Row {
		return rowIn(db, "t1", map[string]any{"id": id, "val": val, "ts": base})
	}
	for i := 0; i < 8; i++ {
		id := next
		next++
		if i%3 != 2 {
			units = append(units, scriptUnit{
				name: fmt.Sprintf("c2 insert %d", id),
				apply: func(db *store.DB) error {
					t, err := db.Table("t1")
					if err != nil {
						return err
					}
					return insertRow(db, t, row(db, id, "c2"))
				},
			})
			continue
		}
		id2 := next
		next++
		units = append(units, scriptUnit{
			name: fmt.Sprintf("c2 tx %d", id),
			apply: func(db *store.DB) error {
				return db.Unit(context.Background(), func(u *store.Tx) error {
					if err := u.Insert("t1", row(db, id, "a")); err != nil {
						return err
					}
					if err := u.Insert("t1", row(db, id2, "b")); err != nil {
						return err
					}
					return u.Update("t1", rowIn(db, "t1", map[string]any{"val": "c"}), id)
				})
			},
		})
	}
	return units
}

func TestCrashRecoveryProperty(t *testing.T) {
	const seeds = 12
	for seed := int64(0); seed < seeds; seed++ {
		for _, mode := range []string{"truncate", "corrupt"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				units := genScript(rng, 30+rng.Intn(20))

				dir := t.TempDir()
				// A unit's call returns once the write (and fsync) that
				// carries it is done, and units run one at a time, so
				// the file size after each unit is that unit's log
				// boundary.
				d := mustOpen(t, dir, Options{Sync: SyncGroup, SegmentBytes: 1 << 30})
				seg := filepath.Join(dir, segmentName(1))
				boundaries := make([]int64, 0, len(units))
				for _, u := range units {
					if err := u.apply(d.DB); err != nil {
						t.Fatalf("unit %q: %v", u.name, err)
					}
					fi, err := os.Stat(seg)
					if err != nil {
						t.Fatalf("stat after %q: %v", u.name, err)
					}
					boundaries = append(boundaries, fi.Size())
				}
				crash(t, d)

				total := boundaries[len(boundaries)-1]
				cut := rng.Int63n(total + 1)
				switch mode {
				case "truncate":
					if err := os.Truncate(seg, cut); err != nil {
						t.Fatal(err)
					}
				case "corrupt":
					if cut == total {
						cut = total - 1
					}
					data, err := os.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					data[cut] ^= 0x5a
					if err := os.WriteFile(seg, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				// Units wholly at or below the cut survive; the unit
				// containing the cut (and everything after) must not.
				completed := 0
				for _, b := range boundaries {
					if b <= cut {
						completed++
					}
				}

				ref := store.NewDB()
				for _, u := range units[:completed] {
					if err := u.apply(ref); err != nil {
						t.Fatalf("reference unit %q: %v", u.name, err)
					}
				}

				d2 := mustOpen(t, dir, Options{Sync: SyncGroup, SegmentBytes: 1 << 30})
				got := snapshotOf(t, d2.DB)
				want := snapshotOf(t, ref)
				if !bytes.Equal(got, want) {
					t.Fatalf("recovered state diverges after %s at %d/%d (%d/%d units complete)\ngot  %s\nwant %s",
						mode, cut, total, completed, len(units), got, want)
				}

				// Second crash cycle: recovery truncated the tear and
				// appends after it, so another workload + another tear
				// must again lose exactly the incomplete tail — and
				// nothing recovered or committed before it.
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				valid := fi.Size() // post-truncation prefix
				units2 := secondCycleUnits(rng)
				boundaries2 := make([]int64, 0, len(units2))
				for _, u := range units2 {
					if err := u.apply(d2.DB); err != nil {
						t.Fatalf("cycle2 unit %q: %v", u.name, err)
					}
					fi, err := os.Stat(seg)
					if err != nil {
						t.Fatal(err)
					}
					boundaries2 = append(boundaries2, fi.Size())
				}
				crash(t, d2)
				total2 := boundaries2[len(boundaries2)-1]
				cut2 := valid + rng.Int63n(total2-valid+1)
				if mode == "corrupt" && cut2 == total2 {
					cut2 = total2 - 1
				}
				switch mode {
				case "truncate":
					if err := os.Truncate(seg, cut2); err != nil {
						t.Fatal(err)
					}
				case "corrupt":
					data, err := os.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					data[cut2] ^= 0x5a
					if err := os.WriteFile(seg, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				completed2 := 0
				for _, b := range boundaries2 {
					if b <= cut2 {
						completed2++
					}
				}
				for _, u := range units2[:completed2] {
					if err := u.apply(ref); err != nil {
						t.Fatalf("cycle2 reference unit %q: %v", u.name, err)
					}
				}
				d3 := mustOpen(t, dir, Options{})
				defer d3.Close()
				got = snapshotOf(t, d3.DB)
				want = snapshotOf(t, ref)
				if !bytes.Equal(got, want) {
					t.Fatalf("second-crash state diverges after %s at %d/%d (%d/%d units complete)\ngot  %s\nwant %s",
						mode, cut2, total2, completed2, len(units2), got, want)
				}
			})
		}
	}
}
