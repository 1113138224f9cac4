package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// refOp and refRecord are opDoc and record as they were before rows
// were typed: the shape json.Marshal wrote every tx record in.
type refOp struct {
	Table string         `json:"table"`
	Op    int            `json:"op"`
	Row   map[string]any `json:"row,omitempty"`
	Key   []any          `json:"key,omitempty"`
}

type refRecord struct {
	LSN  uint64  `json:"lsn"`
	Kind string  `json:"kind"`
	Ops  []refOp `json:"ops,omitempty"`
}

// refValue is column c of r in the map form: the typed value, a time as
// its RFC 3339 text.
func refValue(c store.Column, r store.Row) any {
	switch c.Type {
	case store.String:
		return r.Str(c.Name)
	case store.Int:
		return r.Int(c.Name)
	case store.Bool:
		return r.Bool(c.Name)
	case store.Float:
		return r.Float(c.Name)
	}
	return r.Time(c.Name).Format(time.RFC3339Nano)
}

// mapForm is r, a row of a table of schema s, as the map of its set
// columns the store kept before rows were typed.
func mapForm(s store.Schema, r store.Row) map[string]any {
	var m map[string]any
	for _, c := range s.Columns {
		if r.Has(c.Name) {
			if m == nil {
				m = map[string]any{}
			}
			m[c.Name] = refValue(c, r)
		}
	}
	return m
}

// keyForm is the key values r sets, in key order, as a LoggedOp held
// them before rows were typed.
func keyForm(s store.Schema, r store.Row) []any {
	var key []any
	for _, k := range s.Key {
		for _, c := range s.Columns {
			if c.Name == k && r.Has(k) {
				key = append(key, refValue(c, r))
			}
		}
	}
	return key
}

// marshalTx is the encoding txBody replaced, kept as its oracle: build
// the record of the ops' map forms and json.Marshal it. schemas[i] is
// the schema of ops[i]'s rows.
func marshalTx(lsn uint64, ops []store.LoggedOp, schemas []store.Schema) ([]byte, error) {
	rec := refRecord{LSN: lsn, Kind: kindTx}
	for i, op := range ops {
		rec.Ops = append(rec.Ops, refOp{
			Table: op.Table, Op: int(op.Op),
			Row: mapForm(schemas[i], op.Row), Key: keyForm(schemas[i], op.Key),
		})
	}
	return json.Marshal(rec)
}

// rowOf builds a row of t from the map form: column name to value.
func rowOf(t *store.Table, m map[string]any) store.Row {
	r := t.NewRow()
	for c, v := range m {
		r.Set(c, v)
	}
	return r
}

// rowIn is rowOf for the table db names.
func rowIn(db *store.DB, table string, m map[string]any) store.Row {
	t, err := db.Table(table)
	if err != nil {
		panic(err)
	}
	return rowOf(t, m)
}

// appendTx is the payload the log writes for ops at lsn.
func appendTx(lsn uint64, ops []store.LoggedOp) ([]byte, error) {
	body, err := txBody(nil, ops)
	if err != nil {
		return nil, err
	}
	return withLSN(body, lsn), nil
}

func sameEncoding(t *testing.T, lsn uint64, ops []store.LoggedOp, schemas []store.Schema) {
	t.Helper()
	want, wantErr := marshalTx(lsn, ops, schemas)
	got, gotErr := appendTx(lsn, ops)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error = %v, json.Marshal says %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("append encoder differs from json.Marshal\n got %s\nwant %s", got, want)
	}
}

// FuzzTxRecordEncoding: whatever the tables, columns and values, the
// append encoder writes the bytes json.Marshal wrote for the same unit,
// and fails where it failed.
func FuzzTxRecordEncoding(f *testing.F) {
	f.Add(uint64(1), "cal_slots", "meeting", "M-1", int64(9), true, 1.5, int64(0), 0, uint8(0))
	f.Add(uint64(math.MaxUint64), "t<>&", "col\"\\", "a b c\xff\x00\b\f\n\r\t\x7f", int64(math.MinInt64), false, math.NaN(), int64(1<<40), -7*3600, uint8(1))
	f.Add(uint64(0), "", "", "", int64(math.MaxInt64), false, math.Inf(-1), int64(-1), 5*3600+1800, uint8(2))
	f.Add(uint64(77), "SyD_Link", "doc", `{"id":"M","title":"q&a <b>"}`, int64(-1), true, -0.0, int64(999999999), 0, uint8(3))
	f.Add(uint64(9), "t", "c", "héllo wörld ✓", int64(255), true, 1e21, int64(123456789), 14*3600, uint8(4))
	f.Add(uint64(5), "f", "b", "x", int64(3), false, 1e-7, int64(5), 0, uint8(7))

	f.Fuzz(func(t *testing.T, lsn uint64, table, col, s string, n int64, b bool, fl float64, nanos int64, zone int, shape uint8) {
		ts := time.Unix(n%(1<<33), nanos%1e9).In(time.FixedZone("z", zone%(14*3600)))
		switch col {
		case "", "b", "t", "f": // a name another column has, or none
			col = "c" + col
		}
		// One column of each type, keyed three ways: by (col, col1) for
		// the row ops, by (t, b) and by f for keys of the other types.
		db := store.NewDB()
		table3 := func(name string, key ...string) (*store.Table, store.Schema) {
			sch := store.Schema{Name: name, Key: key, Columns: []store.Column{
				{Name: col, Type: store.String}, {Name: col + "1", Type: store.Int},
				{Name: "b", Type: store.Bool}, {Name: "t", Type: store.Time}, {Name: "f", Type: store.Float},
			}}
			tab, err := db.CreateTable(sch)
			if err != nil {
				t.Fatal(err)
			}
			return tab, sch
		}
		ta, sa := table3("a", col, col+"1")
		tk, sk := table3("k", "t", "b")
		tf, sf := table3("f", "f")

		row := rowOf(ta, map[string]any{col: s, col + "1": n, "b": b, "t": ts})
		if shape&1 != 0 {
			row.SetFloat("f", fl)
		}
		ops := []store.LoggedOp{
			{Table: table, Op: store.OpInsert, Row: row},
			{Table: table, Op: store.OpUpdate, Row: rowOf(ta, map[string]any{col: s}), Key: rowOf(ta, map[string]any{col: s, col + "1": n})},
			{Table: s, Op: store.OpDelete, Key: rowOf(tk, map[string]any{"t": ts, "b": b})},
			{Table: table, Op: store.OpUpdate, Row: ta.NewRow()},
			{Table: table, Op: store.OpDelete},
		}
		schemas := []store.Schema{sa, sa, sk, sa, sa}
		switch shape >> 1 % 4 {
		case 1:
			ops = ops[:1]
		case 2:
			ops = nil
		case 3:
			ops = append(ops, store.LoggedOp{Table: "odd", Op: store.OpInsert, Row: rowOf(tf, map[string]any{"f": fl, "b": b}), Key: rowOf(tf, map[string]any{"f": fl})})
			schemas = append(schemas, sf)
		}
		sameEncoding(t, lsn, ops, schemas)
	})
}

// TestTxRecordEncodingAllocs pins a logged unit, one row or four, at no
// allocation once the log is warm: the body is encoded into a recycled
// pending's buffer, the pending, its channel and its ack are recycled,
// and the flusher frames each batch into a reused buffer and swaps its
// queue with a spare (json.Marshal of the opDoc record took 21 and 54,
// the append encoder with a pending per unit 8).
func TestTxRecordEncodingAllocs(t *testing.T) {
	d, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	tab, err := store.NewDB().CreateTable(store.Schema{Name: "t", Key: []string{"id"}, Columns: []store.Column{
		{Name: "id", Type: store.String}, {Name: "doc", Type: store.String}, {Name: "n", Type: store.Int}, {Name: "at", Type: store.Time},
	}})
	if err != nil {
		t.Fatal(err)
	}
	op := store.LoggedOp{Table: "t", Op: store.OpInsert, Row: rowOf(tab, map[string]any{"id": "k", "doc": `{"a":"b"}`, "n": int64(4), "at": ts})}
	for _, tc := range []struct {
		ops  []store.LoggedOp
		most float64
	}{{[]store.LoggedOp{op}, 0}, {[]store.LoggedOp{op, op, op, op}, 0}} {
		if raceEnabled {
			tc.most += 2
		}
		got := testing.AllocsPerRun(100, func() {
			if err := d.LogTx(tc.ops)(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.most {
			t.Errorf("logging a %d-row unit costs %.0f allocs, want at most %.0f", len(tc.ops), got, tc.most)
		}
	}
}

// TestReplayLogWrittenByMarshal is the cross-version check: a data
// directory whose log an earlier build wrote — every tx record the
// json.Marshal of record{…} — replays under the append encoder's build,
// and the log that build then writes for the same mutations is the same
// bytes.
func TestReplayLogWrittenByMarshal(t *testing.T) {
	schema := store.Schema{
		Name: "t",
		Columns: []store.Column{
			{Name: "id", Type: store.String}, {Name: "n", Type: store.Int},
			{Name: "ok", Type: store.Bool}, {Name: "at", Type: store.Time}, {Name: "doc", Type: store.String},
		},
		Key: []string{"id", "n"},
	}
	ts := time.Date(2003, 4, 22, 14, 30, 0, 123, time.FixedZone("", -5*3600))
	tab, err := store.NewDB().CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	units := [][]store.LoggedOp{
		{{Table: "t", Op: store.OpInsert, Row: rowOf(tab, map[string]any{"id": "a", "n": int64(1), "ok": true, "at": ts, "doc": `{"q":"<&>"}`})}},
		{
			{Table: "t", Op: store.OpInsert, Row: rowOf(tab, map[string]any{"id": "b", "n": int64(2), "ok": false, "at": ts, "doc": "x y"})},
			{Table: "t", Op: store.OpUpdate, Row: rowOf(tab, map[string]any{"doc": "moved"}), Key: rowOf(tab, map[string]any{"id": "a", "n": int64(1)})},
		},
		{{Table: "t", Op: store.OpDelete, Key: rowOf(tab, map[string]any{"id": "b", "n": int64(2)})}},
	}

	// The parent's log: DDL and tx records alike through json.Marshal.
	old := t.TempDir()
	ddl, err := encodeRecord(record{LSN: 1, Kind: kindTable, Schema: schemaToDoc(schema)})
	if err != nil {
		t.Fatal(err)
	}
	fixture := appendFrame(nil, ddl)
	for i, ops := range units {
		payload, err := marshalTx(uint64(i+2), ops, []store.Schema{schema, schema})
		if err != nil {
			t.Fatal(err)
		}
		fixture = appendFrame(fixture, payload)
	}
	writeSegment(t, old, fixture)

	d, err := Open(old, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.ReplayedRecords != 4 || st.ReplayedTxs != 3 || st.TornTail {
		t.Fatalf("replayed %d records, %d txs, torn %v; want 4, 3, false", st.ReplayedRecords, st.ReplayedTxs, st.TornTail)
	}
	got, _ := d.DB.Table("t")
	row, ok := getRow(got, "a", int64(1))
	if !ok || row.Str("doc") != "moved" || !row.Time("at").Equal(ts) || got.Count() != 1 {
		t.Fatalf("recovered table holds %v (%d rows)", row, got.Count())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The same mutations through this build's store and log.
	fresh := t.TempDir()
	d2, err := Open(fresh, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.DB.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	for _, ops := range units {
		if err := d2.LogTx(ops)(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readSegment(t, fresh); !bytes.Equal(got, fixture) {
		t.Fatalf("this build's log differs from the json.Marshal log\n got %q\nwant %q", got, fixture)
	}
}

func writeSegment(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readSegment(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKeyedRecordsUnchanged: the update and delete records of a table
// with a two-column key, written by units of one op and of several, are the
// bytes an earlier build wrote, which logged a key row built from the
// key values; a unit now logs the row it replaces, of which only the key
// columns are written.
func TestKeyedRecordsUnchanged(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncNone})
	tab, err := d.DB.CreateTable(store.Schema{Name: "t", Key: []string{"id", "n"}, Columns: []store.Column{
		{Name: "doc", Type: store.String}, {Name: "n", Type: store.Int}, {Name: "id", Type: store.String}, {Name: "at", Type: store.Time},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2003, 4, 22, 14, 30, 0, 123, time.UTC)
	ins := func(id string, n int64) store.Row {
		return rowOf(tab, map[string]any{"id": id, "n": n, "doc": "d-" + id, "at": ts})
	}
	doc := func(s string) store.Row { return rowOf(tab, map[string]any{"doc": s}) }
	for _, write := range []func() error{
		func() error { return insertRow(d.DB, tab, ins("a", 1)) },
		func() error { return insertRow(d.DB, tab, ins("b", -2)) },
		func() error { return updateRow(d.DB, tab, doc("moved"), "a", int64(1)) },
		func() error { return deleteRow(d.DB, tab, "b", int64(-2)) },
		func() error {
			return d.DB.Unit(context.Background(), func(u *store.Tx) error {
				if err := u.Insert("t", ins("c", 3)); err != nil {
					return err
				}
				if err := u.Update("t", doc("again"), "c", int64(3)); err != nil {
					return err
				}
				if err := u.Update("t", doc("twice"), "a", int64(1)); err != nil {
					return err
				}
				return u.Delete("t", "a", int64(1))
			})
		},
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, d)
	var got []string
	for data := readSegment(t, dir); len(data) > 0; {
		payload, n, err := nextFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		got, data = append(got, string(payload)), data[n:]
	}
	want := []string{
		`{"lsn":1,"kind":"table","schema":{"name":"t","columns":[{"name":"doc","type":0},{"name":"n","type":1},{"name":"id","type":0},{"name":"at","type":4}],"key":["id","n"]}}`,
		`{"lsn":2,"kind":"tx","ops":[{"table":"t","op":0,"row":{"at":"2003-04-22T14:30:00.000000123Z","doc":"d-a","id":"a","n":1}}]}`,
		`{"lsn":3,"kind":"tx","ops":[{"table":"t","op":0,"row":{"at":"2003-04-22T14:30:00.000000123Z","doc":"d-b","id":"b","n":-2}}]}`,
		`{"lsn":4,"kind":"tx","ops":[{"table":"t","op":1,"row":{"doc":"moved"},"key":["a",1]}]}`,
		`{"lsn":5,"kind":"tx","ops":[{"table":"t","op":2,"key":["b",-2]}]}`,
		`{"lsn":6,"kind":"tx","ops":[{"table":"t","op":0,"row":{"at":"2003-04-22T14:30:00.000000123Z","doc":"d-c","id":"c","n":3}},` +
			`{"table":"t","op":1,"row":{"doc":"again"},"key":["c",3]},{"table":"t","op":1,"row":{"doc":"twice"},"key":["a",1]},{"table":"t","op":2,"key":["a",1]}]}`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
