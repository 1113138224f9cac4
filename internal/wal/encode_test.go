package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

// marshalTx is the encoding txBody replaced, kept as its oracle: build
// the record of opDocs and json.Marshal it.
func marshalTx(lsn uint64, ops []store.LoggedOp) ([]byte, error) {
	rec := record{LSN: lsn, Kind: kindTx}
	for _, op := range ops {
		doc := opDoc{Table: op.Table, Op: int(op.Op)}
		if op.Row != nil {
			doc.Row = make(map[string]any, len(op.Row))
			for c, v := range op.Row {
				doc.Row[c] = store.EncodeValue(v)
			}
		}
		for _, v := range op.Key {
			doc.Key = append(doc.Key, store.EncodeValue(v))
		}
		rec.Ops = append(rec.Ops, doc)
	}
	return encodeRecord(rec)
}

// appendTx is the payload the log writes for ops at lsn.
func appendTx(lsn uint64, ops []store.LoggedOp) ([]byte, error) {
	body, err := txBody(ops)
	if err != nil {
		return nil, err
	}
	return withLSN(body, lsn), nil
}

func sameEncoding(t *testing.T, lsn uint64, ops []store.LoggedOp) {
	t.Helper()
	want, wantErr := marshalTx(lsn, ops)
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
	f.Add(uint64(math.MaxUint64), "t<>&", "col\"\\", "a b c\xff\x00\b\f\n\r\t\x7f", int64(math.MinInt64), false, math.NaN(), int64(1<<40), -7*3600, uint8(1))
	f.Add(uint64(0), "", "", "", int64(math.MaxInt64), false, math.Inf(-1), int64(-1), 5*3600+1800, uint8(2))
	f.Add(uint64(77), "SyD_Link", "doc", `{"id":"M","title":"q&a <b>"}`, int64(-1), true, -0.0, int64(999999999), 0, uint8(3))
	f.Add(uint64(9), "t", "c", "héllo wörld ✓", int64(255), true, 1e21, int64(123456789), 14*3600, uint8(4))

	f.Fuzz(func(t *testing.T, lsn uint64, table, col, s string, n int64, b bool, fl float64, nanos int64, zone int, shape uint8) {
		ts := time.Unix(n%(1<<33), nanos%1e9).In(time.FixedZone("z", zone%(14*3600)))
		row := store.Row{col: s, col + "1": n, "b": b, "t": ts}
		if shape&1 != 0 {
			row["f"] = fl
		}
		ops := []store.LoggedOp{
			{Table: table, Op: store.OpInsert, Row: row},
			{Table: table, Op: store.OpUpdate, Row: store.Row{col: s}, Key: []any{s, n}},
			{Table: s, Op: store.OpDelete, Key: []any{ts, b}},
			{Table: table, Op: store.OpUpdate, Row: store.Row{}, Key: []any{}},
			{Table: table, Op: store.OpDelete},
		}
		switch shape >> 1 % 4 {
		case 1:
			ops = ops[:1]
		case 2:
			ops = nil
		case 3:
			ops = append(ops, store.LoggedOp{Table: "odd", Op: store.OpInsert, Row: store.Row{"nil": nil, "int": int(n), "f": fl}, Key: []any{fl}})
		}
		sameEncoding(t, lsn, ops)
	})
}

// TestTxRecordEncodingAllocs pins what the append encoder is for: a
// one-row unit and a four-row unit cost a fixed handful of allocations
// to log (json.Marshal of the opDoc record took 21 and 54).
func TestTxRecordEncodingAllocs(t *testing.T) {
	d, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	op := store.LoggedOp{Table: "t", Op: store.OpInsert, Row: store.Row{"id": "k", "doc": `{"a":"b"}`, "n": int64(4), "at": ts}}
	for _, tc := range []struct {
		ops  []store.LoggedOp
		most float64
	}{{[]store.LoggedOp{op}, 10}, {[]store.LoggedOp{op, op, op, op}, 10}} {
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
	units := [][]store.LoggedOp{
		{{Table: "t", Op: store.OpInsert, Row: store.Row{"id": "a", "n": int64(1), "ok": true, "at": ts, "doc": `{"q":"<&>"}`}}},
		{
			{Table: "t", Op: store.OpInsert, Row: store.Row{"id": "b", "n": int64(2), "ok": false, "at": ts, "doc": "x y"}},
			{Table: "t", Op: store.OpUpdate, Row: store.Row{"doc": "moved"}, Key: []any{"a", int64(1)}},
		},
		{{Table: "t", Op: store.OpDelete, Key: []any{"b", int64(2)}}},
	}

	// The parent's log: DDL and tx records alike through json.Marshal.
	old := t.TempDir()
	ddl, err := encodeRecord(record{LSN: 1, Kind: kindTable, Schema: schemaToDoc(schema)})
	if err != nil {
		t.Fatal(err)
	}
	fixture := appendFrame(nil, ddl)
	for i, ops := range units {
		payload, err := marshalTx(uint64(i+2), ops)
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
	tab, _ := d.DB.Table("t")
	row, ok := tab.Get("a", int64(1))
	if !ok || row["doc"] != "moved" || !row["at"].(time.Time).Equal(ts) || tab.Count() != 1 {
		t.Fatalf("recovered table holds %v (%d rows)", row, tab.Count())
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
