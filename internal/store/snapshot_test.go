package store

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"
	"unicode/utf8"
)

// mapSnapshot is Snapshot as it was written while rows were maps, kept
// as its reference: the same document, with each row the map of its set
// columns (a time as its RFC 3339 text) encoded by encoding/json.
func mapSnapshot(db *DB) ([]byte, error) {
	doc := snapshotDoc[map[string]any]{Version: 1}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		var st snapshotTable[map[string]any]
		st.Schema.Name, st.Schema.Key = name, t.schema.Key
		for _, c := range t.schema.Columns {
			st.Schema.Columns = append(st.Schema.Columns, struct {
				Name string `json:"name"`
				Type int    `json:"type"`
			}{c.Name, int(c.Type)})
		}
		for _, idx := range t.indexes {
			st.Indexes = append(st.Indexes, t.schema.Columns[idx.col].Name)
		}
		sort.Strings(st.Indexes)
		for _, r := range t.selectWhere(nil) {
			m := map[string]any{}
			for _, c := range t.schema.Columns {
				if !r.Has(c.Name) {
					continue
				}
				switch c.Type {
				case String:
					m[c.Name] = r.Str(c.Name)
				case Int:
					m[c.Name] = r.Int(c.Name)
				case Bool:
					m[c.Name] = r.Bool(c.Name)
				case Float:
					m[c.Name] = r.Float(c.Name)
				case Time:
					m[c.Name] = r.Time(c.Name).Format(time.RFC3339Nano)
				}
			}
			st.Rows = append(st.Rows, m)
		}
		doc.Tables = append(doc.Tables, st)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(doc)
	return buf.Bytes(), err
}

// FuzzSnapshotEncoding: whatever the values, Snapshot writes the bytes
// the map rows' encoding/json snapshot wrote, fails where it failed, and
// Restore reads back a database that writes the same snapshot again
// (when s is valid UTF-8: JSON carries an invalid byte as U+FFFD).
func FuzzSnapshotEncoding(f *testing.F) {
	f.Add("M-1", int64(9), true, 1.5, int64(0), 0, uint8(0))
	f.Add("a<b>&\"c\"\\\xff\x00\n ", int64(math.MinInt64), false, math.NaN(), int64(1<<40), -7*3600, uint8(1))
	f.Add("", int64(1)<<62+1, false, math.Inf(-1), int64(-1), 5*3600+1800, uint8(2))
	f.Add("héllo ✓", int64(-1), true, -0.0, int64(999999999), 0, uint8(0x1f))
	f.Add("x", int64(255), true, 1e21, int64(123456789), 14*3600, uint8(0x2a))
	f.Add("y", int64(3), false, 1e-7, int64(5), 0, uint8(0x15))
	f.Fuzz(func(t *testing.T, s string, n int64, b bool, fl float64, nanos int64, zone int, shape uint8) {
		ts := time.Unix(n%(1<<33), nanos%1e9).In(time.FixedZone("z", zone%(14*60)*60)) // RFC 3339 keeps whole minutes
		db := NewDB()
		tab := db.MustCreateTable(Schema{Name: "t", Key: []string{"id"}, Columns: []Column{
			{Name: "id", Type: String}, {Name: "s", Type: String}, {Name: "n", Type: Int},
			{Name: "b", Type: Bool}, {Name: "f", Type: Float}, {Name: "t", Type: Time},
		}})
		if shape&0x20 != 0 {
			if err := tab.CreateIndex("n"); err != nil {
				t.Fatal(err)
			}
		}
		full := row(tab, "id", "full", "s", s, "n", n, "b", b, "f", fl, "t", ts)
		part := row(tab, "id", s+"-part")
		for i, kv := range [][2]any{{"s", s}, {"n", n}, {"b", b}, {"f", fl}, {"t", ts}} {
			if shape&(1<<i) != 0 {
				part.Set(kv[0].(string), kv[1])
			}
		}
		for _, r := range []Row{full, part} {
			if err := tab.insert(r); err != nil {
				t.Fatal(err)
			}
		}
		want, wantErr := mapSnapshot(db)
		var got bytes.Buffer
		err := db.Snapshot(&got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Snapshot error = %v, encoding/json's = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("Snapshot differs from the map rows' snapshot\n got %s\nwant %s", got.Bytes(), want)
		}
		again := NewDB()
		if err := again.Restore(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatal(err)
		}
		var re bytes.Buffer
		if err := again.Snapshot(&re); err != nil || utf8.ValidString(s) && !bytes.Equal(re.Bytes(), got.Bytes()) {
			t.Fatalf("restored database writes %s (%v)\nwant %s", re.Bytes(), err, want)
		}
	})
}
