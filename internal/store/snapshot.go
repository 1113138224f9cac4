package store

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Snapshot serialization: a JSON document holding every table's schema
// and rows, so a device can persist its calendar and link databases
// across restarts (the prototype relied on Oracle's durability; we
// provide explicit save/load).
//
// Snapshots are deterministic: tables, indexes, and rows are emitted in
// sorted order (and a row writes its columns in name order), so two
// snapshots of equal databases are byte-identical. The WAL checkpointer
// relies on this to verify recovery: snapshot(recovered) must equal
// snapshot(reference).

type snapshotDoc[R any] struct {
	Version int                `json:"version"`
	Tables  []snapshotTable[R] `json:"tables"`
}

// snapshotTable is one table: Snapshot writes its rows as []Row, each
// through Row.MarshalJSON, and Restore reads each row's values as the
// raw text it hands to Row.SetJSON.
type snapshotTable[R any] struct {
	Schema  snapshotSchema `json:"schema"`
	Rows    []R            `json:"rows"`
	Indexes []string       `json:"indexes"`
}

type snapshotSchema struct {
	Name    string `json:"name"`
	Columns []struct {
		Name string `json:"name"`
		Type int    `json:"type"`
	} `json:"columns"`
	Key []string `json:"key"`
}

// Snapshot writes the entire database to w as JSON. Output is
// deterministic: tables sorted by name, indexes sorted by column, rows
// sorted by encoded primary key.
func (db *DB) Snapshot(w io.Writer) error {
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].schema.Name < tables[j].schema.Name })

	doc := snapshotDoc[Row]{Version: 1}
	for _, t := range tables {
		st := snapshotTable[Row]{}
		st.Schema.Name = t.schema.Name
		st.Schema.Key = append([]string(nil), t.schema.Key...)
		for _, c := range t.schema.Columns {
			st.Schema.Columns = append(st.Schema.Columns, struct {
				Name string `json:"name"`
				Type int    `json:"type"`
			}{c.Name, int(c.Type)})
		}
		t.mu.RLock()
		for _, idx := range t.indexes {
			st.Indexes = append(st.Indexes, t.l.cols[idx.col].Name)
		}
		keys := make([]string, 0, len(t.rows))
		for k := range t.rows {
			keys = append(keys, string(k))
		}
		sort.Strings(keys)
		for _, k := range keys {
			st.Rows = append(st.Rows, t.rows[rowKey(k)]) // stored rows are replaced, never changed
		}
		t.mu.RUnlock()
		sort.Strings(st.Indexes)
		doc.Tables = append(doc.Tables, st)
	}
	e := json.NewEncoder(w)
	return e.Encode(doc)
}

// Restore loads a Snapshot into a fresh DB. Tables in the snapshot must
// not already exist. Like log replay it applies what it reads without
// logging it: a checkpoint is restored before a log is attached. On
// error, every table this call created is dropped again, so a failed
// restore leaves the DB as it found it instead of half-populated.
func (db *DB) Restore(r io.Reader) (err error) {
	var doc snapshotDoc[map[string]json.RawMessage]
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("store: restore: %w", err)
	}
	if doc.Version != 1 {
		return fmt.Errorf("store: restore: unsupported snapshot version %d", doc.Version)
	}
	var created []string
	defer func() {
		if err != nil {
			db.dropTables(created)
		}
	}()
	for _, st := range doc.Tables {
		s := Schema{Name: st.Schema.Name, Key: st.Schema.Key}
		for _, c := range st.Schema.Columns {
			s.Columns = append(s.Columns, Column{Name: c.Name, Type: ColType(c.Type)})
		}
		t, err := db.addTable(s)
		if err != nil {
			return err
		}
		created = append(created, s.Name)
		for _, enc := range st.Rows {
			row := t.NewRow()
			for c, raw := range enc {
				if err := row.SetJSON(c, raw); err != nil {
					return fmt.Errorf("store: restore %s.%s: %w", s.Name, c, err)
				}
			}
			if err := t.replay(LoggedOp{Table: s.Name, Op: OpInsert, Row: row}); err != nil {
				return err
			}
		}
		for _, col := range st.Indexes {
			if _, err := t.addIndex(col); err != nil {
				return err
			}
		}
	}
	return nil
}
