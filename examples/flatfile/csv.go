package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// CSV flat-file support over any store.Table: a header row of column
// names in schema order, then one row per record in primary-key order.
// A device keeps its calendar as a plain text file and still takes part
// in SyD coordination; the deviceware hides the difference from remote
// callers.

// exportCSV writes the table as CSV, its rows in the order of their key
// cells' text (the order the store encodes keys in).
func exportCSV(t *store.Table, w io.Writer) error {
	schema := t.Schema()
	cols := schema.Columns
	keyAt := make([]int, len(schema.Key))
	rec := make([]string, len(cols))
	for i, c := range cols {
		rec[i] = c.Name
		if k := slices.Index(schema.Key, c.Name); k >= 0 {
			keyAt[k] = i
		}
	}
	var recs [][]string
	t.ViewAll(func(r store.Row) {
		rec := make([]string, len(cols))
		for i, c := range cols {
			rec[i] = encodeCSVValue(r, c)
		}
		recs = append(recs, rec)
	})
	slices.SortFunc(recs, func(a, b []string) int {
		for _, i := range keyAt {
			if c := strings.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	cw := csv.NewWriter(w)
	if err := cw.Write(rec); err != nil {
		return err
	}
	if err := cw.WriteAll(recs); err != nil {
		return err
	}
	return cw.Error()
}

// encodeCSVValue formats r's column c; an unset column is empty.
func encodeCSVValue(r store.Row, c store.Column) string {
	if !r.Has(c.Name) {
		return ""
	}
	switch c.Type {
	case store.String:
		return r.Str(c.Name)
	case store.Int:
		return strconv.FormatInt(r.Int(c.Name), 10)
	case store.Float:
		return strconv.FormatFloat(r.Float(c.Name), 'g', -1, 64)
	case store.Bool:
		return strconv.FormatBool(r.Bool(c.Name))
	case store.Time:
		return r.Time(c.Name).Format(time.RFC3339Nano)
	}
	return ""
}

// importCSV reads CSV written by exportCSV (or by hand with the same
// header) into the named table of db, converting each cell to its
// column's type. A row whose key already exists is updated. The file is
// one unit: a bad line leaves the table as it was.
func importCSV(ctx context.Context, db *store.DB, table string, r io.Reader) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	types := make(map[string]store.ColType, len(schema.Columns))
	for _, c := range schema.Columns {
		types[c.Name] = c.Type
	}
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("csv header: %w", err)
	}
	for _, h := range header {
		if _, ok := types[h]; !ok {
			return fmt.Errorf("%w: csv column %q", store.ErrBadColumn, h)
		}
	}
	recs, err := cr.ReadAll()
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	return db.Unit(ctx, func(u *store.Tx) error {
		for n, rec := range recs {
			// The key columns name the row; the others are what an
			// update of an existing row changes.
			row := t.NewRow()
			key := make([]any, len(schema.Key))
			for i, h := range header[:min(len(header), len(rec))] {
				v, err := decodeCSVValue(types[h], rec[i])
				if err != nil {
					return fmt.Errorf("csv line %d column %s: %w", n+2, h, err)
				}
				if k := slices.Index(schema.Key, h); k >= 0 {
					key[k] = v
				} else {
					row.Set(h, v)
				}
			}
			for i, k := range schema.Key {
				if key[i] == nil {
					return fmt.Errorf("csv line %d: no value for key column %q", n+2, k)
				}
			}
			var err error
			if !u.Has(table, key...) {
				for i, k := range schema.Key {
					row.Set(k, key[i])
				}
				err = u.Insert(table, row)
			} else if row.Len() > 0 {
				err = u.Update(table, row, key...)
			}
			if err != nil {
				return fmt.Errorf("csv line %d: %w", n+2, err)
			}
		}
		return nil
	})
}

func decodeCSVValue(ct store.ColType, s string) (any, error) {
	switch ct {
	case store.String:
		return s, nil
	case store.Int:
		if s == "" {
			return int64(0), nil
		}
		return strconv.ParseInt(s, 10, 64)
	case store.Float:
		if s == "" {
			return float64(0), nil
		}
		return strconv.ParseFloat(s, 64)
	case store.Bool:
		if s == "" {
			return false, nil
		}
		return strconv.ParseBool(s)
	case store.Time:
		if s == "" {
			return time.Time{}, nil
		}
		return time.Parse(time.RFC3339Nano, s)
	}
	return nil, store.ErrBadType
}

// saveCSVFile writes the table to path atomically (write a temporary
// file, then rename it).
func saveCSVFile(t *store.Table, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := exportCSV(t, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadCSVFile reads path into the named table of db; a missing file is
// not an error (a fresh device).
func loadCSVFile(ctx context.Context, db *store.DB, table, path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return importCSV(ctx, db, table, f)
}
