package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/store"
)

// CSV flat-file support over any store.Table: a header row of column
// names in schema order, then one row per record in primary-key order.
// A device keeps its calendar as a plain text file and still takes part
// in SyD coordination; the deviceware hides the difference from remote
// callers.

// exportCSV writes the table as CSV.
func exportCSV(t *store.Table, w io.Writer) error {
	cols := t.Schema().Columns
	cw := csv.NewWriter(w)
	rec := make([]string, len(cols))
	for i, c := range cols {
		rec[i] = c.Name
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	for _, r := range t.Select(nil) {
		for i, c := range cols {
			rec[i] = encodeCSVValue(r, c)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
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
// header) into the table, converting each cell to its column's type.
// A row whose key already exists is updated.
func importCSV(t *store.Table, r io.Reader) error {
	schema := t.Schema()
	types := make(map[string]store.ColType, len(schema.Columns))
	for _, c := range schema.Columns {
		types[c.Name] = c.Type
	}
	keyAt := make(map[string]int, len(schema.Key))
	for i, k := range schema.Key {
		keyAt[k] = i
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
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("csv line %d: %w", line, err)
		}
		// The key columns name the row; the others are what an update
		// of an existing row changes.
		row := t.NewRow()
		key := make([]any, len(schema.Key))
		for i, h := range header {
			if i >= len(rec) {
				break
			}
			v, err := decodeCSVValue(types[h], rec[i])
			if err != nil {
				return fmt.Errorf("csv line %d column %s: %w", line, h, err)
			}
			if k, ok := keyAt[h]; ok {
				key[k] = v
			} else {
				row.Set(h, v)
			}
		}
		for i, k := range schema.Key {
			if key[i] == nil {
				return fmt.Errorf("csv line %d: no value for key column %q", line, k)
			}
		}
		if !t.Has(key...) {
			for i, k := range schema.Key {
				row.Set(k, key[i])
			}
			err = t.Insert(row)
		} else if row.Len() > 0 {
			err = t.Update(row, key...)
		}
		if err != nil {
			return fmt.Errorf("csv line %d: %w", line, err)
		}
	}
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

// loadCSVFile reads path into the table; a missing file is not an
// error (a fresh device).
func loadCSVFile(t *store.Table, path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return importCSV(t, f)
}
