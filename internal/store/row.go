package store

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/jsonrec"
)

// maxColumns bounds a table's width: a row's set-mask is one uint64.
const maxColumns = 64

// noType is the type of no column: a value of it is set nowhere.
const noType ColType = -1

// Value is one column value. The column's type says which field holds
// it: s for String, n for Int, for Bool (0 or 1) and for Float (its
// IEEE 754 bits), t for Time, l for Strings.
type Value struct {
	s string
	n int64
	t time.Time
	l []string
}

// scalar is a Value less its list, comparable: what an index keys on
// and an equality probe compares. No indexed or probed column is a list.
type scalar struct {
	s string
	n int64
	t time.Time
}

func (v Value) scalar() scalar { return scalar{s: v.s, n: v.n, t: v.t} }

// layout is the shape of a row: a table's columns, how to find one by
// name, and where its primary key sits. Every row of a table shares the
// table's layout.
type layout struct {
	table  string
	cols   []Column
	index  map[string]int
	key    []int // positions of the primary-key columns, in key order
	byName []int // every position, in column-name order: the order JSON writes
}

func newLayout(table string, cols []Column, key []string) *layout {
	l := &layout{table: table, cols: cols, index: make(map[string]int, len(cols))}
	for i, c := range cols {
		l.index[c.Name] = i
		l.byName = append(l.byName, i)
	}
	for _, k := range key {
		l.key = append(l.key, l.index[k])
	}
	sort.Slice(l.byName, func(i, j int) bool { return cols[l.byName[i]].Name < cols[l.byName[j]].Name })
	return l
}

// name is the table l is the layout of, for errors; "" for none.
func (l *layout) name() string {
	if l == nil {
		return ""
	}
	return l.table
}

// Row is one record of a table: its values in schema order in one
// slice, and a mask of the columns that are set. An insert may leave a
// column unset, and an update's row holds only the columns it changes;
// the mask keeps those apart from columns set to their zero value, so
// what is logged and dumped is what was set.
//
// A row is built for its table (Table.NewRow) with the typed setters,
// and read with the typed getters; both find a column by name through
// the table's schema. A setter given a column the table does not have,
// or a value of the wrong type, leaves the row with that error, and the
// insert or update it is handed to returns it. A getter returns the
// zero value for a column that is unset or of another type.
//
// The zero Row is no row: the Row of a logged delete and the Key of a
// logged insert.
type Row struct {
	l    *layout
	vals []Value
	set  uint64
	err  error
}

// NewRow returns an empty row of the table, to be filled with the
// setters and handed to an insert or an update.
func (t *Table) NewRow() Row {
	return Row{l: t.l, vals: make([]Value, len(t.l.cols))}
}

// Len reports how many columns are set.
func (r Row) Len() int { return bits.OnesCount64(r.set) }

// Has reports whether column col is set.
func (r Row) Has(col string) bool {
	_, ok := r.at(col)
	return ok
}

// at returns the position of col when it is set.
func (r Row) at(col string) (int, bool) {
	if r.l == nil {
		return 0, false
	}
	p, ok := r.l.index[col]
	return p, ok && r.set&(1<<p) != 0
}

// typed returns the position of col when it is set and of type ct.
func (r Row) typed(col string, ct ColType) (int, bool) {
	p, ok := r.at(col)
	return p, ok && r.l.cols[p].Type == ct
}

// Str returns the String column col.
func (r Row) Str(col string) string {
	if p, ok := r.typed(col, String); ok {
		return r.vals[p].s
	}
	return ""
}

// Int returns the Int column col.
func (r Row) Int(col string) int64 {
	if p, ok := r.typed(col, Int); ok {
		return r.vals[p].n
	}
	return 0
}

// Bool returns the Bool column col.
func (r Row) Bool(col string) bool {
	if p, ok := r.typed(col, Bool); ok {
		return r.vals[p].n != 0
	}
	return false
}

// Float returns the Float column col.
func (r Row) Float(col string) float64 {
	if p, ok := r.typed(col, Float); ok {
		return math.Float64frombits(uint64(r.vals[p].n))
	}
	return 0
}

// Time returns the Time column col.
func (r Row) Time(col string) time.Time {
	if p, ok := r.typed(col, Time); ok {
		return r.vals[p].t
	}
	return time.Time{}
}

// Strs returns the Strings column col: the stored list, capped so that
// an append to it copies. Write no element of it.
func (r Row) Strs(col string) []string {
	if p, ok := r.typed(col, Strings); ok {
		l := r.vals[p].l
		return l[:len(l):len(l)]
	}
	return nil
}

// put sets col to v, a value of type ct, or keeps why it cannot: the
// first such error is the row's.
func (r *Row) put(col string, ct ColType, v Value) {
	var p int
	ok := r.l != nil
	if ok {
		p, ok = r.l.index[col]
	}
	switch {
	case r.err != nil:
	case !ok:
		r.err = fmt.Errorf("%w: %q in table %s", ErrBadColumn, col, r.l.name())
	case r.l.cols[p].Type != ct:
		r.err = fmt.Errorf("%w: column %s.%s wants %s, got %s", ErrBadType, r.l.table, col, r.l.cols[p].Type, ct)
	default:
		r.vals[p] = v
		r.set |= 1 << p
	}
}

// SetStr sets the String column col.
func (r *Row) SetStr(col, v string) { r.put(col, String, Value{s: v}) }

// SetInt sets the Int column col.
func (r *Row) SetInt(col string, v int64) { r.put(col, Int, Value{n: v}) }

// SetBool sets the Bool column col.
func (r *Row) SetBool(col string, v bool) { r.put(col, Bool, boolValue(v)) }

// SetFloat sets the Float column col.
func (r *Row) SetFloat(col string, v float64) {
	r.put(col, Float, Value{n: int64(math.Float64bits(v))})
}

// SetTime sets the Time column col.
func (r *Row) SetTime(col string, v time.Time) { r.put(col, Time, Value{t: v}) }

// SetStrs sets the Strings column col to v, which the row keeps: a stored
// list is immutable, so the caller writes no element of v afterwards.
func (r *Row) SetStrs(col string, v []string) { r.put(col, Strings, Value{l: v}) }

// Set sets column col from a dynamically typed value: a string, an
// int64, a bool, a float64, a time.Time or a []string, as the column's
// type wants. It is for code that holds its values as any; the typed
// setters box nothing.
func (r *Row) Set(col string, v any) {
	for _, ct := range [...]ColType{String, Int, Bool, Float, Time, Strings} {
		if val, ok := valueOf(ct, v); ok {
			r.put(col, ct, val)
			return
		}
	}
	r.put(col, noType, Value{}) // fails: no column is of no type
}

func boolValue(b bool) Value {
	if b {
		return Value{n: 1}
	}
	return Value{}
}

// valueOf converts a probe value to a column of type ct, reporting false
// when v is not of that type.
func valueOf(ct ColType, v any) (Value, bool) {
	switch ct {
	case String:
		s, ok := v.(string)
		return Value{s: s}, ok
	case Int:
		n, ok := v.(int64)
		return Value{n: n}, ok
	case Bool:
		b, ok := v.(bool)
		return boolValue(b), ok
	case Float:
		f, ok := v.(float64)
		return Value{n: int64(math.Float64bits(f))}, ok
	case Time:
		t, ok := v.(time.Time)
		return Value{t: t}, ok
	case Strings:
		l, ok := v.([]string)
		return Value{l: l}, ok
	}
	return Value{}, false
}

// Clone returns a copy of r that shares nothing with it but its lists,
// which are immutable.
func (r Row) Clone() Row {
	if r.vals != nil {
		r.vals = append([]Value(nil), r.vals...)
	}
	return r
}

// merged returns a copy of base with the columns changes sets laid over
// it; the two share a layout.
func merged(base, changes Row) Row {
	next := base.Clone()
	for m := changes.set; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		next.vals[p] = changes.vals[p]
	}
	next.set |= changes.set
	return next
}

// appendKey appends the encoded primary key of r, whose key columns
// must all be set. Table.appendKey encodes probe values the same way.
func (r Row) appendKey(b []byte) ([]byte, error) {
	for i, p := range r.l.key {
		if r.set&(1<<p) == 0 {
			return b, fmt.Errorf("%w: %q", ErrMissingKey, r.l.cols[p].Name)
		}
		b = appendKeyValue(b, i, r.l.cols[p].Type, r.vals[p])
	}
	return b, nil
}

// key returns the encoded primary key of r.
func (r Row) key() (rowKey, error) {
	if len(r.l.key) == 1 {
		// A single string key (users by id, links by id) encodes as
		// itself: no buffer, no copy.
		if p := r.l.key[0]; r.l.cols[p].Type == String && r.set&(1<<p) != 0 {
			return rowKey(r.vals[p].s), nil
		}
	}
	var buf [64]byte
	b, err := r.appendKey(buf[:0])
	return rowKey(b), err
}

// appendKeyValue appends the i-th key value v of a column of type ct.
func appendKeyValue(b []byte, i int, ct ColType, v Value) []byte {
	if i > 0 {
		b = append(b, 0x1f)
	}
	switch ct {
	case String:
		return append(b, v.s...)
	case Int:
		return strconv.AppendInt(b, v.n, 10)
	case Bool:
		return strconv.AppendBool(b, v.n != 0)
	case Float:
		return strconv.AppendFloat(b, math.Float64frombits(uint64(v.n)), 'g', -1, 64)
	case Time:
		return v.t.UTC().AppendFormat(b, time.RFC3339Nano)
	}
	return b
}

// SizeHint is about the number of bytes AppendJSON appends for r, for a
// caller sizing the buffer it appends to.
func (r Row) SizeHint() int {
	n := 2
	for m := r.set; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		n += len(r.l.cols[p].Name) + 28
		switch r.l.cols[p].Type {
		case String:
			s := r.vals[p].s
			n += len(s) + len(s)/8
		case Strings:
			for _, s := range r.vals[p].l {
				n += len(s) + len(s)/8 + 3
			}
		}
	}
	return n
}

// AppendJSON appends r as the JSON object json.Marshal writes for the
// map of its set columns: names in order, a time in RFC 3339 with the
// nanoseconds it has. The WAL, the checkpoint snapshot and row dumps all
// write rows with it. A float JSON cannot hold (NaN, ±Inf) fails with
// json.Marshal's error.
func (r Row) AppendJSON(b []byte) ([]byte, error) {
	if r.l == nil {
		return append(b, "{}"...), nil
	}
	return r.appendJSON(b, r.l.byName, true)
}

// AppendKeyJSON appends the primary-key values r sets as a JSON array,
// in key order.
func (r Row) AppendKeyJSON(b []byte) ([]byte, error) {
	return r.appendJSON(b, r.l.key, false)
}

// appendJSON appends the columns r sets among the positions in order:
// as an object of name: value when named, else as an array of values.
func (r Row) appendJSON(b []byte, order []int, named bool) ([]byte, error) {
	open, end := byte('['), byte(']')
	if named {
		open, end = '{', '}'
	}
	b = append(b, open)
	sep := false
	for _, p := range order {
		if r.set&(1<<p) == 0 {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		if named {
			b = append(jsonrec.AppendString(b, r.l.cols[p].Name), ':')
		}
		var err error
		if b, err = appendJSONValue(b, r.l.cols[p].Type, r.vals[p]); err != nil {
			return b, err
		}
	}
	return append(b, end), nil
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r Row) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, r.SizeHint()))
}

// String renders r as AppendJSON does, for diagnostics.
func (r Row) String() string {
	b, err := r.AppendJSON(nil)
	if err != nil {
		return fmt.Sprintf("%s (%v)", b, err)
	}
	return string(b)
}

func appendJSONValue(b []byte, ct ColType, v Value) ([]byte, error) {
	switch ct {
	case String:
		return jsonrec.AppendString(b, v.s), nil
	case Int:
		return strconv.AppendInt(b, v.n, 10), nil
	case Bool:
		return strconv.AppendBool(b, v.n != 0), nil
	case Float: // json.Marshal's text and its error for NaN and ±Inf
		return jsonrec.AppendFloat(b, math.Float64frombits(uint64(v.n)))
	case Time:
		return append(v.t.AppendFormat(append(b, '"'), time.RFC3339Nano), '"'), nil
	case Strings:
		return jsonrec.AppendStrings(b, v.l), nil
	}
	return b, fmt.Errorf("%w: column type %s", ErrBadType, ct)
}

// SetJSON sets column col from raw, one JSON value as AppendJSON writes
// it. A number is read from its text, so an Int keeps every digit. It
// returns ErrBadColumn for a column the row's table does not have and
// ErrBadType for a value that is not of the column's type.
func (r *Row) SetJSON(col string, raw []byte) error {
	if r.l == nil {
		return fmt.Errorf("%w: %q in a row of no table", ErrBadColumn, col)
	}
	p, ok := r.l.index[col]
	if !ok {
		return fmt.Errorf("%w: %q in table %s", ErrBadColumn, col, r.l.table)
	}
	v, err := decodeJSONValue(r.l.cols[p].Type, raw)
	if err != nil {
		return err
	}
	r.vals[p] = v
	r.set |= 1 << p
	return nil
}

func decodeJSONValue(ct ColType, raw []byte) (Value, error) {
	text := string(raw)
	switch ct {
	case String, Time:
		var s string
		if !strings.HasPrefix(text, `"`) {
			break
		}
		if err := json.Unmarshal(raw, &s); err != nil {
			return Value{}, err
		}
		if ct == String {
			return Value{s: s}, nil
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return Value{}, err
		}
		return Value{t: t}, nil
	case Bool:
		if text == "true" || text == "false" {
			return boolValue(text == "true"), nil
		}
	case Strings:
		var l []string
		if json.Unmarshal(raw, &l) == nil {
			return Value{l: l}, nil
		}
	case Int, Float:
		if text == "" || text[0] != '-' && (text[0] < '0' || text[0] > '9') {
			break // not a number
		}
		if n, err := strconv.ParseInt(text, 10, 64); err == nil && ct == Int {
			return Value{n: n}, nil
		}
		f, err := strconv.ParseFloat(text, 64)
		switch {
		case err != nil:
		case ct == Int: // not an integer's text (1e3, 2.0): what it reads as, truncated
			return Value{n: int64(f)}, nil
		default:
			return Value{n: int64(math.Float64bits(f))}, nil
		}
	}
	return Value{}, ErrBadType
}
