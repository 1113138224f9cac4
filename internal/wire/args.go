package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/jsonrec"
)

// Args are the named arguments of a request: an ordered list of pairs,
// each key at most once. Every list in the tree has a handful of keys, so
// a lookup is a scan. A v3 frame carries the pairs in order; the JSON
// form writes them sorted by key, as encoding/json writes a map.
type Args []Arg

// Arg is one named argument. Build one with the constructor of its
// kind: Str, Int, Int64, Float, Bool, Strs, Sub or Raw.
type Arg struct {
	Key string
	Val Value
}

// Value is one argument value, or a response's result. The zero Value
// is JSON's null.
type Value struct {
	kind valueKind
	n    uint64   // an int's bits, a float's bits, a bool as 0 or 1
	s    string   // a string, or the text of a raw JSON value
	ss   []string // a string list
	sub  Args     // nested args
	ws   []uint64 // a word list: a result only (Marshal)
}

type valueKind uint8

const (
	kindNil valueKind = iota
	kindString
	kindInt
	kindFloat
	kindBool
	kindStrings
	kindArgs
	kindJSON
	kindWords
)

// Str is a string argument.
func Str(key, v string) Arg { return Arg{key, Value{kind: kindString, s: v}} }

// Int is an integer argument.
func Int(key string, v int) Arg { return Int64(key, int64(v)) }

// Int64 is a 64-bit integer argument; every digit crosses the wire and
// the JSON form.
func Int64(key string, v int64) Arg { return Arg{key, Value{kind: kindInt, n: uint64(v)}} }

// Float is a floating-point argument.
func Float(key string, v float64) Arg {
	return Arg{key, Value{kind: kindFloat, n: math.Float64bits(v)}}
}

// Bool is a boolean argument.
func Bool(key string, v bool) Arg {
	var n uint64
	if v {
		n = 1
	}
	return Arg{key, Value{kind: kindBool, n: n}}
}

// Strs is a string-list argument; a nil list is JSON's null.
func Strs(key string, v []string) Arg { return Arg{key, Value{kind: kindStrings, ss: v}} }

// Sub is a nested argument list; a nil one is JSON's null.
func Sub(key string, v Args) Arg { return Arg{key, Value{kind: kindArgs, sub: v}} }

// Raw is a structured argument carried as its JSON text, which must be
// valid JSON: what json.Marshal wrote for it. Decode reads it back.
func Raw(key string, v json.RawMessage) Arg { return Arg{key, Value{kind: kindJSON, s: string(v)}} }

// get returns the value at key and whether there is one.
func (a Args) get(key string) (Value, bool) {
	if i := a.index(key); i >= 0 {
		return a[i].Val, true
	}
	return Value{}, false
}

// Has reports whether a holds key.
func (a Args) Has(key string) bool { return a.index(key) >= 0 }

// String returns the string at key, or "" if absent or not a string.
func (a Args) String(key string) string {
	if v, _ := a.get(key); v.kind == kindString {
		return v.s
	}
	return ""
}

// Int returns the integer at key, or 0.
func (a Args) Int(key string) int { return int(a.Int64(key)) }

// Int64 returns the integer at key, or 0.
func (a Args) Int64(key string) int64 {
	if v, _ := a.get(key); v.kind == kindInt {
		return int64(v.n)
	}
	return 0
}

// Bool returns the bool at key, or false.
func (a Args) Bool(key string) bool {
	v, _ := a.get(key)
	return v.kind == kindBool && v.n != 0
}

// Strings returns the string list at key, or nil.
func (a Args) Strings(key string) []string {
	v, _ := a.get(key)
	return v.ss
}

// Sub returns the nested argument list at key, or nil.
func (a Args) Sub(key string) Args {
	v, _ := a.get(key)
	return v.sub
}

// Words returns the word list v holds and whether it holds one.
func (v Value) Words() ([]uint64, bool) { return v.ws, v.kind == kindWords }

// Decode unmarshals the JSON form of the value at key into dst: the
// structured values a Raw argument carries.
func (a Args) Decode(key string, dst any) error {
	v, ok := a.get(key)
	if !ok {
		return fmt.Errorf("wire: missing arg %q", key)
	}
	if v.kind == kindJSON {
		return json.Unmarshal([]byte(v.s), dst)
	}
	b, err := v.appendJSON(nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, dst)
}

// With returns a new list: a's pairs, each replaced by the pair in over
// with its key, then the pairs of over that a does not have. a itself is
// left as it is.
func (a Args) With(over ...Arg) Args {
	out := make(Args, len(a), len(a)+len(over))
	copy(out, a)
	for _, kv := range over {
		if i := out.index(kv.Key); i >= 0 {
			out[i] = kv
		} else {
			out = append(out, kv)
		}
	}
	return out
}

func (a Args) index(key string) int {
	for i := range a {
		if a[i].Key == key {
			return i
		}
	}
	return -1
}

// --- the JSON form ----------------------------------------------------------

// AppendJSON appends a as json.Marshal writes the map with the same
// pairs: null when a is nil, the keys sorted. It fails where Marshal
// fails, on a float that is NaN or infinite, with the error Marshal
// returns for a value holding a.
func (a Args) AppendJSON(b []byte) ([]byte, error) {
	b, err := a.appendJSON(b)
	if err != nil {
		return b, &json.MarshalerError{Type: reflect.TypeOf(a), Err: err}
	}
	return b, nil
}

func (a Args) appendJSON(b []byte) ([]byte, error) {
	if a == nil {
		return append(b, "null"...), nil
	}
	var buf [8]int
	order := buf[:0]
	for i := range a {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(a[i].Key, a[j].Key) })
	b = append(b, '{')
	for n, i := range order {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(jsonrec.AppendString(b, a[i].Key), ':')
		var err error
		// A nested list by recursion on this method alone: through
		// Value.appendJSON every caller's stack buffer would escape.
		if v := a[i].Val; v.kind == kindArgs {
			b, err = v.sub.appendJSON(b)
		} else {
			b, err = v.appendJSON(b)
		}
		if err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func (v Value) appendJSON(b []byte) ([]byte, error) {
	switch v.kind {
	case kindString:
		return jsonrec.AppendString(b, v.s), nil
	case kindInt:
		return strconv.AppendInt(b, int64(v.n), 10), nil
	case kindFloat:
		return jsonrec.AppendFloat(b, math.Float64frombits(v.n))
	case kindBool:
		return strconv.AppendBool(b, v.n != 0), nil
	case kindStrings:
		return jsonrec.AppendStrings(b, v.ss), nil
	case kindArgs, kindJSON, kindWords:
		// Nested args (Decode's) through json.Marshal, not by recursion
		// here (see Args.appendJSON); a raw value compacted and escaped
		// as Marshal treats a json.RawMessage; words, the JSON reference
		// codec's, as Marshal writes a []uint64.
		var x any = v.sub
		switch v.kind {
		case kindJSON:
			x = json.RawMessage(v.s)
		case kindWords:
			x = v.ws
		}
		raw, err := json.Marshal(x)
		return append(b, raw...), err
	}
	return append(b, "null"...), nil
}

// MarshalJSON writes AppendJSON's text; json.Marshal wraps its error as
// AppendJSON does.
func (a Args) MarshalJSON() ([]byte, error) { return a.appendJSON(nil) }

// MarshalJSON writes v as json.Marshal writes what it holds: the JSON
// reference codec's form of a result.
func (v Value) MarshalJSON() ([]byte, error) { return v.appendJSON(nil) }

// UnmarshalJSON reads one JSON value into v as UnmarshalJSON reads the
// value of an argument.
func (v *Value) UnmarshalJSON(data []byte) (err error) {
	*v, err = valueOfJSON(data)
	return err
}

// UnmarshalJSON reads a JSON object, or null, into a: keys sorted, a
// repeated key's last value kept, as json.Unmarshal fills a map. An
// integer literal is an int that keeps every digit, any other number a
// float; a string array is a string list, an object nested args, any
// other array a raw value.
func (a *Args) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(Args, 0, len(m))
	for k := range m {
		out = append(out, Arg{Key: k})
	}
	slices.SortFunc(out, func(x, y Arg) int { return strings.Compare(x.Key, y.Key) })
	for i := range out {
		v, err := valueOfJSON(m[out[i].Key])
		if err != nil {
			return err
		}
		out[i].Val = v
	}
	*a = out
	return nil
}

func valueOfJSON(raw []byte) (Value, error) {
	switch raw[0] {
	case '"':
		var s string
		err := json.Unmarshal(raw, &s)
		return Value{kind: kindString, s: s}, err
	case '{':
		var sub Args
		err := sub.UnmarshalJSON(raw)
		return Value{kind: kindArgs, sub: sub}, err
	case '[':
		var list []any
		if err := json.Unmarshal(raw, &list); err != nil {
			return Value{}, err
		}
		ss := make([]string, len(list))
		for i, e := range list {
			s, ok := e.(string)
			if !ok {
				var c bytes.Buffer
				err := json.Compact(&c, raw)
				return Value{kind: kindJSON, s: c.String()}, err
			}
			ss[i] = s
		}
		return Value{kind: kindStrings, ss: ss}, nil
	case 't':
		return Bool("", true).Val, nil
	case 'f':
		return Value{kind: kindBool}, nil
	case 'n':
		return Value{}, nil
	}
	return numberValue(string(raw))
}

// numberValue reads a JSON number: an integer literal that fits an int64
// as an int, any other as a float.
func numberValue(lit string) (Value, error) {
	if !strings.ContainsAny(lit, ".eE") && lit != "-0" { // "-0" is what Marshal writes for -0.0
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return Int64("", n).Val, nil
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return Value{}, fmt.Errorf("wire: bad number %q", lit)
	}
	return Float("", f).Val, nil
}

// ReadArgs reads, from r, the JSON form AppendJSON writes, as
// UnmarshalJSON does. A text outside jsonrec.Reader's canonical subset,
// or with its keys out of order, is a miss, which a caller's
// jsonrec.Decode hands to json.Unmarshal.
func ReadArgs(r *jsonrec.Reader) Args {
	if r.Null() {
		return nil
	}
	r.Lit("{")
	var buf [8]Arg
	a := buf[:0]
	for r.More('}') {
		k := r.String()
		r.Lit(":")
		if len(a) > 0 && k <= a[len(a)-1].Key {
			r.Fail()
		}
		a = append(a, Arg{k, readValue(r)})
	}
	return append(Args{}, a...)
}

func readValue(r *jsonrec.Reader) Value {
	switch r.Peek() {
	case '"':
		return Value{kind: kindString, s: r.String()}
	case '{':
		return Value{kind: kindArgs, sub: ReadArgs(r)}
	case '[':
		var buf [8]string
		_, ss := r.Strings(buf[:0])
		return Value{kind: kindStrings, ss: append([]string{}, ss...)}
	case 't':
		r.Lit("true")
		return Bool("", true).Val
	case 'f':
		r.Lit("false")
		return Bool("", false).Val
	case 'n':
		r.Lit("null")
		return Value{}
	}
	v, err := numberValue(r.Number())
	if err != nil {
		r.Fail()
	}
	return v
}
