// Package jsonrec writes and reads records in canonical JSON — the text
// encoding/json's Marshal gives for them — without reflection: a writer
// appends to a caller's buffer, and the reader slices the text it is
// given. A record codec built from them produces Marshal's bytes, and
// decodes what Unmarshal decodes, because every text the reader does not
// recognise goes to json.Unmarshal itself (Decode). The fuzzers of the
// codecs built on it (FuzzTxRecordEncoding in wal, FuzzMeetingRecord in
// calendar, FuzzLinkRecord for the link row and FuzzJournalRecord for the
// commit journal's record in links) hold each to encoding/json.
package jsonrec

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// AppendString appends s as the JSON string json.Marshal writes for it:
// `"`, `\`, newline, return and tab escaped short, `<`, `>`, `&`, U+2028
// and U+2029 as \u escapes, invalid UTF-8 as \ufffd. The other control
// characters, which Go releases have spelled differently, go through
// json.Marshal itself, on a copy: s does not escape.
func AppendString(b []byte, s string) []byte {
	mark := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		var esc string
		size := 1
		switch {
		case c == '"':
			esc = `\"`
		case c == '\\':
			esc = `\\`
		case c == '\n':
			esc = `\n`
		case c == '\r':
			esc = `\r`
		case c == '\t':
			esc = `\t`
		case c == '<':
			esc = `\u003c`
		case c == '>':
			esc = `\u003e`
		case c == '&':
			esc = `\u0026`
		case c < 0x20:
			raw, _ := json.Marshal(strings.Clone(s)) // a string cannot fail to marshal
			return append(b[:mark], raw...)
		default:
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				esc = `\ufffd`
			case r == '\u2028':
				esc = `\u2028`
			case r == '\u2029':
				esc = `\u2029`
			default:
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendStrings appends ss as json.Marshal writes a []string: null when
// ss is nil, [] when it is empty.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from 1e21
// on. NaN and ±Inf have no JSON form; they return json.Marshal's error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 is written e-7
		b = b[:n-1]
	}
	return b, nil
}

// AppendTime appends t as json.Marshal writes a time.Time: RFC 3339 with
// the nanoseconds it has, quoted. A time RFC 3339 cannot write (a year
// outside [0,9999], a zone of a day or more) goes through json.Marshal
// for its error, asked of a copy of t: t does not escape.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -24*3600 || off >= 24*3600 {
		_, err := json.Marshal(time.Unix(t.Unix(), int64(t.Nanosecond())).In(time.FixedZone("", off)))
		return b, err
	}
	return append(t.AppendFormat(append(b, '"'), time.RFC3339Nano), '"'), nil
}

// Decode decodes s with read, which reports whether s was in the form it
// reads; when it was not, s goes to json.Unmarshal. Either way the value
// and the error are the ones json.Unmarshal gives for s.
func Decode[T any](s string, read func(string) (T, bool)) (T, error) {
	if v, ok := read(s); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal([]byte(s), &v)
	return v, err
}

// Reader reads canonical JSON: the literals its caller names, in order,
// strings with no escape, no control byte and valid UTF-8 (returned as
// substrings of the text), integer literals, and no whitespace. Anything
// else is a miss: the read returns a zero value, so does every later
// one, and Done reports false. Everything a Reader accepts, json.Unmarshal
// decodes to the same value.
type Reader struct {
	s    string
	i    int
	miss bool
}

// NewReader returns a Reader at the start of s.
func NewReader(s string) Reader { return Reader{s: s} }

// Done reports whether every read hit and the text is used up.
func (r *Reader) Done() bool { return !r.miss && r.i == len(r.s) }

// Lit consumes lit, which must come next.
func (r *Reader) Lit(lit string) {
	if !r.Opt(lit) {
		r.miss = true
	}
}

// Opt consumes lit if it comes next and reports whether it did.
func (r *Reader) Opt(lit string) bool {
	if r.miss || !strings.HasPrefix(r.s[r.i:], lit) {
		return false
	}
	r.i += len(lit)
	return true
}

// Null consumes a null if it comes next and reports whether it did.
func (r *Reader) Null() bool { return r.Opt("null") }

// More is the loop condition of an array or object whose opening bracket
// has been read: it consumes the comma before the next element and
// reports true, or consumes end and reports false.
func (r *Reader) More(end byte) bool {
	switch {
	case r.miss || r.i == len(r.s):
		r.miss = true
		return false
	case r.s[r.i] == end:
		r.i++
		return false
	case r.s[r.i-1] != '[' && r.s[r.i-1] != '{':
		r.Lit(",")
	}
	return !r.miss
}

// String reads a string.
func (r *Reader) String() string {
	if r.Opt(`"`) {
		j := r.i
		for j < len(r.s) && r.s[j] >= 0x20 && r.s[j] != '"' && r.s[j] != '\\' {
			j++
		}
		if s := r.s[r.i:j]; j < len(r.s) && r.s[j] == '"' && utf8.ValidString(s) {
			r.i = j + 1
			return s
		}
	}
	r.miss = true
	return ""
}

// Strings reads a []string onto the end of buf, which is not nil, and
// returns buf grown by it and the list: nil for null, else buf's new
// tail, capped at its length so that an append to it cannot write over
// the next list read into buf.
func (r *Reader) Strings(buf []string) (grown, list []string) {
	if r.Null() {
		return buf, nil
	}
	r.Lit("[")
	start := len(buf)
	for r.More(']') {
		buf = append(buf, r.String())
	}
	return buf, buf[start:len(buf):len(buf)]
}

// Int reads an integer literal that fits an int.
func (r *Reader) Int() int {
	n, err := strconv.Atoi(r.integer())
	if err != nil {
		r.miss = true
	}
	return n
}

// Peek returns the next byte without consuming it, 0 after a miss or at
// the end of the text.
func (r *Reader) Peek() byte {
	if r.miss || r.i == len(r.s) {
		return 0
	}
	return r.s[r.i]
}

// Fail makes the read a miss: a caller's own check on what it read failed.
func (r *Reader) Fail() { r.miss = true }

// Number reads a number literal, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text.
func (r *Reader) Number() string {
	start := r.i
	r.integer()
	if r.Opt(".") {
		r.digits()
	}
	if r.Opt("e") || r.Opt("E") {
		if !r.Opt("+") {
			r.Opt("-")
		}
		r.digits()
	}
	if r.miss {
		return ""
	}
	return r.s[start:r.i]
}

// digits consumes one or more decimal digits; none is a miss.
func (r *Reader) digits() {
	j := r.i
	for j < len(r.s) && r.s[j] >= '0' && r.s[j] <= '9' {
		j++
	}
	if j == r.i {
		r.miss = true
	}
	r.i = j
}

// Time reads a time.Time: a string in RFC 3339, which json.Unmarshal
// parses the same way.
func (r *Reader) Time() time.Time {
	t, err := time.Parse(time.RFC3339, r.String())
	if err != nil {
		r.miss = true
	}
	return t
}

// integer consumes an integer literal, -?(0|[1-9][0-9]*), and returns it.
func (r *Reader) integer() string {
	j := r.i
	if j < len(r.s) && r.s[j] == '-' {
		j++
	}
	k := j
	for k < len(r.s) && r.s[k] >= '0' && r.s[k] <= '9' {
		k++
	}
	if r.miss || k == j || r.s[j] == '0' && k > j+1 {
		r.miss = true
		return ""
	}
	lit := r.s[r.i:k]
	r.i = k
	return lit
}
