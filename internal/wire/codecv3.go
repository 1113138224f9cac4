package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Wire format v4 (see DESIGN.md §9): the one frame format every
// transport sends, written by the binary codec, CodecV3, named for the
// format it was first. A frame is its body's length as a uvarint (see
// frame.go), then a body that starts with the format's version byte,
// 0xB6, followed by a length-delimited binary encoding of the envelope.
// A request's deadline hint is a uvarint of milliseconds after its
// credential, 0 for none. An OK response is its id, the byte 1 and its
// result, one value; a refused one its id, the byte 0, its error, code
// and reason.
//
// A name — a request's service, method and caller, and every Args and
// Metadata key at any depth — is one uvarint x: an odd x is entry x>>1
// of the connection's name table, an even x a literal of x>>1 bytes.
// Both ends of a connection enter every literal name of 1..internMaxLen
// bytes while the table holds fewer than internMaxEntries, so the two
// tables stay equal with no define flag, eviction or handshake. Without
// a table (EncodeFrameCodec) every name is a literal.
//
// Args go out in their order, each value under the tag of its kind; a
// Raw value is its JSON text, embedded as a blob. A result is one value
// in the same encoding. A list that repeats a key is refused, as a map
// could never send one. No other version is read: both ends run one
// binary and nothing stores a frame, so a v3 body (0xB5) is refused.

// magicV4 is the first body byte of a binary frame: the format's version
// byte. A JSON body always starts with '{' (0x7B), so the two are
// unambiguous.
const magicV4 = 0xB6

// Codec names a frame body encoding. No transport sends JSON: CodecJSON
// is kept as the reference the fuzzers and the benchmark's wire probe
// measure the binary codec against.
type Codec uint8

// Codecs.
const (
	CodecJSON Codec = iota + 1 // JSON body: the reference encoding
	CodecV3                    // binary body, format v4: what every transport sends
)

// String returns the codec name.
func (c Codec) String() string {
	if c == CodecV3 {
		return "v3"
	}
	return "json"
}

// ErrBadV3Frame reports a structurally invalid binary body, or one of
// another version.
var ErrBadV3Frame = errors.New("wire: malformed v3 frame")

// v3 kind bytes.
const (
	v3KindRequest  = 1
	v3KindResponse = 2
)

// v3 value tags for the Args and result encoding.
const (
	v3ValNil     = 0
	v3ValString  = 1
	v3ValFloat64 = 2
	v3ValInt     = 3 // zigzag varint; covers int/int64
	v3ValTrue    = 4
	v3ValFalse   = 5
	v3ValStrings = 6 // string list
	// 7 carried a list of any values; nothing sends one, and a frame
	// holding one is refused.
	v3ValMap   = 8  // nested Args
	v3ValJSON  = 9  // embedded JSON text: a Raw value
	v3ValWords = 10 // word list: a count, then each word as a uvarint
)

// EncodeFrameCodec encodes env with the requested codec into a pooled
// FrameBuffer; CodecJSON delegates to EncodeFrame. It serves the
// fuzzers and the benchmark's wire probe, which compare the two codecs;
// no transport sends JSON.
func EncodeFrameCodec(env *Envelope, c Codec) (*FrameBuffer, error) {
	if c == CodecV3 {
		return encodeV3(env, nil)
	}
	return EncodeFrame(env)
}

// NameTable is the sending half of one direction of a connection's name
// table: a name it holds goes out as its index. The peer's Decoder
// holds the receiving half and enters the same names in the same order,
// as long as the frames EncodeFrame returns reach it in the order they
// were encoded. Not safe for concurrent use.
type NameTable struct {
	index map[string]uint64
	names []string // in entry order, so a failed frame's entries come off the end
}

// EncodeFrame encodes env as a binary frame: the length prefix then the
// version-tagged body, appended into one pooled buffer so a warm pool
// encodes a frame with zero intermediate allocations and the transport
// issues a single Write. A name in t is sent as a reference and a new
// one is entered in t. If env cannot be encoded, the entries it added
// are removed again, so the frame the peer never sees leaves no trace
// in t.
func (t *NameTable) EncodeFrame(env *Envelope) (*FrameBuffer, error) {
	mark := len(t.names)
	f, err := encodeV3(env, t)
	if err != nil {
		for _, s := range t.names[mark:] {
			delete(t.index, s)
		}
		t.names = t.names[:mark]
	}
	return f, err
}

// enters is the rule both ends apply to a literal name of n bytes when
// the table holds entries names.
func enters(n, entries int) bool {
	return n > 0 && n <= internMaxLen && entries < internMaxEntries
}

// appendName writes the name field for s: a reference if t holds s,
// otherwise a literal, which t enters by the shared rule. A nil t writes
// a literal.
func (t *NameTable) appendName(b []byte, s string) []byte {
	if t != nil {
		if i, ok := t.index[s]; ok {
			return binary.AppendUvarint(b, i<<1|1)
		}
		if enters(len(s), len(t.names)) {
			if t.index == nil {
				t.index = make(map[string]uint64)
			}
			c := strings.Clone(s) // s may pin a whole decoded frame
			t.index[c] = uint64(len(t.names))
			t.names = append(t.names, c)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s))<<1)
	return append(b, s...)
}

func encodeV3(env *Envelope, t *NameTable) (*FrameBuffer, error) {
	f := newFrame()
	switch {
	case env.Kind == KindRequest && env.Request != nil:
		f.buf = t.appendRequest(append(f.buf, magicV4, v3KindRequest), env.Request)
	case env.Kind == KindResponse && env.Response != nil:
		f.buf = t.appendResponse(append(f.buf, magicV4, v3KindResponse), env.Response)
	default:
		f.Release()
		return nil, fmt.Errorf("wire: v3 encode: empty or inconsistent envelope kind %q", env.Kind)
	}
	return f.seal()
}

func (t *NameTable) appendRequest(b []byte, r *Request) []byte {
	b = binary.AppendUvarint(b, r.ID)
	b = t.appendName(b, r.Service)
	b = t.appendName(b, r.Method)
	b = t.appendName(b, r.Caller)
	b = appendV3String(b, r.Credential)
	b = binary.AppendUvarint(b, r.DeadlineMs)
	b = t.appendMeta(b, r.Meta)
	return t.appendArgs(b, r.Args)
}

// appendResponse writes an OK response's result, and a refused one's
// error, code and reason: neither carries the other's fields.
func (t *NameTable) appendResponse(b []byte, r *Response) []byte {
	b = binary.AppendUvarint(b, r.ID)
	if r.OK {
		return t.appendValue(append(b, 1), &r.Result)
	}
	b = appendV3String(append(b, 0), r.Error)
	b = appendV3String(b, string(r.Code))
	return appendV3String(b, string(r.Reason))
}

func appendV3String(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func (t *NameTable) appendMeta(b []byte, m Metadata) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = t.appendName(b, k)
		b = appendV3String(b, v)
	}
	return b
}

func (t *NameTable) appendArgs(b []byte, a Args) []byte {
	b = binary.AppendUvarint(b, uint64(len(a)))
	for i := range a {
		b = t.appendName(b, a[i].Key)
		b = t.appendValue(b, &a[i].Val)
	}
	return b
}

// appendValue encodes one Args value under the tag of its kind.
func (t *NameTable) appendValue(b []byte, v *Value) []byte {
	switch v.kind {
	case kindString:
		return appendV3String(append(b, v3ValString), v.s)
	case kindInt:
		return appendV3Zigzag(append(b, v3ValInt), int64(v.n))
	case kindFloat:
		return binary.BigEndian.AppendUint64(append(b, v3ValFloat64), v.n)
	case kindBool:
		if v.n != 0 {
			return append(b, v3ValTrue)
		}
		return append(b, v3ValFalse)
	case kindStrings:
		b = binary.AppendUvarint(append(b, v3ValStrings), uint64(len(v.ss)))
		for _, s := range v.ss {
			b = appendV3String(b, s)
		}
		return b
	case kindArgs:
		return t.appendArgs(append(b, v3ValMap), v.sub)
	case kindJSON:
		return appendV3String(append(b, v3ValJSON), v.s)
	case kindWords:
		b = binary.AppendUvarint(append(b, v3ValWords), uint64(len(v.ws)))
		for _, w := range v.ws {
			b = binary.AppendUvarint(b, w)
		}
		return b
	}
	return append(b, v3ValNil)
}

func appendV3Zigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// --- decode ---------------------------------------------------------------

// v3dec is a bounds-checked cursor over one binary body. Nothing it
// returns aliases the body (the caller reuses it as scratch for the next
// frame), a result's strings and lists no more than a request's:
// the strings of a body of at most poolBufCap bytes are substrings of one
// copy of the body, made at its first non-empty string, and above that
// each string is its own copy, so a small string that outlives the frame
// never pins a large one.
type v3dec struct {
	b    []byte
	pos  int
	s    string   // string(b), once a string needs it
	strs []string // the backing the body's string lists are carved from
	// names is the receiving half of the connection's name table (see
	// NameTable); nil in a one-off decode, where a reference is an error.
	names *[]string
}

// A name table holds short names only and a fixed number of them, so a
// peer sending ever-new keys cannot grow it.
const (
	internMaxLen     = 32
	internMaxEntries = 128
)

// maxSizeHint caps the size a decoder pre-allocates for a map or slice
// from the count a peer sends. A larger one grows as its entries
// decode, and each entry takes frame bytes.
const maxSizeHint = 16

// maxWordsHint is the size hint a word list's count is trusted for: the
// 64 words of a GetFreeSlots reply over calendar.MaxWindowSlots.
const maxWordsHint = 64

// maxArgsDepth bounds how deep argument lists nest, so a peer cannot
// recurse the decoder off its stack.
const maxArgsDepth = 32

func (d *v3dec) fail() error { return ErrBadV3Frame }

func (d *v3dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, d.fail()
	}
	d.pos += n
	return v, nil
}

func (d *v3dec) zigzag() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (d *v3dec) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, d.fail()
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

// take returns the next n raw bytes, still aliasing the scratch buffer.
func (d *v3dec) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.pos) {
		return nil, d.fail()
	}
	p := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return p, nil
}

// field returns the next length-prefixed field, aliasing like take.
func (d *v3dec) field() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	return d.take(n)
}

func (d *v3dec) string() (string, error) {
	p, err := d.field()
	return d.str(p), err
}

// reason decodes a failed response's reason, a known one without allocating.
func (d *v3dec) reason() (Reason, error) {
	p, err := d.field()
	for _, r := range reasons {
		if string(r) == string(p) {
			return r, err
		}
	}
	return Reason(d.str(p)), err
}

// str returns p, the field just taken, as a string that does not alias
// the body (see v3dec).
func (d *v3dec) str(p []byte) string {
	if len(p) == 0 || len(d.b) > poolBufCap {
		return string(p)
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	return d.s[d.pos-len(p) : d.pos]
}

// name decodes a name field. A reference allocates nothing; a literal
// the table enters is its own copy, since the table outlives the frame.
func (d *v3dec) name() (string, error) {
	x, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if x&1 == 1 {
		if d.names == nil || x>>1 >= uint64(len(*d.names)) {
			return "", d.fail()
		}
		return (*d.names)[x>>1], nil
	}
	p, err := d.take(x >> 1)
	if err != nil || d.names == nil || !enters(len(p), len(*d.names)) {
		return d.str(p), err
	}
	s := string(p)
	*d.names = append(*d.names, s)
	return s, nil
}

func (d *v3dec) meta() (Metadata, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(d.b)-d.pos) { // each entry takes ≥2 bytes; cheap sanity bound
		return nil, d.fail()
	}
	m := make(Metadata, min(n, maxSizeHint))
	for i := uint64(0); i < n; i++ {
		k, err := d.name()
		if err != nil {
			return nil, err
		}
		v, err := d.string()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// args decodes an argument list into one slice: into's, when it has
// room, else a new one. Its strings are substrings of the body's one
// copy (see v3dec), so what allocates is that slice, a nested list's own
// and the string lists' one backing.
func (d *v3dec) args(depth int, into Args) (Args, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return into[:0], nil
	}
	if n > uint64(len(d.b)-d.pos) || depth > maxArgsDepth {
		return nil, d.fail()
	}
	a := into[:0]
	if uint64(cap(a)) < min(n, maxSizeHint) {
		a = make(Args, 0, min(n, maxSizeHint))
	}
	var seen map[string]bool // from maxSizeHint keys on: a long list is checked in linear time
	for i := uint64(0); i < n; i++ {
		k, err := d.name()
		if err != nil {
			return nil, err
		}
		if len(a) == maxSizeHint {
			seen = make(map[string]bool, 2*maxSizeHint)
			for _, kv := range a {
				seen[kv.Key] = true
			}
		}
		if seen[k] || seen == nil && a.index(k) >= 0 {
			return nil, d.fail() // a repeated key
		}
		if seen != nil {
			seen[k] = true
		}
		a = append(a, Arg{Key: k})
		if err := d.value(&a[len(a)-1].Val, depth); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (d *v3dec) value(v *Value, depth int) (err error) {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	switch tag {
	case v3ValNil:
		return nil
	case v3ValString:
		v.kind = kindString
		v.s, err = d.string()
		return err
	case v3ValFloat64:
		p, err := d.take(8)
		if err != nil {
			return err
		}
		v.kind, v.n = kindFloat, binary.BigEndian.Uint64(p)
		return nil
	case v3ValInt:
		n, err := d.zigzag()
		v.kind, v.n = kindInt, uint64(n)
		return err
	case v3ValTrue:
		v.kind, v.n = kindBool, 1
		return nil
	case v3ValFalse:
		v.kind = kindBool
		return nil
	case v3ValStrings:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.b)-d.pos) {
			return d.fail()
		}
		if int(min(n, maxSizeHint)) > cap(d.strs)-len(d.strs) { // a string takes a byte at least
			d.strs = make([]string, 0, min(len(d.b)-d.pos, maxSizeHint))
		}
		start := len(d.strs)
		for i := uint64(0); i < n; i++ {
			s, err := d.string()
			if err != nil {
				return err
			}
			d.strs = append(d.strs, s)
		}
		// Capped, so an append to it cannot write into the next list.
		v.kind, v.ss = kindStrings, d.strs[start:len(d.strs):len(d.strs)]
		if v.ss == nil {
			v.ss = []string{}
		}
		return nil
	case v3ValMap:
		v.kind = kindArgs
		v.sub, err = d.args(depth+1, nil)
		return err
	case v3ValJSON:
		p, err := d.field()
		if err != nil {
			return err
		}
		if !json.Valid(p) {
			return fmt.Errorf("wire: v3 embedded json is not valid JSON")
		}
		v.kind, v.s = kindJSON, d.str(p)
		return nil
	case v3ValWords:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.b)-d.pos) { // a word takes a byte at least
			return d.fail()
		}
		v.kind, v.ws = kindWords, make([]uint64, 0, min(n, maxWordsHint))
		for i := uint64(0); i < n; i++ {
			w, err := d.uvarint()
			if err != nil {
				return err
			}
			v.ws = append(v.ws, w)
		}
		return nil
	}
	return d.fail()
}

// envelopeOf is an Envelope and the message it points to, allocated as
// one object.
type envelopeOf[T any] struct {
	env Envelope
	msg T
}

// decodeV3 decodes a binary body (including the leading version byte) into a
// fresh Envelope that does not alias body; the envelope and its request
// or response are one allocation. names is the receiving half of
// the connection's name table (see v3dec.names), nil for none.
func decodeV3(body []byte, names *[]string) (*Envelope, error) {
	if len(body) < 2 || body[0] != magicV4 {
		return nil, ErrBadV3Frame
	}
	d := &v3dec{b: body, pos: 2, names: names}
	var env *Envelope
	var err error
	switch body[1] {
	case v3KindRequest:
		p := new(envelopeOf[Request])
		env, p.env = &p.env, Envelope{Kind: KindRequest, Request: &p.msg}
		err = d.request(&p.msg)
	case v3KindResponse:
		p := new(envelopeOf[Response])
		env, p.env = &p.env, Envelope{Kind: KindResponse, Response: &p.msg}
		err = d.response(&p.msg)
	default:
		err = ErrBadV3Frame
	}
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.b) {
		return nil, ErrBadV3Frame
	}
	return env, nil
}

func (d *v3dec) request(r *Request) (err error) {
	if r.ID, err = d.uvarint(); err != nil {
		return err
	}
	if r.Service, err = d.name(); err != nil {
		return err
	}
	if r.Method, err = d.name(); err != nil {
		return err
	}
	if r.Caller, err = d.name(); err != nil {
		return err
	}
	if r.Credential, err = d.string(); err != nil {
		return err
	}
	if r.DeadlineMs, err = d.uvarint(); err != nil {
		return err
	}
	if r.Meta, err = d.meta(); err != nil {
		return err
	}
	r.Args, err = d.args(0, r.Args)
	return err
}

func (d *v3dec) response(r *Response) (err error) {
	if r.ID, err = d.uvarint(); err != nil {
		return err
	}
	switch ok, err := d.byte(); {
	case err != nil:
		return err
	case ok == 1:
		r.OK = true
		return d.value(&r.Result, 0)
	case ok != 0:
		return d.fail()
	}
	if r.Error, err = d.string(); err != nil {
		return err
	}
	var code string
	if code, err = d.string(); err != nil {
		return err
	}
	r.Code = ErrCode(code)
	r.Reason, err = d.reason()
	return err
}
