package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func testEnvelopeV3(i int) *Envelope {
	return &Envelope{Kind: KindRequest, Request: &Request{
		ID: uint64(i), Service: "links.phil", Method: "Mark",
		Args: Args{
			Str("entity", "cal.phil/ev42"),
			Str("action", "book"),
			Sub("args", Args{Str("day", "2003-04-21"), Int("hour", i), Bool("ok", true)}),
			Str("nid", "abc123"),
			Float("prio", 1.5),
			Strs("who", []string{"phil", "andy"}),
			Raw("mixed", json.RawMessage(`["x",7,false,null]`)),
		},
		Caller:     "andy",
		Credential: "deadbeef",
		DeadlineMs: 250,
		Meta:       Metadata{"trace-id": "t-1"},
	}}
}

// canonical re-encodes a decoded envelope as JSON: map keys sort, and
// both int64 (v3 decode) and float64 (JSON decode) of the same integer
// print identically, so two semantically equal envelopes canonicalize
// to the same bytes.
func canonical(t testing.TB, env *Envelope) []byte {
	t.Helper()
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	// Normalize escaping through a generic round trip: a replacement
	// rune prints as "�" when the encoder coerces invalid UTF-8
	// but as raw bytes when the string already holds U+FFFD — the
	// same character either way.
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("canonical reparse: %v", err)
	}
	b, err = json.Marshal(v)
	if err != nil {
		t.Fatalf("canonical re-marshal: %v", err)
	}
	return b
}

// bodyOf is frame without its length prefix.
func bodyOf(frame []byte) []byte {
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// frameOf is body behind the length prefix that names n bytes.
func frameOf(n int, body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(n)), body...)
}

func decodeOneFrame(t testing.TB, frame []byte) *Envelope {
	t.Helper()
	env, err := NewFrameReader(bytes.NewReader(frame)).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return env
}

func TestCodecV3RoundTripRequest(t *testing.T) {
	env := testEnvelopeV3(7)
	f, err := EncodeFrameV3(env)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), f.Bytes()...)
	f.Release()
	if b := bodyOf(frame); b[0] != magicV4 {
		t.Fatalf("body starts with %#x, want magic %#x", b[0], magicV4)
	}
	got := decodeOneFrame(t, frame)
	r := got.Request
	if r == nil || r.ID != 7 || r.Service != "links.phil" || r.Method != "Mark" ||
		r.Caller != "andy" || r.Credential != "deadbeef" || r.DeadlineMs != 250 {
		t.Fatalf("round trip: %+v", r)
	}
	if r.Args.String("entity") != "cal.phil/ev42" || r.Meta.Get("trace-id") != "t-1" {
		t.Fatalf("args/meta: %+v %+v", r.Args, r.Meta)
	}
	if inner := r.Args.Sub("args"); inner.String("day") != "2003-04-21" || inner.Int("hour") != 7 || !inner.Bool("ok") {
		t.Fatalf("nested args: %#v", inner)
	}
	var mixed []any
	if err := r.Args.Decode("mixed", &mixed); err != nil || len(mixed) != 4 || mixed[1] != 7.0 {
		t.Fatalf("raw arg: %v, %v", mixed, err)
	}
	if got := r.Args.Strings("who"); len(got) != 2 || got[0] != "phil" {
		t.Fatalf("[]string: %#v", got)
	}
}

// TestCodecV3RoundTripResponse: an OK response's result and a refused
// one's error, code and reason come back as sent; neither frame carries
// the other's fields.
func TestCodecV3RoundTripResponse(t *testing.T) {
	holder, _ := Marshal(Args{Str("holder", "andy"), Strs("queue", []string{"suzy"})})
	for _, sent := range []Response{
		{ID: 99, OK: true, Result: holder},
		{ID: 100, Error: "locked by someone", Code: CodeConflict, Reason: ReasonLockHeld},
	} {
		f, err := EncodeFrameV3(&Envelope{Kind: KindResponse, Response: &sent})
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), f.Bytes()...)
		f.Release()
		if got := decodeOneFrame(t, frame).Response; !reflect.DeepEqual(got, &sent) {
			t.Fatalf("round trip: %+v, sent %+v", got, sent)
		}
		if sent.OK {
			continue
		}
		sent.Result = holder
		f, err = EncodeFrameV3(&Envelope{Kind: KindResponse, Response: &sent})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Bytes(), frame) {
			t.Fatalf("a refused response's result rode its frame: %x, without %x", f.Bytes(), frame)
		}
		f.Release()
	}
}

// TestCodecV3ReasonOnlyOnRefusals: an OK response's frame is its id and
// its result, with no error, code, reason or metadata field, and a
// refused one grows by its reason's bytes alone.
func TestCodecV3ReasonOnlyOnRefusals(t *testing.T) {
	frame := func(r Response) []byte {
		f, err := EncodeFrameV3(&Envelope{Kind: KindResponse, Response: &r})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		return append([]byte(nil), f.Bytes()...)
	}
	tok, _ := Marshal("T-andy-31")
	ok := Response{ID: 7, OK: true, Result: tok}
	// length, magic, kind, id, ok, the result: a string of 9 bytes
	want := append([]byte{15, magicV4, v3KindResponse, 7, 1, v3ValString, 9}, "T-andy-31"...)
	if got := frame(ok); !bytes.Equal(got, want) {
		t.Fatalf("OK frame = %x, want %x", got, want)
	}
	refused := Response{ID: 8, Error: "held", Code: CodeConflict}
	plain := frame(refused)
	refused.Reason = ReasonSlotMeeting
	withReason := frame(refused)
	if d := len(withReason) - len(plain); d != len(ReasonSlotMeeting) {
		t.Fatalf("the reason grew a refused frame by %d bytes, want %d", d, len(ReasonSlotMeeting))
	}
	if got := decodeOneFrame(t, withReason).Response; got.Reason != ReasonSlotMeeting {
		t.Fatalf("decoded reason %q", got.Reason)
	}
}

// TestCodecV3EquivalentToJSON pins semantic equivalence: the same
// envelope decoded from a v3 frame and from a JSON frame canonicalizes
// to identical JSON.
func TestCodecV3EquivalentToJSON(t *testing.T) {
	envs := []*Envelope{
		testEnvelopeV3(3),
		{Kind: KindResponse, Response: &Response{ID: 1, OK: true, Result: Value{kind: kindWords, ws: []uint64{1, 2, math.MaxUint64}}}},
		{Kind: KindResponse, Response: &Response{ID: 7, OK: true, Result: Value{kind: kindJSON, s: `{"slots":[1,2,3]}`}}},
		{Kind: KindResponse, Response: &Response{ID: 8, OK: true, Result: Value{kind: kindString, s: "T-andy-31"}}},
		{Kind: KindResponse, Response: &Response{ID: 9, OK: true}},
		{Kind: KindResponse, Response: &Response{ID: 2, Error: "x", Code: CodeUnavailable}},
		{Kind: KindResponse, Response: &Response{ID: 3, Error: "B holds personal:class", Code: CodeConflict, Reason: ReasonSlotPersonal}},
		{Kind: KindResponse, Response: &Response{ID: 4, Error: "y", Code: CodeConflict, Reason: "from-a-newer-peer"}},
		{Kind: KindRequest, Request: &Request{ID: 6, Service: "e", Method: "m", Args: Args{{Key: "n"}, Float("f", 2.25), Int("neg", -12)}}},
		{Kind: KindRequest, Request: &Request{ID: 0, Service: "s", Method: "m"}}, // all-empty fields
		{Kind: KindRequest, Request: &Request{ID: 5, Service: "s", Method: "m", DeadlineMs: math.MaxUint64}},
	}
	for i, env := range envs {
		jf, err := EncodeFrame(env)
		if err != nil {
			t.Fatalf("env %d: json encode: %v", i, err)
		}
		jframe := append([]byte(nil), jf.Bytes()...)
		jf.Release()
		vf, err := EncodeFrameV3(env)
		if err != nil {
			t.Fatalf("env %d: v3 encode: %v", i, err)
		}
		vframe := append([]byte(nil), vf.Bytes()...)
		vf.Release()
		fromJSON := canonical(t, decodeOneFrame(t, jframe))
		fromV3 := canonical(t, decodeOneFrame(t, vframe))
		if !bytes.Equal(fromJSON, fromV3) {
			t.Fatalf("env %d: codecs diverge:\n json: %s\n   v3: %s", i, fromJSON, fromV3)
		}
	}
}

// TestFrameReaderMixedCodecs interleaves JSON and v3 frames on one
// stream: the reader tells them apart per frame by the first body byte,
// which is what lets the benchmark's wire probe replay either codec
// through the same reader.
func TestFrameReaderMixedCodecs(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 20; i++ {
		codec := CodecJSON
		if i%2 == 1 {
			codec = CodecV3
		}
		f, err := EncodeFrameCodec(testEnvelopeV3(i), codec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(f.Bytes())
		f.Release()
	}
	fr := NewFrameReader(&buf)
	for i := 0; i < 20; i++ {
		env, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Request.ID != uint64(i) {
			t.Fatalf("frame %d decoded id %d", i, env.Request.ID)
		}
	}
}

// TestFrameReaderScratchShrinksAfterLargeFrame pins the fix for the
// scratch-growth bug: one oversized frame must not pin a large buffer
// on the connection, and the retained buffer must shrink back to the
// pool cap (not to zero, which would force reallocation on the next
// ordinary read).
func TestFrameReaderScratchShrinksAfterLargeFrame(t *testing.T) {
	big := &Envelope{Kind: KindRequest, Request: &Request{
		ID: 1, Service: "s", Method: "m",
		Args: Args{Str("blob", string(bytes.Repeat([]byte("x"), 4*poolBufCap)))},
	}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, testEnvelopeV3(2)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	env, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Request.Args.String("blob")) != 4*poolBufCap {
		t.Fatalf("big frame truncated: %d", len(env.Request.Args.String("blob")))
	}
	if cap(fr.scratch) > poolBufCap {
		t.Fatalf("scratch cap %d still pinned above poolBufCap %d", cap(fr.scratch), poolBufCap)
	}
	if cap(fr.scratch) == 0 {
		t.Fatal("scratch dropped to zero; next ordinary read reallocates")
	}
	if env, err = fr.Read(); err != nil || env.Request.ID != 2 {
		t.Fatalf("read after shrink: %+v %v", env, err)
	}
}

func TestDecodeV3RejectsTruncated(t *testing.T) {
	f, err := EncodeFrameV3(testEnvelopeV3(1))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), bodyOf(f.Bytes())...)
	f.Release()
	for n := 0; n < len(body); n++ {
		if _, err := decodeV3(body[:n], nil); err == nil {
			t.Fatalf("truncated body of %d bytes decoded without error", n)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := decodeV3(append(body, 0xFF), nil); err == nil {
		t.Fatal("trailing garbage accepted")
	}

	// A reference needs a table that holds its entry: a frame of names
	// sent before reads through the reader that saw them, and through no
	// other.
	var tab NameTable
	var names []string
	if _, err := decodeV3(bodyOf(encodeThrough(t, &tab, testEnvelopeV3(1))), &names); err != nil {
		t.Fatal(err)
	}
	frame := encodeThrough(t, &tab, testEnvelopeV3(2))
	body = bodyOf(frame)
	if _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadV3Frame) {
		t.Fatalf("a reference read without a table: err = %v, want ErrBadV3Frame", err)
	}
	short := names[:len(names)-1]
	if _, err := decodeV3(body, &short); !errors.Is(err, ErrBadV3Frame) {
		t.Fatalf("a reference past the table's end: err = %v, want ErrBadV3Frame", err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := decodeV3(body[:n], &names); err == nil {
			t.Fatalf("truncated body of %d bytes decoded without error", n)
		}
	}
	if _, err := decodeV3(body, &names); err != nil {
		t.Fatalf("the whole frame: %v", err)
	}
}

// FuzzCodecV3Roundtrip builds a request, an OK response whose result is
// of the kind the input picks, and a refused response, with the reason
// method names, from each input. Each must decode from its binary frame
// equal to what was sent, and from its JSON frame to what renders as the
// same JSON. ReadRequest must decode the request as Read does, and
// refuse the responses and whatever Read refuses.
func FuzzCodecV3Roundtrip(f *testing.F) {
	f.Add("cal.phil", "Book", "andy", "k", "v", int64(42), 1.5, true, uint64(7), uint64(5000), uint8(1))
	f.Add("", "", "", "", "", int64(-1), -0.0, false, uint64(0), uint64(0), uint8(0))
	f.Add("links.u\x80ser", "M\xffark", "a", "\x00", "\xfe\xfd", int64(1<<40), 3.14159, true, uint64(1<<63), uint64(math.MaxUint64), uint8(5))
	f.Add("links.B", string(ReasonSlotPersonal), "A", "conflict", "calendar: B/2003-04-21 14:00 holds personal:class (prio 0)",
		int64(0), 0.0, false, uint64(9), uint64(math.MaxInt64/int64(time.Millisecond)+1), uint8(8))
	f.Add("cal.andy", "GetFreeSlots", "phil", "from", "2003-04-21", int64(35184372088831), 2.5, true, uint64(3), uint64(29998), uint8(8))
	f.Add("links.andy", "Mark", "phil", "args", "T-andy-31", int64(-7), -1e300, false, uint64(1<<20), uint64(1), uint8(6))
	f.Fuzz(func(t *testing.T, service, method, caller, key, sval string, ival int64, fval float64, bval bool, id, deadlineMs uint64, kind uint8) {
		req := &Envelope{Kind: KindRequest, Request: &Request{
			ID: id, Service: service, Method: method, Caller: caller,
			Args: Args(nil).With(
				Str(key, sval),
				Int64("i", ival),
				Float("f", fval),
				Bool("b", bval),
				Sub("deep", Args{Str("s", sval), Raw("list", mustJSON(t, []any{ival, sval, bval}))}),
				Strs("ss", []string{sval, key}),
			),
			DeadlineMs: deadlineMs,
			Meta:       Metadata{key: caller},
		}}
		var result Value
		switch kind % 9 {
		case 1:
			result = Str("", sval).Val
		case 2:
			result = Int64("", ival).Val
		case 3:
			result = Float("", fval).Val
		case 4:
			result = Bool("", bval).Val
		case 5:
			result = Strs("", []string{sval, key}).Val
		case 6:
			result = Sub("", Args(nil).With(Str(key, sval), Int64("i", ival), Strs("ss", []string{key}))).Val
		case 7:
			result = Raw("", mustJSON(t, map[string]any{key: sval, "n": ival})).Val
		case 8:
			result, _ = Marshal([]uint64{uint64(ival), id, deadlineMs}[:kind%4])
		}
		ok := &Envelope{Kind: KindResponse, Response: &Response{ID: id, OK: true, Result: result}}
		refused := &Envelope{Kind: KindResponse, Response: &Response{ID: id, Error: sval, Code: ErrCode(key), Reason: Reason(method)}}
		for _, env := range []*Envelope{req, ok, refused} {
			f, err := EncodeFrameV3(env)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeOneFrame(t, f.Bytes())
			f.Release()
			if !reflect.DeepEqual(got, env) {
				t.Fatalf("sent %+v %+v, decoded %+v %+v", env.Request, env.Response, got.Request, got.Response)
			}
		}
		for _, env := range []*Envelope{req, ok, refused} {
			checkV3Roundtrip(t, env)
		}
	})
}

// oversized is a value no frame can carry.
var oversized = strings.Repeat("x", MaxFrameSize)

func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkV3Roundtrip holds env's v3 frame to its JSON frame, to a stable
// re-encode, and to failing cleanly on every truncation.
func checkV3Roundtrip(t *testing.T, env *Envelope) {
	jf, err := EncodeFrame(env)
	if err != nil {
		t.Skip() // value JSON cannot carry (NaN/Inf); v3 equivalence is defined over JSON-encodable envelopes
	}
	jframe := append([]byte(nil), jf.Bytes()...)
	jf.Release()
	vf, err := EncodeFrameV3(env)
	if err != nil {
		t.Fatalf("v3 encode failed where json succeeded: %v", err)
	}
	vframe := append([]byte(nil), vf.Bytes()...)
	vf.Release()

	fromJSON := decodeOneFrame(t, jframe)
	fromV3 := decodeOneFrame(t, vframe)
	cj, cv := canonical(t, fromJSON), canonical(t, fromV3)
	if !bytes.Equal(cj, cv) {
		t.Fatalf("codecs diverge:\n json: %s\n   v3: %s", cj, cv)
	}

	// Re-encode the decoded envelope through v3 again: must be
	// stable (decode→encode→decode is a fixed point).
	vf2, err := EncodeFrameV3(fromV3)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	vframe2 := append([]byte(nil), vf2.Bytes()...)
	vf2.Release()
	again := decodeOneFrame(t, vframe2)
	if c2 := canonical(t, again); !bytes.Equal(cv, c2) {
		t.Fatalf("v3 re-encode unstable:\n first: %s\nsecond: %s", cv, c2)
	}

	// Every truncation of the v3 body must fail cleanly, never
	// panic: a torn frame is a decode error, not a crash.
	body := bodyOf(vframe)
	for n := 0; n < len(body); n++ {
		if _, err := decodeV3(body[:n], nil); err == nil {
			t.Fatalf("truncated v3 body (%d/%d bytes) decoded without error", n, len(body))
		}
		readRequestBoth(t, frameOf(n, body[:n]))
	}
	readRequestBoth(t, vframe)
}

// readRequestBoth reads one v3 frame through Read and through
// ReadRequest, each on its own reader: ReadRequest must accept exactly
// the requests Read accepts, and decode each into the request Read
// returns.
func readRequestBoth(t *testing.T, frame []byte) {
	t.Helper()
	reader := func() *FrameReader {
		return &FrameReader{r: bytes.NewReader(frame)}
	}
	env, err := reader().Read()
	var req Request
	rerr := reader().ReadRequest(&req)
	isRequest := err == nil && env.Kind == KindRequest
	if (rerr == nil) != isRequest {
		t.Fatalf("ReadRequest: %v; Read: %v, %+v", rerr, err, env)
	}
	if isRequest && !reflect.DeepEqual(&req, env.Request) {
		t.Fatalf("ReadRequest %+v, Read %+v", req, *env.Request)
	}
}

func BenchmarkEncodeFrameV3(b *testing.B) {
	env := testEnvelopeV3(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrameV3(env)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

func BenchmarkFrameReaderV3(b *testing.B) {
	f, err := EncodeFrameV3(testEnvelopeV3(1))
	if err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), f.Bytes()...)
	f.Release()
	big := bytes.Repeat(frame, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	var fr *FrameReader
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			fr = NewFrameReader(bytes.NewReader(big))
		}
		if _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatReader serves the same bytes over and over, as a connection
// that carries the same kind of request all day does.
type repeatReader struct {
	b   []byte
	pos int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.pos:])
	r.pos = (r.pos + n) % len(r.b)
	return n, nil
}

// encodeThrough encodes env through t, as a transport does, and returns
// a copy of the frame.
func encodeThrough(t testing.TB, tab *NameTable, env *Envelope) []byte {
	t.Helper()
	f, err := tab.EncodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	return append([]byte(nil), f.Bytes()...)
}

// TestFrameReaderV3InternsRepeatedNames decodes the Mark request a
// participant receives for one slot reservation (links.markTargetInner
// over calendar.reserveArgs, with the deadline hint the engine stamps),
// encoded through a NameTable as the transport encodes it, and holds the
// steady-state allocation count. Once the connection's first Mark has
// entered them, the service, method, caller and nine keys are references
// into the reader's table and every other string is a substring of one
// copy of the frame, so what is left (4) is the envelope with its
// request, that copy and one slice for each of the two argument lists.
// The hint is a number and the request has no metadata map. As maps of
// boxed values the two lists cost 9.
func TestFrameReaderV3InternsRepeatedNames(t *testing.T) {
	mark := func(id uint64) *Envelope {
		return &Envelope{Kind: KindRequest, Request: &Request{
			ID: id, Service: "links.andy", Method: "Mark", Caller: "phil",
			DeadlineMs: 29998,
			Args: Args{
				Str("entity", "slot/2003-04-22/10"),
				Str("action", "reserve"),
				Str("nid", "N-phil-17"),
				Sub("args", Args{
					Str("meeting", "M-phil-9"),
					Int("priority", 0),
					Bool("allowBump", false),
					Str("day", "2003-04-22"),
					Int("hour", 10),
				}),
			},
		}}
	}
	var tab NameTable
	first := encodeThrough(t, &tab, mark(7))
	warm := encodeThrough(t, &tab, mark(8))
	if len(warm) >= len(first) || len(tab.names) != 12 {
		t.Fatalf("warm Mark %d B after a first of %d B, %d names entered; want it smaller and 12", len(warm), len(first), len(tab.names))
	}
	fr := NewFrameReader(io.MultiReader(bytes.NewReader(first), &repeatReader{b: warm}))
	read := func() {
		env, err := fr.Read()
		if err != nil || env.Request.Method != "Mark" || env.Request.Args.String("nid") != "N-phil-17" || env.Request.DeadlineMs != 29998 {
			t.Fatalf("read: %+v, %v", env, err)
		}
	}
	read() // the first frame fills the table
	if got := testing.AllocsPerRun(200, read); got > 4 {
		t.Fatalf("steady-state v3 decode of a Mark request: %.0f allocs/frame, want <= 4", got)
	}

	// The table is bounded: a peer cannot grow it with ever-new keys.
	var literal *NameTable // a nil table writes every name as a literal
	name := func(s string) (string, error) {
		d := &v3dec{b: literal.appendName(nil, s), names: &fr.dec.names}
		return d.name()
	}
	for i := 0; i < 4*internMaxEntries; i++ {
		if _, err := name("key-" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(fr.dec.names) > internMaxEntries {
		t.Fatalf("name table holds %d entries, cap is %d", len(fr.dec.names), internMaxEntries)
	}
	long := string(bytes.Repeat([]byte{'k'}, internMaxLen+1))
	if s, err := name(long); err != nil || s != long {
		t.Fatalf("long name: %q, %v", s, err)
	}
	if slices.Contains(fr.dec.names, long) {
		t.Fatal("a name longer than internMaxLen was entered")
	}
	read() // and a full table still decodes
}

// commitWithRecord is a Commit as a reservation sends it: the decided
// meeting record rides in its arguments as a typed list.
func commitWithRecord(id uint64) *Envelope {
	return &Envelope{Kind: KindRequest, Request: &Request{
		ID: id, Service: "links.andy", Method: "Commit", Caller: "phil", DeadlineMs: 29998,
		Args: Args{
			Str("entity", "slot:2003-04-22:10"), Str("token", "T-andy-31"), Str("action", "cal.reserve"),
			Sub("args", Args{
				Str("meeting", "M-phil-9"), Int("priority", 0), Bool("allowBump", false), Str("day", "2003-04-22"), Int("hour", 10),
				Sub("rec", Args{
					Str("id", "M-phil-9"), Str("title", "review"), Str("initiator", "phil"), Str("day", "2003-04-22"),
					Int("hour", 10), Str("status", "confirmed"), Int("priority", 0),
					Strs("must", []string{"andy", "suzy"}), Strs("reserved", []string{"phil", "andy", "suzy"}),
					Str("linkID", "L-phil-4"),
				}),
			}),
			Str("nid", "N-phil-17"),
		},
	}}
}

// TestFrameReaderV3CommitRecordAllocs: a Commit carrying its meeting
// record decodes with what a Mark costs (the envelope, the body's copy,
// the top-level list and the action's arguments) plus the record's list
// and one backing its string lists are carved from: 6, where a slice per
// string list made it 7.
func TestFrameReaderV3CommitRecordAllocs(t *testing.T) {
	var tab NameTable
	first := encodeThrough(t, &tab, commitWithRecord(7))
	warm := encodeThrough(t, &tab, commitWithRecord(8))
	fr := NewFrameReader(io.MultiReader(bytes.NewReader(first), &repeatReader{b: warm}))
	read := func() {
		env, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if rec := env.Request.Args.Sub("args").Sub("rec"); rec.String("linkID") != "L-phil-4" || len(rec.Strings("reserved")) != 3 {
			t.Fatalf("read: %+v", rec)
		}
	}
	read() // the first frame fills the table
	if got := testing.AllocsPerRun(200, read); got > 6 {
		t.Fatalf("steady-state v3 decode of a Commit with its record: %.0f allocs/frame, want <= 6", got)
	}
}

// TestDecodeV3StringListsDoNotAlias: the string lists of one frame share
// a backing, each capped at its end, so an append to one list leaves its
// neighbour as it was decoded.
func TestDecodeV3StringListsDoNotAlias(t *testing.T) {
	f, err := EncodeFrameV3(commitWithRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeV3(append([]byte(nil), bodyOf(f.Bytes())...), nil)
	f.Release()
	if err != nil {
		t.Fatal(err)
	}
	rec := env.Request.Args.Sub("args").Sub("rec")
	must, reserved := rec.Strings("must"), rec.Strings("reserved")
	next := unsafe.Add(unsafe.Pointer(unsafe.SliceData(must)), len(must)*int(unsafe.Sizeof("")))
	if cap(must) != len(must) || next != unsafe.Pointer(unsafe.SliceData(reserved)) {
		t.Fatalf("must (len %d, cap %d) is not capped right before reserved in one backing", len(must), cap(must))
	}
	grown := append(must, "beth")
	if want := []string{"phil", "andy", "suzy"}; !slices.Equal(reserved, want) || !slices.Equal(rec.Strings("must"), []string{"andy", "suzy"}) {
		t.Fatalf("after an append to must (%q): reserved = %q, must = %q", grown, reserved, rec.Strings("must"))
	}
}

// TestFrameReaderV3ResponseAllocs holds the decode of the replies a
// Mark gets to their allocation count: an accepted one is the envelope
// with its response and the copy of the frame its token is a substring
// of; a refused one is the envelope and the one copy of the frame its
// error and code are substrings of, and a known reason adds nothing. A
// Commit's ack is the envelope alone.
func TestFrameReaderV3ResponseAllocs(t *testing.T) {
	for _, resp := range []*Response{
		{ID: 6, OK: true, Result: Bool("", true).Val},
		{ID: 7, OK: true, Result: Str("", "T-andy-31").Val},
		{ID: 8, Error: "slot/2003-04-22/10 is held by M-suzy-3", Code: CodeConflict},
		{ID: 9, Error: "slot/2003-04-22/10 is held by M-suzy-3", Code: CodeConflict, Reason: ReasonSlotMeeting},
	} {
		f, err := EncodeFrameV3(&Envelope{Kind: KindResponse, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(&repeatReader{b: append([]byte(nil), f.Bytes()...)})
		f.Release()
		read := func() {
			env, err := fr.Read()
			if err != nil || !reflect.DeepEqual(env.Response, resp) {
				t.Fatalf("read: %+v, %v", env, err)
			}
		}
		want := 2.0
		if resp.Result.kind == kindBool {
			want = 1
		}
		if got := testing.AllocsPerRun(200, read); got > want {
			t.Fatalf("steady-state v3 decode of response %d: %.0f allocs/frame, want <= %.0f", resp.ID, got, want)
		}
	}
}

// TestDecodeV3StringsShareOneCopy: the strings decoded from a frame of at
// most poolBufCap bytes are substrings of one copy of it; those of a
// larger frame are each their own copy, so a small string kept from it
// does not keep the whole frame alive.
func TestDecodeV3StringsShareOneCopy(t *testing.T) {
	for _, tc := range []struct {
		blob  int
		share bool
	}{{blob: 64, share: true}, {blob: 2 * poolBufCap, share: false}} {
		f, err := EncodeFrameV3(&Envelope{Kind: KindRequest, Request: &Request{
			ID: 1, Service: "links.andy", Method: "Mark", Caller: "phil",
			Args: Args{Str("blob", strings.Repeat("x", tc.blob))},
		}})
		if err != nil {
			t.Fatal(err)
		}
		body := append([]byte(nil), bodyOf(f.Bytes())...)
		f.Release()
		env, err := decodeV3(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := env.Request
		// Caller and the blob sit at their offsets from Service in the
		// body exactly when all three point into one copy of it.
		base := uintptr(unsafe.Pointer(unsafe.StringData(r.Service)))
		at := func(s string) bool {
			return uintptr(unsafe.Pointer(unsafe.StringData(s)))-base ==
				uintptr(bytes.Index(body, []byte(s))-bytes.Index(body, []byte(r.Service)))
		}
		if got := at(r.Caller) && at(r.Args.String("blob")); got != tc.share {
			t.Errorf("%d-byte body: strings share one copy = %v, want %v", len(body), got, tc.share)
		}
	}
}

// TestDecodeV3MalformedCountAllocatesLittle: a count in a frame sizes
// nothing beyond what its entries decode, so a malformed frame that
// announces a million entries and holds none costs no more than the
// frame itself. Every count was a size hint once, and a 1 MiB body then
// allocated 16 MiB for a []any and more for a map.
func TestDecodeV3MalformedCountAllocatesLittle(t *testing.T) {
	const size = 1 << 20
	// id 1, empty service, method, caller and credential, no deadline
	args := []byte{magicV4, v3KindRequest, 1, 0, 0, 0, 0, 0, 0}
	for _, tc := range []struct {
		name   string
		prefix []byte    // the body up to the count
		entry  byte      // what each entry starts with; none decodes
		names  *[]string // the reader's name table
	}{
		{"meta", slices.Clone(args[:len(args)-1]), 0xFF, nil},
		{"args", args, 0xFF, nil},
		{"strings", slices.Concat(args, []byte{1, 0, v3ValStrings}), 0xFF, nil},
		{"nested", slices.Concat(args, []byte{1, 0, v3ValMap}), 0xFF, nil},
		{"words", []byte{magicV4, v3KindResponse, 1, 1, v3ValWords}, 0xFF, nil},
		{"reference-without-table", args, 1, nil},
		{"reference-past-end", args, 3, &[]string{"k"}},
		// Kind 3 is no message. It was a one-way event once, and this
		// body an event whose one arg was a list of 2^20 empty strings.
		{"kind-3", []byte{magicV4, 3, 0, 0, 1, 0, v3ValStrings}, 0, nil},
	} {
		body := binary.AppendUvarint(tc.prefix, size)
		body = append(body, bytes.Repeat([]byte{tc.entry}, size)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeV3(body, tc.names)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadV3Frame) {
			t.Fatalf("%s: err = %v, want ErrBadV3Frame", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(body)) {
			t.Errorf("%s: decoding a %d-byte malformed body allocated %d B, want <= %d", tc.name, len(body), got, 2*len(body))
		}
	}
}

// streamEnvelope is frame i of FuzzNameTableStream's stream: a request
// with metadata, a response whose result is args, or a bare request
// with a and b swapped,
// each with a name new to the stream, a and b as names and values, args
// nested in args, a string list and a raw value.
func streamEnvelope(a, b string, i int) *Envelope {
	k := a + strconv.Itoa(i)
	deep := Args(nil).With(Sub(b, Args(nil).With(Str(k, a), Arg{Key: a})), Sub(a, Args{Str(b, k)}), Strs(k, []string{a, b}))
	args := Args(nil).With(Int(a, i), Str(k, b), Sub("deep", deep), Raw("raw", json.RawMessage(`[{"x":null}]`)))
	switch i % 3 {
	case 0:
		return &Envelope{Kind: KindRequest, Request: &Request{
			ID: uint64(i), Service: a, Method: b, Caller: k, Credential: a,
			Meta: Metadata{b: a, k: "m"}, Args: args,
		}}
	case 1:
		return &Envelope{Kind: KindResponse, Response: &Response{ID: uint64(i), OK: true, Result: Sub("", deep).Val}}
	}
	return &Envelope{Kind: KindRequest, Request: &Request{ID: uint64(i), Service: b, Method: a, Args: args}}
}

// FuzzNameTableStream encodes a stream of envelopes through one
// NameTable and reads it through one FrameReader, as one direction of a
// connection carries it. Each frame must decode field for field to what
// the same envelope decodes to without a table, and cost no more bytes;
// both tables must hold the same names after every frame. A second
// reader of the same stream, reading each request with ReadRequest,
// must decode it as Read does and keep the same table, and so must a
// Decoder handed each whole frame held in memory. At frame bad,
// a request whose new names precede a value too large for a frame
// fails, leaves the table as it was, and the same request without that
// value then decodes.
func FuzzNameTableStream(f *testing.F) {
	f.Add("k", "Mark", uint8(200), uint8(100))                           // more than internMaxEntries distinct names
	f.Add("", strings.Repeat("m", internMaxLen), uint8(12), uint8(3))    // names of 0 and 32 bytes
	f.Add(strings.Repeat("n", internMaxLen+1), "x", uint8(12), uint8(0)) // names of 33 bytes
	f.Fuzz(func(t *testing.T, a, b string, n, bad uint8) {
		var tab NameTable
		var stream, again bytes.Buffer
		var want []*Envelope
		var frames [][]byte
		var whole Decoder
		send := func(env *Envelope) {
			plain, err := EncodeFrameV3(env)
			if err != nil {
				t.Fatalf("plain encode: %v", err)
			}
			defer plain.Release()
			w, err := decodeV3(bodyOf(plain.Bytes()), nil)
			if err != nil {
				t.Fatalf("plain decode: %v", err)
			}
			frame := encodeThrough(t, &tab, env)
			if len(frame) > plain.Len() {
				t.Fatalf("frame %d: %d B through the table, %d B without", len(want), len(frame), plain.Len())
			}
			stream.Write(frame)
			again.Write(frame)
			want = append(want, w)
			frames = append(frames, frame)
		}
		fr, inPlace := NewFrameReader(&stream), NewFrameReader(&again)
		for i := 0; i < int(n); i++ {
			if i == int(bad) {
				k := a + strconv.Itoa(i) + "-poison"
				env := &Envelope{Kind: KindRequest, Request: &Request{
					ID: uint64(i), Service: k, Method: b + "-poison", Meta: Metadata{k: a},
					Args: Args{Str("c", oversized)},
				}}
				entries := len(tab.names)
				if _, err := tab.EncodeFrame(env); err == nil || len(tab.names) != entries || len(tab.index) != entries {
					t.Fatalf("unencodable frame: err = %v, table %d -> %d entries (%d indexed)", err, entries, len(tab.names), len(tab.index))
				}
				env.Request.Args = nil
				send(env)
			}
			send(streamEnvelope(a, b, i))
			for len(want) > 0 {
				got, err := fr.Read()
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if !reflect.DeepEqual(got, want[0]) {
					t.Fatalf("through the table %+v, without %+v", got, want[0])
				}
				if got.Kind == KindRequest {
					var req Request
					if err := inPlace.ReadRequest(&req); err != nil || !reflect.DeepEqual(&req, got.Request) {
						t.Fatalf("ReadRequest %+v, %v; Read %+v", req, err, got.Request)
					}
				} else if _, err := inPlace.Read(); err != nil {
					t.Fatalf("read: %v", err)
				}
				if w, err := whole.Decode(frames[0]); err != nil || !reflect.DeepEqual(w, got) {
					t.Fatalf("Decode %+v, %v; Read %+v", w, err, got)
				}
				want, frames = want[1:], frames[1:]
			}
			if !slices.Equal(tab.names, fr.dec.names) || len(fr.dec.names) > internMaxEntries {
				t.Fatalf("tables differ after frame %d:\n send %q\n read %q", i, tab.names, fr.dec.names)
			}
			if !slices.Equal(fr.dec.names, inPlace.dec.names) || !slices.Equal(fr.dec.names, whole.names) {
				t.Fatalf("readers' tables differ after frame %d:\n Read %q\n ReadRequest %q\n Decode %q", i, fr.dec.names, inPlace.dec.names, whole.names)
			}
		}
	})
}
