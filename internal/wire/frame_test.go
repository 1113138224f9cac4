package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

func testEnvelope(i int) *Envelope {
	return &Envelope{Kind: KindRequest, Request: &Request{
		ID: uint64(i), Service: "cal.phil", Method: "ListMeetings",
		Args:       Args{Str("day", "2003-04-21"), Int("hour", i)},
		Caller:     "andy",
		DeadlineMs: 250,
		Meta:       Metadata{"trace-id": "t-1"},
	}}
}

func TestEncodeFrameMatchesWriteFrame(t *testing.T) {
	env := testEnvelope(7)
	f, err := EncodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()

	b := f.Bytes()
	n, k := binary.Uvarint(b)
	if k <= 0 || int(n) != len(b)-k {
		t.Fatalf("length prefix %d in %d bytes, body %d", n, k, len(b)-k)
	}
	// The body must decode through the v1 reader: same wire format.
	got, err := ReadFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRequest || got.Request.Service != "cal.phil" || got.Request.Args.Int("hour") != 7 {
		t.Fatalf("round trip mismatch: %+v", got.Request)
	}
}

func TestFrameReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	const n = 50
	for i := 0; i < n; i++ {
		if err := WriteFrame(&buf, testEnvelope(i)); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(buf.Len())
	fr := NewFrameReader(&buf)
	for i := 0; i < n; i++ {
		env, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Request.ID != uint64(i) || env.Request.Args.Int("hour") != i {
			t.Fatalf("frame %d decoded as %+v", i, env.Request)
		}
	}
	if _, err := fr.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after %d frames, got %v", n, err)
	}
	if fr.Bytes != total {
		t.Fatalf("counted %d bytes of %d", fr.Bytes, total)
	}
}

// TestFrameReaderEnvelopeSurvivesNextRead pins the no-aliasing
// guarantee: a decoded envelope must stay intact after the scratch
// buffer is reused by the next Read.
func TestFrameReaderEnvelopeSurvivesNextRead(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := WriteFrame(&buf, testEnvelope(i)); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	first, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	if first.Request.ID != 0 || first.Request.Args.String("day") != "2003-04-21" {
		t.Fatalf("first envelope corrupted by second read: %+v", first.Request)
	}
}

func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(binary.AppendUvarint(nil, MaxFrameSize+1)))
	if _, err := fr.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameReaderShortBody(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(100)
	buf.WriteString("{}") // far fewer than 100 bytes
	fr := NewFrameReader(&buf)
	if _, err := fr.Read(); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestFrameBufferReleaseReuse(t *testing.T) {
	f1, err := EncodeFrame(testEnvelope(1))
	if err != nil {
		t.Fatal(err)
	}
	b1 := append([]byte(nil), f1.Bytes()...)
	f1.Release()
	f2, err := EncodeFrame(testEnvelope(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	if !bytes.Equal(b1, f2.Bytes()) {
		t.Fatal("pooled buffer reuse changed the encoding")
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	env := testEnvelope(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(env)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

func BenchmarkFrameReader(b *testing.B) {
	var one bytes.Buffer
	if err := WriteFrame(&one, testEnvelope(1)); err != nil {
		b.Fatal(err)
	}
	frame := one.Bytes()
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

// TestDecodeFrame: a whole frame in memory decodes through a Decoder as
// a FrameReader decodes it, v3 and JSON alike, a request into the
// caller's object too, and the envelope does not alias the frame; a
// frame whose prefix is not its length is ErrShortFrame.
func TestDecodeFrame(t *testing.T) {
	for i, encode := range []func(*Envelope) (*FrameBuffer, error){EncodeFrameV3, EncodeFrame} {
		f, err := encode(testEnvelope(7))
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), f.Bytes()...)
		f.Release()
		got, err := new(Decoder).Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewFrameReader(bytes.NewReader(frame)).Read()
		if err != nil {
			t.Fatal(err)
		}
		var req Request
		switch err := new(Decoder).DecodeRequest(frame, &req); {
		case i == 0 && (err != nil || !reflect.DeepEqual(&req, want.Request)):
			t.Fatalf("DecodeRequest read %+v, %v; a FrameReader %+v", req, err, want.Request)
		case i == 1 && !errors.Is(err, ErrBadV3Frame): // a JSON body is no request
			t.Fatalf("DecodeRequest of a JSON frame: %v, want ErrBadV3Frame", err)
		}
		for _, bad := range [][]byte{nil, frame[:3], frame[:len(frame)-1], append(frame[:len(frame):len(frame)], 0)} {
			if _, err := new(Decoder).Decode(bad); !errors.Is(err, ErrShortFrame) {
				t.Errorf("a frame of %d bytes: %v, want ErrShortFrame", len(bad), err)
			}
			if err := new(Decoder).DecodeRequest(bad, &req); !errors.Is(err, ErrShortFrame) {
				t.Errorf("a request frame of %d bytes: %v, want ErrShortFrame", len(bad), err)
			}
		}
		clear(frame)
		if got.Request.Service != "cal.phil" || got.Request.Args.Int("hour") != 7 || got.Request.Caller != want.Request.Caller ||
			got.Request.Meta["trace-id"] != want.Request.Meta["trace-id"] {
			t.Fatalf("Decode read %+v, a FrameReader %+v", got.Request, want.Request)
		}
	}
}

// TestFramePrefix: a reader and a Decoder refuse the same prefixes. One
// that names more than MaxFrameSize is refused at the byte that makes it
// do so, with no room made for a body and no byte after it read; one
// longer than MaxFrameSize's uvarint is refused at its last byte allowed;
// one torn by the end of the stream is ErrShortFrame. A prefix that
// arrives a byte per read decodes.
func TestFramePrefix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prefix []byte
		want   error
		read   int // the bytes a reader takes before it refuses
	}{
		{"over the limit", binary.AppendUvarint(nil, MaxFrameSize+1), ErrFrameTooLarge, 4},
		{"over the limit before its end", []byte{0x80, 0x80, 0x80, 0x89, 0x01}, ErrFrameTooLarge, 4},
		{"far over the limit", binary.AppendUvarint(nil, math.MaxUint64), ErrFrameTooLarge, 4},
		{"longer than a prefix", []byte{0x80, 0x80, 0x80, 0x80, 0x00}, errLongPrefix, 4},
		{"torn", []byte{0x80, 0x80}, ErrShortFrame, 2},
	} {
		r := bytes.NewReader(append(tc.prefix, bytes.Repeat([]byte{'{'}, 64)...))
		if tc.want == ErrShortFrame {
			r = bytes.NewReader(tc.prefix)
		}
		fr := &FrameReader{r: r}
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			r.Seek(0, io.SeekStart)
			_, err = fr.Read()
		})
		if !errors.Is(err, tc.want) || allocs != 0 || fr.scratch != nil {
			t.Errorf("%s: Read: %v with %.0f allocs and %d bytes of scratch, want %v and none", tc.name, err, allocs, cap(fr.scratch), tc.want)
		}
		if read := int(r.Size()) - r.Len(); read != tc.read {
			t.Errorf("%s: the reader took %d bytes, want %d", tc.name, read, tc.read)
		}
		if _, err := new(Decoder).Decode(append(tc.prefix, '{', '}')); !errors.Is(err, tc.want) && tc.want != ErrShortFrame {
			t.Errorf("%s: Decode: %v, want %v", tc.name, err, tc.want)
		}
	}

	// A frame of 300 bytes has a prefix of two; a byte per read still
	// delivers both, and the frame.
	env := &Envelope{Kind: KindRequest, Request: &Request{ID: 9, Service: "s", Method: "m", Args: Args{Str("x", strings.Repeat("y", 300))}}}
	f, err := EncodeFrameV3(env)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), f.Bytes()...)
	f.Release()
	if n, k := binary.Uvarint(frame); k != 2 || int(n) != len(frame)-2 {
		t.Fatalf("a %d-byte frame has a prefix of %d bytes naming %d", len(frame), k, n)
	}
	fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(frame)))
	got, err := fr.Read()
	if err != nil || got.Request.Args.String("x") != env.Request.Args.String("x") || fr.Bytes != int64(len(frame)) {
		t.Fatalf("a byte per read: %v, %d bytes counted of %d", err, fr.Bytes, len(frame))
	}
}

// TestOldVersionRefused: a body of format v3 (version byte 0xB5) is
// refused whole, by a reader, by ReadRequest and by a Decoder: there
// is no converter.
func TestOldVersionRefused(t *testing.T) {
	f, err := EncodeFrameV3(testEnvelope(1))
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), f.Bytes()...)
	f.Release()
	body := bodyOf(frame)
	body[0] = 0xB5
	if _, err := new(Decoder).Decode(frame); !errors.Is(err, ErrBadV3Frame) {
		t.Errorf("Decode: %v, want ErrBadV3Frame", err)
	}
	if err := new(Decoder).DecodeRequest(frame, new(Request)); !errors.Is(err, ErrBadV3Frame) {
		t.Errorf("DecodeRequest: %v, want ErrBadV3Frame", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(frame)).Read(); !errors.Is(err, ErrBadV3Frame) {
		t.Errorf("Read: %v, want ErrBadV3Frame", err)
	}
	var req Request
	if err := NewFrameReader(bytes.NewReader(frame)).ReadRequest(&req); !errors.Is(err, ErrBadV3Frame) {
		t.Errorf("ReadRequest: %v, want ErrBadV3Frame", err)
	}
}

// TestResultDoesNotAliasFrameBuffer: the string, string-list and word
// results a reader decodes stay as they were once the reader's scratch
// buffer holds the next frame, and point into none of it.
func TestResultDoesNotAliasFrameBuffer(t *testing.T) {
	results := []Value{
		Str("", "T-andy-31").Val,
		Strs("", []string{"andy", "suzy"}).Val,
		Sub("", Args{Str("holder", "andy")}).Val,
		{kind: kindWords, ws: []uint64{35184372088831}},
	}
	var stream bytes.Buffer
	for i, res := range results {
		f, err := EncodeFrameV3(&Envelope{Kind: KindResponse, Response: &Response{ID: uint64(i), OK: true, Result: res}})
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(f.Bytes())
		f.Release()
	}
	fr := NewFrameReader(&stream)
	var got []Value
	for range results {
		env, err := fr.Read()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, env.Response.Result)
		scratch := fr.scratch[:cap(fr.scratch)]
		lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(scratch))), uintptr(unsafe.Pointer(unsafe.SliceData(scratch)))+uintptr(len(scratch))
		in := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
		v := env.Response.Result
		if in(unsafe.Pointer(unsafe.StringData(v.s))) || in(unsafe.Pointer(unsafe.SliceData(v.ws))) ||
			len(v.ss) > 0 && in(unsafe.Pointer(unsafe.StringData(v.ss[0]))) ||
			len(v.sub) > 0 && in(unsafe.Pointer(unsafe.StringData(v.sub[0].Val.s))) {
			t.Fatalf("result %d points into the reader's scratch buffer", len(got)-1)
		}
		clear(scratch)
	}
	if !reflect.DeepEqual(got, results) {
		t.Fatalf("after the reads: %+v, sent %+v", got, results)
	}
}
