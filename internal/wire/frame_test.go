package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
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
	if len(b) < 4 {
		t.Fatalf("frame too short: %d", len(b))
	}
	n := binary.BigEndian.Uint32(b[:4])
	if int(n) != len(b)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(b)-4)
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
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	fr := NewFrameReader(bytes.NewReader(hdr[:]))
	if _, err := fr.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameReaderShortBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
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

// TestDecodeFrame: a whole frame in memory decodes as a FrameReader
// decodes it, v3 and JSON alike, and the envelope does not alias the
// frame; a frame whose prefix is not its length is ErrShortFrame.
func TestDecodeFrame(t *testing.T) {
	for _, encode := range []func(*Envelope) (*FrameBuffer, error){EncodeFrameV3, EncodeFrame} {
		f, err := encode(testEnvelope(7))
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), f.Bytes()...)
		f.Release()
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewFrameReader(bytes.NewReader(frame)).Read()
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{nil, frame[:3], frame[:len(frame)-1], append(frame[:len(frame):len(frame)], 0)} {
			if _, err := DecodeFrame(bad); !errors.Is(err, ErrShortFrame) {
				t.Errorf("a frame of %d bytes: %v, want ErrShortFrame", len(bad), err)
			}
		}
		clear(frame)
		if got.Request.Service != "cal.phil" || got.Request.Args.Int("hour") != 7 || got.Request.Caller != want.Request.Caller ||
			got.Request.Meta["trace-id"] != want.Request.Meta["trace-id"] {
			t.Fatalf("DecodeFrame read %+v, a FrameReader %+v", got.Request, want.Request)
		}
	}
}
