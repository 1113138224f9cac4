package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame buffers: an encoder writes the length prefix and the body into
// one pooled buffer, so a frame is a single Write, and a per-connection
// FrameReader reuses its scratch buffer between reads.

// poolBufCap caps the capacity of buffers returned to the pools so a
// single huge frame (a bulk snapshot, a big group result) does not pin
// megabytes inside the pool forever.
const poolBufCap = 64 << 10

// FrameBuffer is a pooled, encoded frame: length prefix and body in one
// contiguous byte slice, ready for a single Write. Obtain with an
// encoder (NameTable.EncodeFrame), hand Bytes to the socket, then Release.
type FrameBuffer struct {
	buf []byte
}

// Bytes returns the full encoded frame (prefix + body).
func (f *FrameBuffer) Bytes() []byte { return f.buf }

// Len returns the encoded frame size in bytes.
func (f *FrameBuffer) Len() int { return len(f.buf) }

// Release returns the buffer to the encode pool. The caller must not
// touch Bytes afterwards.
func (f *FrameBuffer) Release() {
	if cap(f.buf) > poolBufCap {
		// Oversized one-off: let the GC have it instead of bloating
		// the pool.
		f.buf = nil
	}
	f.buf = f.buf[:0]
	framePool.Put(f)
}

var framePool = sync.Pool{New: func() any { return new(FrameBuffer) }}

// frameWriter adapts a FrameBuffer to io.Writer for json.Encoder.
type frameWriter FrameBuffer

func (w *frameWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// EncodeFrame marshals env into a pooled FrameBuffer: the 4-byte
// length prefix followed by a JSON body, as one contiguous slice. It is
// the reference encoding v3 is measured against (see Codec); no
// transport sends it.
func EncodeFrame(env *Envelope) (*FrameBuffer, error) {
	f := framePool.Get().(*FrameBuffer)
	f.buf = append(f.buf[:0], 0, 0, 0, 0) // length backpatched below
	enc := json.NewEncoder((*frameWriter)(f))
	if err := enc.Encode(env); err != nil {
		f.Release()
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	n := len(f.buf) - 4
	if n > MaxFrameSize {
		f.Release()
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(f.buf[:4], uint32(n))
	return f, nil
}

// FrameReader decodes length-prefixed frames from one connection,
// reusing an internal scratch buffer between reads. It decodes v3
// bodies and, for the reference codec's sake, JSON ones, and it holds
// the receiving half of the connection's name table, so it reads the
// frames of one NameTable, or of none. Bind one FrameReader per
// connection; it is not safe for concurrent use.
type FrameReader struct {
	r       io.Reader // a bufio.Reader, but in ReadFrame's reader of one frame
	hdr     [4]byte   // here rather than on next's stack, which io.ReadFull would move to the heap
	scratch []byte
	names   []string // receiving half of the connection's name table, see NameTable

	// Bytes counts every frame read whole; the transport feeds it
	// into metrics.
	Bytes int64
}

// NewFrameReader creates a FrameReader over r. If r is already a
// *bufio.Reader it is used directly.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &FrameReader{r: br}
}

// Read decodes the next frame. The returned Envelope does not alias
// the scratch buffer (JSON decoding copies what it keeps), so it
// remains valid across subsequent Reads.
func (fr *FrameReader) Read() (*Envelope, error) {
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return decodeBody(body, &fr.names)
}

// ReadRequest decodes the next frame, a v3 request or else refused, into
// the caller's r, as Read would: a server, sent nothing but requests,
// decodes each into the object that serves it.
func (fr *FrameReader) ReadRequest(r *Request) error {
	body, err := fr.next()
	if err == nil && (len(body) < 2 || body[0] != magicV3 || body[1] != v3KindRequest) {
		err = ErrBadV3Frame
	}
	if err != nil {
		return err
	}
	d := &v3dec{b: body, pos: 2, names: &fr.names}
	if err := d.request(r); err != nil || d.pos == len(d.b) {
		return err
	}
	return ErrBadV3Frame
}

// next reads the next frame's body into the scratch buffer.
func (fr *FrameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	body := fr.scratch[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrShortFrame
		}
		return nil, err
	}
	if cap(fr.scratch) > poolBufCap {
		// Do not let one oversized frame pin its capacity for the
		// connection's lifetime: shrink back to the pool cap so
		// subsequent normal-sized reads are still allocation-free.
		// body keeps the old array alive until the decode copies
		// what it needs.
		fr.scratch = make([]byte, poolBufCap)
	}
	fr.Bytes += int64(4 + n)
	return body, nil
}

// DecodeFrame decodes a whole frame held in memory, prefix and body, as
// a FrameReader with no name table decodes one it has read. The envelope
// does not alias frame.
func DecodeFrame(frame []byte) (*Envelope, error) {
	if len(frame) < 4 || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
		return nil, ErrShortFrame
	}
	return decodeBody(frame[4:], nil)
}

// decodeBody decodes one frame body: v3 when it starts with the version
// byte, the JSON reference codec otherwise. names is the reader's name
// table, nil for none.
func decodeBody(body []byte, names *[]string) (*Envelope, error) {
	if len(body) > 0 && body[0] == magicV3 {
		return decodeV3(body, names)
	}
	env := new(Envelope)
	if err := json.Unmarshal(body, env); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return env, nil
}
