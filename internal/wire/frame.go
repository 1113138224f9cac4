package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame buffers: an encoder writes the length prefix and the body into
// one pooled buffer, so a frame is a single Write, and a per-connection
// FrameReader reuses its scratch buffer between reads. The prefix is the
// body's length as a uvarint, at most maxPrefix bytes: an encoder leaves
// that room in front of the body and writes the prefix right before it
// once the body is done, so nothing is moved.

// maxPrefix is the longest length prefix: the uvarint of MaxFrameSize.
const maxPrefix = 4

var errLongPrefix = errors.New("wire: frame length prefix longer than MaxFrameSize's")

// poolBufCap caps the capacity of buffers returned to the pools so a
// single huge frame (a bulk snapshot, a big group result) does not pin
// megabytes inside the pool forever.
const poolBufCap = 64 << 10

// FrameBuffer is a pooled, encoded frame: length prefix and body in one
// contiguous byte slice, ready for a single Write. Obtain with an
// encoder (NameTable.EncodeFrame), hand Bytes to the socket, then Release.
type FrameBuffer struct {
	buf []byte
	off int // where the prefix starts in buf
}

// Bytes returns the full encoded frame (prefix + body).
func (f *FrameBuffer) Bytes() []byte { return f.buf[f.off:] }

// Len returns the encoded frame size in bytes.
func (f *FrameBuffer) Len() int { return len(f.buf) - f.off }

// Release returns the buffer to the encode pool. The caller must not
// touch Bytes afterwards.
func (f *FrameBuffer) Release() {
	if cap(f.buf) > poolBufCap {
		// Oversized one-off: let the GC have it instead of bloating
		// the pool.
		f.buf = nil
	}
	f.buf, f.off = f.buf[:0], 0
	framePool.Put(f)
}

var framePool = sync.Pool{New: func() any { return new(FrameBuffer) }}

// newFrame takes a FrameBuffer from the pool with room for the prefix
// in front of the body the caller appends.
func newFrame() *FrameBuffer {
	f := framePool.Get().(*FrameBuffer)
	f.buf = append(f.buf[:0], make([]byte, maxPrefix)...)
	return f
}

// seal writes the prefix of the body after newFrame's room, or releases
// f and fails if the body is too large for a frame.
func (f *FrameBuffer) seal() (*FrameBuffer, error) {
	n := uint64(len(f.buf) - maxPrefix)
	if n > MaxFrameSize {
		f.Release()
		return nil, ErrFrameTooLarge
	}
	var p [maxPrefix]byte
	k := binary.PutUvarint(p[:], n)
	f.off = maxPrefix - k
	copy(f.buf[f.off:], p[:k])
	return f, nil
}

// frameWriter adapts a FrameBuffer to io.Writer for json.Encoder.
type frameWriter FrameBuffer

func (w *frameWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// EncodeFrame marshals env into a pooled FrameBuffer: the length prefix
// followed by a JSON body, as one contiguous slice. It is the reference
// encoding the binary one is measured against (see Codec); no transport
// sends it.
func EncodeFrame(env *Envelope) (*FrameBuffer, error) {
	f := newFrame()
	enc := json.NewEncoder((*frameWriter)(f))
	if err := enc.Encode(env); err != nil {
		f.Release()
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return f.seal()
}

// readPrefix reads a frame's length prefix, and returns the body's
// length and the prefix's. It refuses one that names more than
// MaxFrameSize at the byte that makes it, one longer than maxPrefix
// bytes, and one the end cuts (ErrShortFrame).
func readPrefix(next func() (byte, error)) (n uint64, size int, err error) {
	for size < maxPrefix {
		c, err := next()
		if err != nil {
			if size > 0 && errors.Is(err, io.EOF) {
				err = ErrShortFrame
			}
			return 0, 0, err
		}
		n |= uint64(c&0x7f) << (7 * size)
		size++
		if n > MaxFrameSize {
			return 0, 0, ErrFrameTooLarge
		}
		if c < 0x80 {
			return n, size, nil
		}
	}
	return 0, 0, errLongPrefix
}

// FrameReader reads length-prefixed frames off one connection, reusing
// an internal scratch buffer between reads, and decodes each through the
// connection's Decoder, so it reads the frames of one NameTable, or of
// none. Bind one FrameReader per connection; it is not safe for
// concurrent use.
type FrameReader struct {
	r       byteReader // a bufio.Reader, but in ReadFrame's reader of one frame
	scratch []byte
	dec     Decoder

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

type byteReader interface {
	io.Reader
	io.ByteReader
}

// Read reads the next frame and decodes it as Decoder.Decode does.
func (fr *FrameReader) Read() (*Envelope, error) {
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return decodeBody(body, &fr.dec.names)
}

// ReadRequest reads the next frame and decodes it into r as
// Decoder.DecodeRequest does.
func (fr *FrameReader) ReadRequest(r *Request) error {
	body, err := fr.next()
	if err != nil {
		return err
	}
	return fr.dec.request(body, r)
}

// next reads the next frame's body into the scratch buffer, once its
// prefix is read and checked.
func (fr *FrameReader) next() ([]byte, error) {
	size, prefix, err := readPrefix(fr.r.ReadByte)
	if err != nil {
		return nil, err
	}
	n := int(size)
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
	fr.Bytes += int64(prefix + n)
	return body, nil
}

// Decoder is the receiving half of one direction of a connection's name
// table: it enters the literal names of the frames it decodes by the
// rule the peer's NameTable enters them, so it decodes the frames of one
// NameTable, in the order they were encoded. A FrameReader decodes
// through one; a connection held in memory calls it on whole frames. Not
// safe for concurrent use.
type Decoder struct {
	names []string
}

// Decode decodes a whole frame held in memory, prefix and body: a binary
// frame, or the JSON reference codec's. The envelope does not alias
// frame (JSON decoding copies what it keeps). A frame whose prefix is not
// its body's length is ErrShortFrame.
func (d *Decoder) Decode(frame []byte) (*Envelope, error) {
	body, err := unframe(frame)
	if err != nil {
		return nil, err
	}
	return decodeBody(body, &d.names)
}

// DecodeRequest decodes a whole frame held in memory, a binary request
// or else refused, into the caller's r, as Decode would: a server
// decodes each request into the object that serves it. r's top-level
// Args slice is reused when it has room, so nothing may still hold it.
func (d *Decoder) DecodeRequest(frame []byte, r *Request) error {
	body, err := unframe(frame)
	if err != nil {
		return err
	}
	return d.request(body, r)
}

func (d *Decoder) request(body []byte, r *Request) error {
	if len(body) < 2 || body[0] != magicV4 || body[1] != v3KindRequest {
		return ErrBadV3Frame
	}
	dec := &v3dec{b: body, pos: 2, names: &d.names}
	if err := dec.request(r); err != nil || dec.pos == len(dec.b) {
		return err
	}
	return ErrBadV3Frame
}

// unframe returns the body of a whole frame, once its prefix is read and
// checked against the body's length.
func unframe(frame []byte) ([]byte, error) {
	r := bytes.NewReader(frame)
	n, _, err := readPrefix(r.ReadByte)
	if err == io.EOF || err == nil && n != uint64(r.Len()) {
		return nil, ErrShortFrame
	} else if err != nil {
		return nil, err
	}
	return frame[len(frame)-r.Len():], nil
}

// decodeBody decodes one frame body: the JSON reference codec's when it
// starts with '{', and otherwise binary, which decodeV3 refuses unless
// it starts with this format's version byte. names is the reader's name
// table, nil for none.
func decodeBody(body []byte, names *[]string) (*Envelope, error) {
	if len(body) == 0 || body[0] != '{' {
		return decodeV3(body, names)
	}
	env := new(Envelope)
	if err := json.Unmarshal(body, env); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return env, nil
}
