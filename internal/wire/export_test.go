package wire

import (
	"bufio"
	"io"
)

// WriteFrame encodes env with the JSON reference codec and writes it as
// one length-prefixed frame in a single Write.
func WriteFrame(w io.Writer, env *Envelope) error {
	f, err := EncodeFrame(env)
	if err != nil {
		return err
	}
	_, err = w.Write(f.Bytes())
	f.Release()
	return err
}

// ReadFrame reads one length-prefixed frame and decodes it, with no name
// table. It reads no further than the frame from a reader that reads a
// byte at a time (a bytes.Reader, a bytes.Buffer).
func ReadFrame(r io.Reader) (*Envelope, error) {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	fr := FrameReader{r: br}
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return decodeBody(body, nil)
}

// EncodeFrameV3 encodes env as a binary frame with no name table: every
// name is a literal, so any Decoder, or ReadFrame, reads the frame. It is
// the no-table reference the name-table tests compare against.
func EncodeFrameV3(env *Envelope) (*FrameBuffer, error) {
	return encodeV3(env, nil)
}

// DecodeFrame decodes a whole frame held in memory, prefix and body, with
// no name table, as ReadFrame decodes one it has read. The envelope does
// not alias frame.
func DecodeFrame(frame []byte) (*Envelope, error) {
	body, err := unframe(frame)
	if err != nil {
		return nil, err
	}
	return decodeBody(body, nil)
}
