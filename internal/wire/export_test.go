package wire

import "io"

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
// table.
func ReadFrame(r io.Reader) (*Envelope, error) {
	fr := FrameReader{r: r}
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return decodeBody(body, nil)
}
