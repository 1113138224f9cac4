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
