package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// frameWriter puts the encoded frames of concurrent writers on one
// socket: a frame is one Write, whole, in the order writers took the
// lock. A nil return means "handed to the kernel". The first write
// error is terminal — closing the socket is how a connection fails its
// writer, and how it gets back one that is stuck in Write.
type frameWriter struct {
	w     io.Writer
	stats *metrics.WireStats

	mu    sync.Mutex
	err   error          // first write error
	names wire.NameTable // this direction's sending half; encoded under mu
}

// errEncode marks a frame that could not be encoded: that frame's
// failure, not the connection's.
var errEncode = errors.New("transport: encode")

// writeEnvelope encodes env through the connection's name table and
// writes it as one Write, both under the lock, so the table's entries
// are made in the order the peer reads them. It returns once the frame
// is written or refused. A frame that fails to encode is an errEncode
// and leaves the table and the connection as they were.
func (fw *frameWriter) writeEnvelope(env *wire.Envelope) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	f, err := fw.names.EncodeFrame(env)
	if err != nil {
		return fmt.Errorf("%w: %w", errEncode, err)
	}
	fw.stats.RecordSend(1, f.Len())
	_, fw.err = fw.w.Write(f.Bytes())
	fw.stats.RecordFlush()
	f.Release()
	return fw.err
}
