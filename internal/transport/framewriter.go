package transport

import (
	"io"
	"sync"

	"repro/internal/metrics"
)

// frameWriter puts the encoded frames of concurrent writers on one
// socket: a frame is one Write, whole, in the order writers took the
// lock. A nil return means "handed to the kernel". The first write
// error is terminal — closing the socket is how a connection fails its
// writer, and how it gets back one that is stuck in Write.
type frameWriter struct {
	w     io.Writer
	stats *metrics.WireStats

	mu  sync.Mutex
	err error // first write error
}

// write returns once frame is written (or refused), so the caller may
// release a pooled buffer straight away.
func (fw *frameWriter) write(frame []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	fw.stats.RecordSend(1, len(frame))
	_, fw.err = fw.w.Write(frame)
	fw.stats.RecordFlush()
	return fw.err
}
