package metrics

import "sync/atomic"

// WireStats counts frame-level traffic on the real socket transport:
// frames and bytes in each direction, and the socket writes that sent
// them (one per frame). All methods are safe for concurrent use;
// counting is a handful of atomic adds per frame, cheap enough to leave
// on.
type WireStats struct {
	framesSent atomic.Int64
	bytesSent  atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64
	flushes    atomic.Int64
}

// defaultWire is the process-wide transport counter set.
var defaultWire = &WireStats{}

// Wire returns the process-wide transport frame counters.
func Wire() *WireStats { return defaultWire }

// RecordSend accounts frames queued for the wire (bytes include the
// length prefixes).
func (w *WireStats) RecordSend(frames, bytes int) {
	if w == nil {
		return
	}
	w.framesSent.Add(int64(frames))
	w.bytesSent.Add(int64(bytes))
}

// RecordRecv accounts frames read off the wire.
func (w *WireStats) RecordRecv(frames, bytes int) {
	if w == nil {
		return
	}
	w.framesRecv.Add(int64(frames))
	w.bytesRecv.Add(int64(bytes))
}

// RecordFlush accounts one socket write.
func (w *WireStats) RecordFlush() {
	if w != nil {
		w.flushes.Add(1)
	}
}

// WireSnapshot is a point-in-time copy of WireStats.
type WireSnapshot struct {
	FramesSent int64 `json:"framesSent"`
	BytesSent  int64 `json:"bytesSent"`
	FramesRecv int64 `json:"framesRecv"`
	BytesRecv  int64 `json:"bytesRecv"`
	Flushes    int64 `json:"flushes"`
}

// Snapshot copies the counters.
func (w *WireStats) Snapshot() WireSnapshot {
	return WireSnapshot{
		FramesSent: w.framesSent.Load(),
		BytesSent:  w.bytesSent.Load(),
		FramesRecv: w.framesRecv.Load(),
		BytesRecv:  w.bytesRecv.Load(),
		Flushes:    w.flushes.Load(),
	}
}
