package links

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// Lock tokens and negotiation ids are minted constantly on the hot
// negotiation path (one token per mark, one id per negotiation), and a
// crypto/rand read per mint is measurable there. Instead the process
// draws one 64-bit random prefix at startup and appends a monotonic
// counter: ids stay unique across processes with the same probability
// the old scheme had (the prefix collides as rarely as two random
// tokens did) and unique within the process by construction, at the
// cost of one small allocation.
//
// Two counters, not one. Link and negotiation ids are primary keys:
// store.Table iterates them in key order, the journal sweep processes
// negotiations in id order, and promoteWaiters breaks priority ties by
// id — so their mint order must be reproducible for a same-seed
// simulation run to replay identically. Those ids are only minted from
// serially executed paths (a coordinator drives one negotiation at a
// time). Lock tokens, by contrast, are minted concurrently (the commit
// fan-out and late-commit paths) and are only ever compared for
// equality — sharing one counter would let token traffic perturb the
// id sequence.
var (
	idPrefix   = mintPrefix()
	tokCounter atomic.Uint64
	seqCounter atomic.Uint64
)

func mintPrefix() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process.
		panic("links: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// mintID returns a process-unique opaque id (lock tokens).
func mintID() string {
	return idPrefix + "-" + strconv.FormatUint(tokCounter.Add(1), 36)
}

// mintOrdered returns tag and a process-unique id whose lexicographic
// order equals mint order (the counter is zero-padded to 12 digits), so
// store keys built from it iterate in creation order.
func mintOrdered(tag string) string {
	var buf [48]byte
	b := append(append(append(buf[:0], tag...), idPrefix...), '-')
	return string(AppendPadded(b, seqCounter.Add(1), 12))
}

// AppendPadded appends n in decimal, zero-padded to width digits: what
// fmt's %0*d writes for it.
func AppendPadded(b []byte, n uint64, width int) []byte {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], n, 10)
	for i := len(digits); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}
