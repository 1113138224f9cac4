package links

import (
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"strings"
	"sync/atomic"
)

// Every id this system mints — link, negotiation and meeting ids, and
// lock tokens — follows one scheme. Ids are minted constantly on the
// hot negotiation path, and a crypto/rand read per mint is measurable
// there. Instead the process draws one 64-bit random prefix at startup
// and appends a counter: ids stay unique across processes with the
// probability two random 64-bit tokens have and unique within the
// process by construction, at the cost of one string.
//
// The prefix is the 64 bits in base 36, zero-padded to 13 characters
// so that every process's ids of a kind and count are as long as every
// other's. Base 36 has neither '-' nor ':', so an id embeds in an
// entity ("meeting:<id>") and the prefix ends where the '-' is.
//
// Two counters, not one. Link, negotiation and meeting ids are primary
// keys: store.Table iterates them in key order, the journal sweep
// processes negotiations in id order, and promoteWaiters breaks priority
// ties by id — so their mint order must be reproducible for a same-seed
// simulation run to replay identically, and their byte order must be
// their mint order. They are only minted from serially executed paths
// (a coordinator drives one negotiation at a time) and share seqCounter.
// Lock tokens, by contrast, are minted concurrently (the commit fan-out
// and late-commit paths) and are only ever compared for equality —
// sharing one counter would let token traffic perturb the id sequence.
var (
	idPrefix   = mintPrefix()
	tokCounter atomic.Uint64
	seqCounter atomic.Uint64
)

const base36 = "0123456789abcdefghijklmnopqrstuvwxyz"

func mintPrefix() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process.
		panic("links: rand: " + err.Error())
	}
	digits := strconv.FormatUint(binary.BigEndian.Uint64(b[:]), 36)
	return strings.Repeat("0", 13-len(digits)) + digits // 36^13 > 2^64
}

// mintID returns a process-unique opaque id (lock tokens): the prefix,
// '-' and the token counter in base 36.
func mintID() string {
	var buf [32]byte
	b := append(append(buf[:0], idPrefix...), '-')
	return string(strconv.AppendUint(b, tokCounter.Add(1), 36))
}

// MintOrdered returns tag and a process-unique id whose byte order
// equals mint order, so store keys built from it iterate in creation
// order: the prefix, '-' and the next value of the one counter every
// ordered id shares, in appendOrdered's form.
func MintOrdered(tag string) string {
	var buf [40]byte
	b := append(append(append(buf[:0], tag...), idPrefix...), '-')
	return string(appendOrdered(b, seqCounter.Add(1)))
}

// appendOrdered appends n in base 36 after one base-36 digit giving how
// many digits n has (1 to 13). A longer number has the greater length
// digit, and numbers of one length compare digit by digit, so the bytes
// of any two counters compare as the counters do.
func appendOrdered(b []byte, n uint64) []byte {
	var d [13]byte
	digits := strconv.AppendUint(d[:0], n, 36)
	return append(append(b, base36[len(digits)]), digits...)
}

// NewLinkID mints a globally unique link id. Ids sort in mint order:
// link ids are store keys, and deterministic iteration order is what
// makes same-seed simulation runs replay identically.
func NewLinkID() string { return MintOrdered("L-") }

// NewNegotiationID mints a globally unique negotiation id.
func NewNegotiationID() string { return MintOrdered("N-") }
