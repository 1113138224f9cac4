package links

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// orderedShape is an ordered id: its tag, the 13-character prefix, '-',
// the counter's length digit and the counter in base 36.
var orderedShape = regexp.MustCompile(`^[LNM]-[0-9a-z]{13}-[1-9a-d][0-9a-z]{1,13}$`)

// orderTable holds the counters where an encoding's length changes: 0,
// 1, 35 and 36, 36^k-1 and 36^k for every k up to the last power of 36
// below 2^64, 10^12-1 and 10^12 (where twelve decimal digits run out)
// and the two largest counters, in ascending order.
func orderTable() []uint64 {
	ns := []uint64{0, 1, 35, 36, 999999999999, 1000000000000, math.MaxUint64 - 1, math.MaxUint64}
	for p := uint64(36); ; p *= 36 {
		ns = append(ns, p-1, p)
		if p > math.MaxUint64/36 {
			break
		}
	}
	slices.Sort(ns)
	return slices.Compact(ns)
}

// misordered returns the first consecutive pair of ns whose encodings
// do not compare as the numbers do.
func misordered(enc func([]byte, uint64) []byte, ns []uint64) (a, b uint64, ok bool) {
	for i := 1; i < len(ns); i++ {
		if bytes.Compare(enc(nil, ns[i-1]), enc(nil, ns[i])) >= 0 {
			return ns[i-1], ns[i], true
		}
	}
	return 0, 0, false
}

// TestOrderedIDEncoding holds the counter encoding to byte order across
// every length change, and holds the table to catching the encoding
// ordered ids had before, the counter zero-padded to twelve decimal
// digits, which sorts 10^12 before 10^12-1.
func TestOrderedIDEncoding(t *testing.T) {
	ns := orderTable()
	if a, b, ok := misordered(appendOrdered, ns); ok {
		t.Fatalf("%d encodes as %q, not before %d's %q", a, appendOrdered(nil, a), b, appendOrdered(nil, b))
	}
	padded := func(b []byte, n uint64) []byte { return fmt.Appendf(b, "%012d", n) }
	if a, b, ok := misordered(padded, ns); !ok || a != 999999999999 || b != 1000000000000 {
		t.Fatalf("the table finds the padded encoding misordered at %d, %d (%v); want at 10^12", a, b, ok)
	}
}

// TestMintedIDsOrdered pins the ordered ids' shape and the lock token's,
// holds each mint to one allocation, and checks that ids sort in the
// order they were minted.
func TestMintedIDsOrdered(t *testing.T) {
	prev := ""
	for i := 0; i < 100; i++ {
		id := [...]func() string{NewLinkID, NewNegotiationID, func() string { return MintOrdered("M-") }}[i%3]()
		if !orderedShape.MatchString(id) {
			t.Fatalf("id shape: %q", id)
		}
		if i > 0 && id[2:] <= prev[2:] {
			t.Fatalf("%q minted after %q sorts before it", id, prev)
		}
		prev = id
	}
	if tok := mintID(); !regexp.MustCompile(`^[0-9a-z]{13}-[0-9a-z]+$`).MatchString(tok) {
		t.Fatalf("token shape: %q", tok)
	}
	for name, mint := range map[string]func() string{"link id": NewLinkID, "token": mintID} {
		if allocs := testing.AllocsPerRun(100, func() { _ = mint() }); allocs != 1 {
			t.Errorf("minting a %s: %.0f allocs, want 1", name, allocs)
		}
	}
}

// FuzzOrderedID: for any two counters a < b the ids minted from them
// sort a first, each has the ordered shape, and its counter reads back.
func FuzzOrderedID(f *testing.F) {
	ns := orderTable()
	for i := 1; i < len(ns); i++ {
		f.Add(ns[i-1], ns[i])
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		id := func(n uint64) string {
			s := string(appendOrdered([]byte("N-"+idPrefix+"-"), n))
			if !orderedShape.MatchString(s) {
				t.Fatalf("id shape: %q", s)
			}
			const at = len("N-") + 13 + 1 // the length digit
			counter := s[at+1:]
			if got, err := strconv.ParseUint(counter, 36, 64); err != nil || got != n || len(counter) != strings.IndexByte(base36, s[at]) {
				t.Fatalf("%q reads back as %d (%v), want %d", s, got, err, n)
			}
			return s
		}
		if ia, ib := id(a), id(b); ia >= ib {
			t.Fatalf("%d's id %q does not sort before %d's %q", a, ia, b, ib)
		}
	})
}
