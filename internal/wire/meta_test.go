package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestMetadataNilSafety(t *testing.T) {
	var m Metadata
	if m.Get("trace-id") != "" {
		t.Fatal("Get on nil metadata")
	}
}

// TestMetadataDeadlineRoundsUp: the deadline hint, the request metadata
// that has a field of its own, is whole milliseconds rounded up, and a
// budget past MaxDeadline is sent as MaxDeadline.
func TestMetadataDeadlineRoundsUp(t *testing.T) {
	var r Request
	r.SetDeadline(1500 * time.Microsecond)
	if got := r.Deadline(); got != 2*time.Millisecond || r.DeadlineMs != 2 {
		t.Fatalf("deadline = %v (%d ms), want 2ms (rounded up)", got, r.DeadlineMs)
	}
	r.SetDeadline(250 * time.Microsecond)
	if got := r.Deadline(); got != time.Millisecond {
		t.Fatalf("sub-millisecond budget = %v, want 1ms (never 0)", got)
	}
	for _, d := range []time.Duration{0, -5 * time.Millisecond} {
		r.SetDeadline(d)
		if r.DeadlineMs != 0 || r.Deadline() != 0 {
			t.Fatalf("SetDeadline(%v) left %d ms, want none", d, r.DeadlineMs)
		}
	}
	r.SetDeadline(math.MaxInt64) // a context deadline centuries away
	if r.Deadline() != MaxDeadline {
		t.Fatalf("SetDeadline(MaxInt64) reads %v, want %v", r.Deadline(), MaxDeadline)
	}
}

// TestRequestDeadlineClamps: a hint a peer sends above MaxDeadline reads
// as MaxDeadline, however large, after a v3 frame carried it. A hint in
// milliseconds past the int64 range of nanoseconds once multiplied into
// a Duration that wrapped: 18446744073710 ms (≈584 years) read as 448µs
// and 9223372036855 ms as a negative budget, which the server dropped.
func TestRequestDeadlineClamps(t *testing.T) {
	maxMs := uint64(MaxDeadline / time.Millisecond)
	for _, tc := range []struct {
		ms   uint64
		want time.Duration
	}{
		{maxMs, MaxDeadline},
		{maxMs + 1, MaxDeadline},
		{math.MaxInt64/uint64(time.Millisecond) + 1, MaxDeadline},
		{18446744073710, MaxDeadline},
		{math.MaxInt64, MaxDeadline},
		{math.MaxUint64, MaxDeadline}, // the largest uvarint
		{5000, 5 * time.Second},
	} {
		f, err := EncodeFrameV3(&Envelope{Kind: KindRequest, Request: &Request{Service: "s", Method: "m", DeadlineMs: tc.ms}})
		if err != nil {
			t.Fatal(err)
		}
		env, err := ReadFrame(bytes.NewReader(f.Bytes()))
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if r := env.Request; r.DeadlineMs != tc.ms || r.Deadline() != tc.want {
			t.Errorf("hint of %d ms decoded as %d ms, reads %v; want %v", tc.ms, r.DeadlineMs, r.Deadline(), tc.want)
		}
	}
}

func TestMetadataSurvivesJSONEnvelope(t *testing.T) {
	req := &Request{
		ID: 1, Service: "cal.phil", Method: "WhoAmI",
		DeadlineMs: 250,
		Meta:       Metadata{"trace-id": "t-1"},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta.Get("trace-id") != "t-1" || back.Deadline() != 250*time.Millisecond {
		t.Fatalf("metadata mangled in transit: %v, %d ms", back.Meta, back.DeadlineMs)
	}
	// Empty metadata and no deadline stay off the wire entirely.
	raw, err = json.Marshal(&Request{ID: 2, Service: "s", Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if containsKey(raw, "meta") || containsKey(raw, "deadline_ms") {
		t.Fatalf("empty meta or deadline serialized: %s", raw)
	}
}

func containsKey(raw []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
