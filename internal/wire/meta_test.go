package wire

import (
	"encoding/json"
	"testing"
	"time"
)

func TestMetadataNilSafety(t *testing.T) {
	var m Metadata
	if m.Get(MetaCaller) != "" {
		t.Fatal("Get on nil metadata")
	}
	if m.Deadline() != 0 {
		t.Fatal("Deadline on nil metadata")
	}
	if c := m.Clone(); c == nil {
		t.Fatal("Clone of nil metadata must be usable")
	}
}

func TestMetadataCloneIsIndependent(t *testing.T) {
	m := Metadata{MetaCaller: "andy"}
	c := m.Clone()
	c[MetaCaller] = "phil"
	if m.Get(MetaCaller) != "andy" {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestMetadataDeadlineRoundsUp(t *testing.T) {
	m := Metadata{}
	m.SetDeadline(1500 * time.Microsecond)
	if got := m.Deadline(); got != 2*time.Millisecond {
		t.Fatalf("deadline = %v, want 2ms (rounded up)", got)
	}
	m.SetDeadline(250 * time.Microsecond)
	if got := m.Deadline(); got != time.Millisecond {
		t.Fatalf("sub-millisecond budget = %v, want 1ms (never 0)", got)
	}
	m[MetaDeadline] = "-5"
	if m.Deadline() != 0 {
		t.Fatal("negative deadline must read as 0")
	}
}

func TestFullMetaMergesIdentityFields(t *testing.T) {
	r := &Request{
		Caller:     "andy",
		Credential: "sealed-blob",
		Meta:       Metadata{MetaDeadline: "250", "trace-id": "t-7"},
	}
	m := r.FullMeta()
	if m.Get(MetaCaller) != "andy" || m.Get(MetaCredential) != "sealed-blob" {
		t.Fatalf("identity fields not merged: %v", m)
	}
	if m.Deadline() != 250*time.Millisecond || m.Get("trace-id") != "t-7" {
		t.Fatalf("envelope metadata lost: %v", m)
	}
	// FullMeta is a copy: mutating it must not write through.
	m[MetaCaller] = "mallory"
	if r.Caller != "andy" || r.Meta.Get(MetaCaller) != "" {
		t.Fatal("FullMeta aliases the request")
	}
}

func TestMetadataSurvivesJSONEnvelope(t *testing.T) {
	req := &Request{
		ID: 1, Service: "cal.phil", Method: "WhoAmI",
		Meta: Metadata{"trace-id": "t-1", MetaDeadline: "250"},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Meta.Get("trace-id") != "t-1" || back.Meta.Deadline() != 250*time.Millisecond {
		t.Fatalf("metadata mangled in transit: %v", back.Meta)
	}
	// Empty metadata stays off the wire entirely.
	raw, err = json.Marshal(&Request{ID: 2, Service: "s", Method: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "" && containsKey(raw, "meta") {
		t.Fatalf("empty meta serialized: %s", raw)
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
