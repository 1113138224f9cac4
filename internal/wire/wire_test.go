package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripRequest(t *testing.T) {
	env := &Envelope{
		Kind: KindRequest,
		Request: &Request{
			ID:      42,
			Service: "cal.phil",
			Method:  "GetFreeSlots",
			Args:    Args{Str("from", "2003-04-22"), Float("n", 3.5), Str("to", "2003-04-29")}, // the JSON form's key order
			Caller:  "andy",
		},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Request, env.Request)
	}
}

func TestRoundTripResponse(t *testing.T) {
	res, err := Marshal(map[string]int{"slots": 7})
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{
		Kind:     KindResponse,
		Response: &Response{ID: 42, OK: true, Result: res},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := Unmarshal(got.Response.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["slots"] != 7 {
		t.Fatalf("result = %v", out)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		env := &Envelope{Kind: KindRequest, Request: &Request{ID: uint64(i), Service: "s", Method: "m"}}
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		env, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Request.ID != uint64(i) {
			t.Fatalf("frame %d has ID %d", i, env.Request.ID)
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	hdr := binary.AppendUvarint(nil, MaxFrameSize+1)
	_, err := ReadFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Kind: KindRequest, Request: &Request{ID: 1, Service: "s", Method: "m"}}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	_, err := ReadFrame(bytes.NewReader(trunc))
	if !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestReadFrameGarbageJSON(t *testing.T) {
	body := []byte("{not json")
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(nil, uint64(len(body))))
	buf.Write(body)
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRemoteErrorIs(t *testing.T) {
	err := &RemoteError{Code: CodeConflict, Service: "cal.phil", Method: "ReserveSlot", Msg: "slot taken"}
	if !errors.Is(err, &RemoteError{Code: CodeConflict}) {
		t.Fatal("code-only match failed")
	}
	if errors.Is(err, &RemoteError{Code: CodeAuth}) {
		t.Fatal("matched wrong code")
	}
	if !errors.Is(err, &RemoteError{Code: CodeConflict, Service: "cal.phil"}) {
		t.Fatal("code+service match failed")
	}
	if errors.Is(err, &RemoteError{Code: CodeConflict, Service: "cal.andy"}) {
		t.Fatal("matched wrong service")
	}
	if !strings.Contains(err.Error(), "slot taken") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

// TestRemoteErrorString: a remote error names its call, a local one
// (Service and Method empty) does not, and a reason follows the code.
func TestRemoteErrorString(t *testing.T) {
	for _, tc := range []struct {
		err  *RemoteError
		want string
	}{
		{&RemoteError{Code: CodeConflict, Reason: ReasonSlotPersonal, Service: "links.B", Method: "Mark", Msg: "B holds personal:class"},
			"syd: remote links.B.Mark: B holds personal:class (conflict: slot-personal)"},
		{Refuse(ReasonSlotMeeting, "u004/%s holds %s", "slot", "M-1"),
			"syd: u004/slot holds M-1 (conflict: slot-meeting)"},
		{&RemoteError{Code: CodeUnavailable, Service: "cal.andy", Method: "Schedule", Msg: "down"},
			"syd: remote cal.andy.Schedule: down (unavailable)"},
		{&RemoteError{Code: CodeBadArgs, Msg: "bad slot"}, "syd: bad slot (bad-args)"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}

type codedErr struct{}

func (codedErr) Error() string { return "coded" }
func (codedErr) Code() ErrCode { return CodeInDoubt }

// TestReasonOf: the reason in the chain, else the code's name.
func TestReasonOf(t *testing.T) {
	refused := Refuse(ReasonLockHeld, "links: x is locked")
	for _, tc := range []struct {
		err  error
		want Reason
	}{
		{nil, ""},
		{refused, ReasonLockHeld},
		{fmt.Errorf("links: activator mark failed: %w", refused), ReasonLockHeld},
		{&RemoteError{Code: CodeConflict, Msg: "no reason"}, Reason(CodeConflict)},
		{fmt.Errorf("w: %w", &RemoteError{Code: CodeUnavailable}), Reason(CodeUnavailable)},
		{fmt.Errorf("w: %w", codedErr{}), Reason(CodeInDoubt)},
		{errors.New("plain"), Reason(CodeInternal)},
	} {
		if got := ReasonOf(tc.err); got != tc.want {
			t.Errorf("ReasonOf(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ReasonOf(nil) }); n != 0 {
		t.Fatalf("ReasonOf(nil) allocates %.0f times; it runs on every participant's reserve", n)
	}
}

// asErr answers errors.As for the RemoteError it holds through an As
// method, as no error of the chain is one.
type asErr struct{ re *RemoteError }

func (e asErr) Error() string { return "as" }
func (e asErr) As(target any) bool {
	p, ok := target.(**RemoteError)
	if ok {
		*p = e.re
	}
	return ok
}

// TestCodeAndReasonAsErrorsAs: CodeOf and ReasonOf answer what errors.As
// finds, on plain, wrapped, double-%w and joined errors and behind an As
// method, and a wrapped RemoteError costs them no allocation.
func TestCodeAndReasonAsErrorsAs(t *testing.T) {
	refused := Refuse(ReasonLockHeld, "links: x is locked")
	down := &RemoteError{Code: CodeUnavailable, Msg: "down"}
	plain := errors.New("plain")
	for _, err := range []error{
		plain, refused, down, codedErr{},
		fmt.Errorf("w: %w", refused),
		fmt.Errorf("w: %w", fmt.Errorf("v: %w", down)),
		fmt.Errorf("w: %v", refused),
		fmt.Errorf("%w: %w", plain, refused),
		fmt.Errorf("%w: %w", codedErr{}, down),
		fmt.Errorf("w: %w", fmt.Errorf("%w: %w", down, refused)),
		errors.Join(plain, down, refused),
		errors.Join(plain, codedErr{}),
		fmt.Errorf("w: %w", errors.Join(plain, fmt.Errorf("v: %w", refused))),
		asErr{refused},
		fmt.Errorf("w: %w", asErr{down}),
	} {
		wantCode, wantReason := CodeInternal, Reason("")
		var re *RemoteError
		var coded interface{ Code() ErrCode }
		if errors.As(err, &re) {
			wantCode, wantReason = re.Code, re.Reason
		}
		if wantReason == "" && errors.As(err, &coded) {
			wantReason = Reason(coded.Code())
		}
		if wantReason == "" {
			wantReason = Reason(wantCode)
		}
		if got := CodeOf(err); got != wantCode {
			t.Errorf("CodeOf(%v) = %q, errors.As finds %q", err, got, wantCode)
		}
		if got := ReasonOf(err); got != wantReason {
			t.Errorf("ReasonOf(%v) = %q, errors.As finds %q", err, got, wantReason)
		}
	}
	wrapped := fmt.Errorf("links: mark: %w", fmt.Errorf("engine: %w", refused))
	if n := testing.AllocsPerRun(100, func() { CodeOf(wrapped); ReasonOf(wrapped) }); n != 0 {
		t.Fatalf("CodeOf and ReasonOf of a wrapped RemoteError allocate %.0f times", n)
	}
}

func TestCodeOf(t *testing.T) {
	if got := CodeOf(nil); got != CodeOK {
		t.Fatalf("CodeOf(nil) = %q", got)
	}
	if got := CodeOf(errors.New("plain")); got != CodeInternal {
		t.Fatalf("CodeOf(plain) = %q", got)
	}
	wrapped := &RemoteError{Code: CodeUnavailable, Msg: "down"}
	if got := CodeOf(wrapped); got != CodeUnavailable {
		t.Fatalf("CodeOf(remote) = %q", got)
	}
}

func TestArgsAccessors(t *testing.T) {
	a := Args{
		Str("s", "hello"),
		Float("f", 9),
		Int("i", 7),
		Int64("i64", 11),
		Bool("b", true),
		Raw("list", json.RawMessage(`["x","y",3]`)),
		Strs("strs", []string{"p", "q"}),
		Sub("sub", Args{Str("s", "inner")}),
		{Key: "nil"},
	}
	if a.String("s") != "hello" || a.String("missing") != "" || a.String("f") != "" {
		t.Fatal("String accessor wrong")
	}
	if a.Int("i") != 7 || a.Int("missing") != 0 || a.Int("s") != 0 || a.Int("f") != 0 {
		t.Fatal("Int accessor wrong")
	}
	var f float64
	if a.Int64("i64") != 11 || a.Decode("f", &f) != nil || f != 9 {
		t.Fatal("Int64 accessor or a float's Decode wrong")
	}
	if !a.Bool("b") || a.Bool("s") || a.Bool("missing") {
		t.Fatal("Bool accessor wrong")
	}
	if got := a.Strings("strs"); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Fatalf("Strings(strs) = %v", got)
	}
	if a.Strings("list") != nil || a.Strings("missing") != nil {
		t.Fatal("Strings of a raw list or of nothing should be nil")
	}
	if a.Sub("sub").String("s") != "inner" || a.Sub("s") != nil {
		t.Fatal("Sub accessor wrong")
	}
	if !a.Has("nil") || a.Has("missing") {
		t.Fatal("Has wrong")
	}
}

// TestArgsWith: With overrides a pair in its place, appends a new key,
// and leaves its receiver as it was.
func TestArgsWith(t *testing.T) {
	a := Args{Str("a", "1"), Str("b", "2")}
	got := a.With(Str("b", "3"), Int("c", 4))
	want := Args{Str("a", "1"), Str("b", "3"), Int("c", 4)}
	if !reflect.DeepEqual(got, want) || a.String("b") != "2" {
		t.Fatalf("With = %v, receiver %v", got, a)
	}
	if got := Args(nil).With(); got == nil || len(got) != 0 {
		t.Fatalf("nil.With() = %#v, want empty", got)
	}
}

func TestArgsDecode(t *testing.T) {
	type slot struct {
		Day  string `json:"day"`
		Hour int    `json:"hour"`
	}
	for _, a := range []Args{
		{Sub("slot", Args{Str("day", "2003-04-22"), Int("hour", 14)})},
		{Raw("slot", json.RawMessage(`{"day":"2003-04-22","hour":14}`))},
	} {
		var s slot
		if err := a.Decode("slot", &s); err != nil {
			t.Fatal(err)
		}
		if s.Day != "2003-04-22" || s.Hour != 14 {
			t.Fatalf("decoded %+v", s)
		}
		if err := a.Decode("absent", &s); err == nil {
			t.Fatal("expected error for missing key")
		}
	}
	var at time.Time
	if err := (Args{Str("t", "2026-08-07T14:00:00Z")}).Decode("t", &at); err != nil || at.Hour() != 14 {
		t.Fatalf("a string read back from a record decodes as the time it was: %v, %v", at, err)
	}
}

// TestFrameRoundTripProperty checks that any string payload survives a
// frame round trip intact.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(service, method, caller string, id uint64) bool {
		env := &Envelope{Kind: KindRequest, Request: &Request{
			ID: id, Service: service, Method: method, Caller: caller,
		}}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, env); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		r := got.Request
		return r.ID == id && r.Service == service && r.Method == method && r.Caller == caller
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	env := &Envelope{
		Kind: KindRequest,
		Request: &Request{
			ID: 1, Service: "cal.phil", Method: "GetFreeSlots",
			Args: Args{Str("from", "2003-04-22"), Str("to", "2003-04-29")},
		},
	}
	b.ReportAllocs()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, env); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMarshalWritesJSONMarshalBytes: the JSON reference codec renders
// a result as json.Marshal writes the handler's value, escapes and key
// order included, typed or Raw.
func TestMarshalWritesJSONMarshalBytes(t *testing.T) {
	for _, v := range []any{
		true, false, "T-0001f00dcafe0001", "q \"x\" \\ \n\t\x01<&>\xff",
		map[string]string{"token": "T-0001f00dcafe0001"},
		map[string]string{"z": "1", "a": "<&>", "m": "q \"x\" \\ \n\t\x01", "é": "\xff "},
		map[string]string{}, map[string]string(nil),
		[]uint64{0, 1, math.MaxUint64}, []uint64{}, []uint64(nil),
		map[string]any{"n": 1}, []string{"x"}, // through json.Marshal
	} {
		res, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		want, wantErr := json.Marshal(v)
		if err != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Errorf("Marshal(%#v) renders %s (%v), json.Marshal = %s (%v)", v, got, err, want, wantErr)
		}
	}
	if res, _ := Marshal(Args{Str("b", "1"), Int("a", 2)}); string(mustJSON(t, res)) != `{"a":2,"b":"1"}` {
		t.Errorf("an Args result renders %s", mustJSON(t, res))
	}
}

// TestMarshalBoolAllocs: a typed result costs no allocation: Commit's
// and DeleteLink's ack, Mark's token and GetFreeSlots' words. Unmarshal
// hands each to an out of its type as it is.
func TestMarshalBoolAllocs(t *testing.T) {
	words := []uint64{1, 2}
	for _, v := range []any{true, "T-andy-31", words, Args{Str("k", "v")}} {
		if allocs := testing.AllocsPerRun(100, func() { _, _ = Marshal(v) }); allocs != 0 {
			t.Errorf("Marshal(%v) costs %.0f allocs, want 0", v, allocs)
		}
	}
	var ok bool
	var tok string
	var res Value
	for _, c := range []struct {
		v   any
		out any
	}{{true, &ok}, {"T-andy-31", &tok}, {words, &res}} {
		v, _ := Marshal(c.v)
		if allocs := testing.AllocsPerRun(100, func() { _ = Unmarshal(v, c.out) }); allocs != 0 {
			t.Errorf("Unmarshal of %v costs %.0f allocs, want 0", c.v, allocs)
		}
	}
	if ws, isWords := res.Words(); !ok || tok != "T-andy-31" || !isWords || &ws[0] != &words[0] {
		t.Fatalf("read back %v %q %+v", ok, tok, res)
	}
	// A typed value bound for another type goes through its JSON text.
	var n int
	var m map[string]string
	if err := Unmarshal(Value{kind: kindInt, n: 7}, &n); err != nil || n != 7 {
		t.Fatalf("an int result: %d, %v", n, err)
	}
	if res, _ := Marshal(Args{Str("k", "v")}); Unmarshal(res, &m) != nil || m["k"] != "v" {
		t.Fatalf("an Args result into a map: %v", m)
	}
	if err := Unmarshal(Str("", "x").Val, &n); err == nil {
		t.Fatal("a string result read into an int")
	}
}
