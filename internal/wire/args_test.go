package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/jsonrec"
)

// argsOfShape builds args and the map encoding/json would write the same
// text for, from one fuzz input: shape picks which kinds are present,
// keys may repeat (the later pair wins, as in a map literal), and raw is
// embedded as a Raw value, valid JSON or not.
func argsOfShape(k1, k2, s string, n int64, f float64, b bool, raw string, shape uint8) (Args, map[string]any) {
	var a Args
	m := map[string]any{}
	add := func(kv Arg, v any) {
		a = a.With(kv)
		m[kv.Key] = v
	}
	add(Str(k1, s), s)
	if shape&1 != 0 {
		add(Int64(k2, n), n)
	}
	if shape&2 != 0 {
		add(Float("f", f), f)
	}
	if shape&4 != 0 {
		add(Bool(s, b), b)
	}
	if shape&8 != 0 {
		list := []string{s, k1}
		if shape&16 != 0 {
			list = nil
		}
		add(Strs("list", list), list)
	}
	if shape&32 != 0 {
		// A nested list holding a string list and a list nested again:
		// the first level is written by AppendJSON itself, the second too.
		sub := map[string]any{k1: s}
		sub["g"] = f
		sub["list"] = []string{k2, s}
		sub["deep"] = map[string]any{k1: s}
		add(Sub(k2, Args(nil).With(Str(k1, s), Float("g", f), Strs("list", []string{k2, s}), Sub("deep", Args{Str(k1, s)}))), sub)
	}
	if shape&64 != 0 {
		add(Raw("raw", json.RawMessage(raw)), json.RawMessage(raw))
	}
	if shape&128 != 0 {
		add(Arg{Key: "nil"}, nil)
	}
	return a, m
}

// FuzzArgsJSON holds the JSON form to encoding/json: AppendJSON and
// MarshalJSON write what json.Marshal writes for the equivalent map and
// fail where it fails; reading the text back, with ReadArgs or with
// UnmarshalJSON, gives args that agree and write the same text again.
// Any other text decodes where json.Unmarshal decodes it into a map.
func FuzzArgsJSON(f *testing.F) {
	f.Add("meeting", "priority", "M-1", int64(2), 1.5, true, `{"day":"2003-04-22"}`, uint8(0xff), `{"a":1}`)
	f.Add("<&>", " ", "q \"x\" \\ \n\t\x01\xff", int64(-1<<62-1), -0.0, false, `[1, "x", null]`, uint8(0x7f), `{"n":-0,"m":1e400}`)
	f.Add("k", "k", "", int64(0), 1e21, false, `not json`, uint8(0x4a), `{"a":[1,2],"b":{"c":[]},"a":"again"}`)
	f.Add("a", "b", "s", int64(1<<62+1), math.NaN(), true, `"2026-08-07T14:00:00Z"`, uint8(0x22), ` { "x" : "é" } `)
	f.Add("x", "y", "z", int64(7), 1e-7, true, `  [ "a" ]  `, uint8(0x63), `null`)
	f.Fuzz(func(t *testing.T, k1, k2, s string, n int64, fl float64, b bool, raw string, shape uint8, text string) {
		a, m := argsOfShape(k1, k2, s, n, fl, b, raw, shape)
		want, wantErr := json.Marshal(m)
		got, err := a.AppendJSON(nil)
		if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s (%v), json.Marshal of the map = %s (%v)", got, err, want, wantErr)
		}
		if viaMarshal, err := json.Marshal(a); (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(args) = %s (%v), of the map %s", viaMarshal, err, want)
		}
		if wantErr != nil {
			return
		}
		back := readBoth(t, string(got))
		again, err := back.AppendJSON(nil)
		var x, y any
		if err != nil || json.Unmarshal(got, &x) != nil || json.Unmarshal(again, &y) != nil || !reflect.DeepEqual(x, y) {
			t.Fatalf("%s reads back as args that write %s (%v)", got, again, err)
		}
		if v, ok := m[k2].(int64); ok && utf8.ValidString(k2) && back.Int64(k2) != v {
			t.Fatalf("%s read back: %s = %d, want %d", got, k2, back.Int64(k2), v)
		}

		var other Args
		otherErr := other.UnmarshalJSON([]byte(text))
		var asMap map[string]any
		if mapErr := json.Unmarshal([]byte(text), &asMap); (otherErr == nil) != (mapErr == nil) {
			t.Fatalf("%q: UnmarshalJSON says %v, json.Unmarshal into a map %v", text, otherErr, mapErr)
		}
		if otherErr == nil {
			once, err := other.AppendJSON(nil)
			if err != nil {
				t.Fatalf("%q decodes to args that do not encode: %v", text, err)
			}
			if twice, _ := readBoth(t, string(once)).AppendJSON(nil); !bytes.Equal(twice, once) {
				t.Fatalf("%q: %s is not a fixed point, it reads back as %s", text, once, twice)
			}
		}
	})
}

// readBoth reads s with UnmarshalJSON and, where s is in its subset, with
// ReadArgs, and requires the two to agree.
func readBoth(t *testing.T, s string) Args {
	t.Helper()
	var a Args
	if err := a.UnmarshalJSON([]byte(s)); err != nil {
		t.Fatalf("UnmarshalJSON(%s): %v", s, err)
	}
	r := jsonrec.NewReader(s)
	if fast := ReadArgs(&r); r.Done() && !reflect.DeepEqual(fast, a) {
		t.Fatalf("%s: ReadArgs gives %#v, UnmarshalJSON %#v", s, fast, a)
	}
	return a
}

// TestReadArgsInPlace: the JSON form of a reservation's commit arguments
// is in ReadArgs' subset, read with one allocation, and an integer keeps
// every digit.
func TestReadArgsInPlace(t *testing.T) {
	a := Args{
		Str("meeting", "M-1"), Int64("priority", 1<<62+1), Bool("allowBump", false),
		Str("day", "2003-04-22"), Int("hour", 10), Strs("who", []string{"phil"}), Float("f", 0.5), {Key: "z"},
	}
	text, err := a.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back Args
	allocs := testing.AllocsPerRun(100, func() {
		r := jsonrec.NewReader(string(text))
		if back = ReadArgs(&r); !r.Done() {
			t.Fatalf("%s is not in ReadArgs' subset", text)
		}
	})
	if allocs > 3 || back.Int64("priority") != 1<<62+1 || back.Strings("who")[0] != "phil" || back.String("meeting") != "M-1" {
		t.Fatalf("ReadArgs(%s) = %v in %.0f allocs, want <= 3", text, back, allocs)
	}
	r := jsonrec.NewReader(strings.Replace(string(text), `"day"`, `"a"`, 1))
	if ReadArgs(&r); r.Done() {
		t.Fatal("ReadArgs read keys out of order")
	}
}

// TestDecodeV3RefusesRepeatedKey: a frame that names a key twice in one
// list, or carries the retired list-of-any tag, is refused, however long
// the list.
func TestDecodeV3RefusesRepeatedKey(t *testing.T) {
	for _, n := range []int{2, maxSizeHint + 2} {
		a := make(Args, 0, n)
		for i := 0; i < n-1; i++ {
			a = append(a, Int(strings.Repeat("k", i+1), i))
		}
		for _, dup := range []string{"k", strings.Repeat("k", n-1)} {
			f, err := EncodeFrameV3(&Envelope{Kind: KindRequest, Request: &Request{Service: "s", Method: "m", Args: append(a, Str(dup, "again"))}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeV3(f.Bytes()[4:], nil); err != ErrBadV3Frame {
				t.Errorf("%d keys, %q twice: err = %v, want ErrBadV3Frame", n, dup, err)
			}
			f.Release()
		}
	}
	// id 1, empty service, method, caller, credential, no deadline or
	// metadata, one arg: the empty name and tag 7 with no entries.
	if _, err := decodeV3([]byte{magicV4, v3KindRequest, 1, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0}, nil); err != ErrBadV3Frame {
		t.Fatalf("tag 7: err = %v, want ErrBadV3Frame", err)
	}
}
