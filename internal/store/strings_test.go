package store

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// listSchema is a table with a list column beside scalars.
func listSchema() Schema {
	return Schema{
		Name: "lists",
		Columns: []Column{
			{Name: "id", Type: String},
			{Name: "n", Type: Int},
			{Name: "tags", Type: Strings},
			{Name: "more", Type: Strings},
		},
		Key: []string{"id"},
	}
}

func newListTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewDB().CreateTable(listSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// viaJSON reads r's JSON form back into a row of tab, column by column,
// as a WAL replay and a restore do.
func viaJSON(t *testing.T, tab *Table, r Row) Row {
	t.Helper()
	text, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hint := r.SizeHint(); hint < len(text) {
		t.Errorf("SizeHint %d for %d bytes of %s", hint, len(text), text)
	}
	var cols map[string]json.RawMessage
	if err := json.Unmarshal(text, &cols); err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	back := tab.NewRow()
	for c, raw := range cols {
		if err := back.SetJSON(c, raw); err != nil {
			t.Fatalf("SetJSON(%s, %s): %v", c, raw, err)
		}
	}
	return back
}

// TestStringsColumnJSONRoundTrip: a list column writes a JSON array,
// the text json.Marshal writes for the list, and SetJSON reads it back,
// in an inserted row and in an update's changes.
func TestStringsColumnJSONRoundTrip(t *testing.T) {
	tab := newListTable(t)
	lists := [][]string{{"a"}, {"b", `q"uote`, "back\\slash", "<&>", "é ✓", ""}, {" "}}
	for _, l := range lists {
		ins := tab.NewRow()
		ins.SetStr("id", "k")
		ins.SetInt("n", 7)
		ins.SetStrs("tags", l)
		upd := tab.NewRow()
		upd.SetStrs("more", l)
		for how, r := range map[string]Row{"insert": ins, "update": upd} {
			text, _ := r.AppendJSON(nil)
			want, _ := json.Marshal(l)
			if !strings.Contains(string(text), string(want)) {
				t.Errorf("%s: %s does not hold json.Marshal's %s", how, text, want)
			}
			back := viaJSON(t, tab, r)
			for _, col := range []string{"tags", "more"} {
				if back.Has(col) != r.Has(col) || !slices.Equal(back.Strs(col), r.Strs(col)) {
					t.Errorf("%s: %s reads back %q (set %v), want %q (set %v)", how, col, back.Strs(col), back.Has(col), r.Strs(col), r.Has(col))
				}
			}
		}
	}
}

// TestStringsUnsetVsEmpty: an unset list is absent from the row and its
// JSON; a list set empty is set, nil or not (null, [], as json.Marshal
// writes them), and reads back set and empty. A list column reads
// nothing but an array of strings or null.
func TestStringsUnsetVsEmpty(t *testing.T) {
	tab := newListTable(t)
	r := tab.NewRow()
	r.SetStr("id", "k")
	r.SetStrs("tags", nil)
	r.SetStrs("more", []string{})
	text, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"k","more":[],"tags":null}`; string(text) != want {
		t.Fatalf("JSON %s, want %s", text, want)
	}
	back := viaJSON(t, tab, r)
	for _, col := range []string{"tags", "more"} {
		if !back.Has(col) || len(back.Strs(col)) != 0 {
			t.Errorf("%s reads back %q, set %v; want set and empty", col, back.Strs(col), back.Has(col))
		}
	}
	unset := tab.NewRow()
	unset.SetStr("id", "k")
	if text, _ := unset.AppendJSON(nil); string(text) != `{"id":"k"}` || unset.Has("tags") || unset.Strs("tags") != nil {
		t.Errorf("an unset list: JSON %s, Has %v, Strs %q", text, unset.Has("tags"), unset.Strs("tags"))
	}
	for _, raw := range []string{`"a"`, `{}`, `[1]`, `[`, `1`} {
		r := tab.NewRow()
		if err := r.SetJSON("tags", []byte(raw)); err == nil {
			t.Errorf("SetJSON(tags, %s) succeeded", raw)
		}
	}
	wrong := tab.NewRow()
	wrong.SetStr("id", "w")
	wrong.SetStr("tags", "a")
	if err := tab.insert(wrong); !errors.Is(err, ErrBadType) {
		t.Errorf("a string set in a list column: %v, want ErrBadType", err)
	}
}

// TestStringsRefusedAsKeyAndIndex: a list is neither a key column nor an
// indexed one, and an equality probe on it matches nothing.
func TestStringsRefusedAsKeyAndIndex(t *testing.T) {
	db := NewDB()
	s := listSchema()
	s.Key = []string{"tags"}
	if _, err := db.CreateTable(s); !errors.Is(err, ErrBadType) {
		t.Fatalf("a list key: %v, want ErrBadType", err)
	}
	s.Key = []string{"id", "tags"}
	if _, err := db.CreateTable(s); !errors.Is(err, ErrBadType) {
		t.Fatalf("a list in a composite key: %v, want ErrBadType", err)
	}
	tab := newListTable(t)
	if err := tab.CreateIndex("tags"); !errors.Is(err, ErrBadType) {
		t.Fatalf("an index on a list: %v, want ErrBadType", err)
	}
	r := tab.NewRow()
	r.SetStr("id", "k")
	r.SetStrs("tags", []string{"a"})
	if err := tab.insert(r); err != nil {
		t.Fatal(err)
	}
	if got := tab.selectEq("tags", []string{"a"}); len(got) != 0 {
		t.Fatalf("an equality visit on a list matched %v", got)
	}
}

// TestStringsListIsImmutable: setting a list copies nothing, and the list
// a row hands out is capped, so an append to it copies and leaves the
// stored row as it was, while readers read it concurrently.
func TestStringsListIsImmutable(t *testing.T) {
	tab := newListTable(t)
	tags := []string{"a", "b", "c", "d"}[:2]
	r := tab.NewRow()
	if got := testing.AllocsPerRun(10, func() { r.SetStrs("tags", tags) }); got != 0 {
		t.Fatalf("SetStrs costs %.0f allocs, want 0", got)
	}
	r.SetStr("id", "k")
	if err := tab.insert(r); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				var saw []string
				tab.View(func(r Row) { saw = r.Strs("tags") }, "k")
				if !reflect.DeepEqual(saw, []string{"a", "b"}) {
					errs <- errors.New("a reader saw " + strings.Join(saw, ","))
					return
				}
				got, _ := tab.get("k")
				l := append(got.Strs("tags"), "x")
				l[0] = "y"
			}
		}()
	}
	for range 200 {
		got, _ := tab.get("k")
		l := got.Strs("tags")
		if cap(l) != len(l) {
			t.Fatalf("Strs returned cap %d for len %d", cap(l), len(l))
		}
		_ = append(l, "z")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stored, _ := tab.get("k"); !slices.Equal(stored.Strs("tags"), []string{"a", "b"}) || tags[:3][2] != "c" {
		t.Fatalf("stored %q, caller's backing %q", stored.Strs("tags"), tags[:4])
	}
}
