package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestIntKeepsEveryDigit: an Int column holds any int64, and both ways
// back from disk return it exactly, a log replay and a checkpoint
// restore alike. Read as a float64, a JSON number keeps 53 bits: 2^62+1
// came back as 2^62, and an update keyed on it found no row.
func TestIntKeepsEveryDigit(t *testing.T) {
	const big = int64(1)<<62 + 1
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := insertRow(d.DB, tab, rowOf(tab, map[string]any{"id": big, "val": "v", "ts": ts})); err != nil {
		t.Fatal(err)
	}
	if err := updateRow(d.DB, tab, rowOf(tab, map[string]any{"val": "updated"}), big); err != nil {
		t.Fatal(err)
	}
	want := func(how string, db *store.DB) {
		t.Helper()
		tab, err := db.Table("t")
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		r, ok := getRow(tab, big)
		if !ok || r.Int("id") != big || r.Str("val") != "updated" || tab.Count() != 1 {
			t.Fatalf("%s: row %v (found %v, %d rows), want id %d updated", how, r, ok, tab.Count(), big)
		}
	}
	crash(t, d)

	d = mustOpen(t, dir, Options{Sync: SyncGroup})
	if st := d.Stats(); st.ReplayedTxs != 2 || st.CheckpointLSN != 0 {
		t.Fatalf("reopen replayed %d txs over checkpoint %d, want 2 over none", st.ReplayedTxs, st.CheckpointLSN)
	}
	want("log replay", d.DB)
	restored := store.NewDB()
	if err := restored.Restore(strings.NewReader(string(snapshotOf(t, d.DB)))); err != nil {
		t.Fatal(err)
	}
	want("DB.Restore", restored)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(t, d)

	d = mustOpen(t, dir, Options{Sync: SyncGroup})
	defer d.Close()
	if st := d.Stats(); st.ReplayedTxs != 0 || st.CheckpointLSN == 0 {
		t.Fatalf("reopen replayed %d txs over checkpoint %d, want none over one", st.ReplayedTxs, st.CheckpointLSN)
	}
	want("checkpoint restore", d.DB)
}

// TestStringsColumnSurvivesDisk: a list column comes back from a log
// replay, a DB.Restore of the snapshot and a checkpoint restore as it was
// written, by an insert and by an update, the empty list still set and
// an unset list still unset.
func TestStringsColumnSurvivesDisk(t *testing.T) {
	schema := store.Schema{Name: "t", Columns: []store.Column{
		{Name: "id", Type: store.String}, {Name: "tags", Type: store.Strings}, {Name: "more", Type: store.Strings},
	}, Key: []string{"id"}}
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{Sync: SyncGroup})
	tab, err := d.DB.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.Row{
		rowOf(tab, map[string]any{"id": "a", "tags": []string{"x", `q"<&>`, ""}}),
		rowOf(tab, map[string]any{"id": "b", "tags": []string{"y"}, "more": []string{"z"}}),
	} {
		if err := insertRow(d.DB, tab, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := updateRow(d.DB, tab, rowOf(tab, map[string]any{"tags": []string{"p", "q"}, "more": []string{}}), "b"); err != nil {
		t.Fatal(err)
	}
	want := map[string][2][]string{"a": {{"x", `q"<&>`, ""}, nil}, "b": {{"p", "q"}, {}}}
	check := func(how string, db *store.DB) {
		t.Helper()
		tab, err := db.Table("t")
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		for id, w := range want {
			r, _ := getRow(tab, id)
			if !slices.Equal(r.Strs("tags"), w[0]) || !slices.Equal(r.Strs("more"), w[1]) || r.Has("more") != (w[1] != nil) {
				t.Fatalf("%s: %s reads tags %q more %q (set %v), want %q %q", how, id, r.Strs("tags"), r.Strs("more"), r.Has("more"), w[0], w[1])
			}
		}
	}
	check("written", d.DB)
	crash(t, d)

	d = mustOpen(t, dir, Options{Sync: SyncGroup})
	if st := d.Stats(); st.ReplayedTxs != 3 {
		t.Fatalf("reopen replayed %d txs, want 3", st.ReplayedTxs)
	}
	check("log replay", d.DB)
	restored := store.NewDB()
	if err := restored.Restore(strings.NewReader(string(snapshotOf(t, d.DB)))); err != nil {
		t.Fatal(err)
	}
	check("DB.Restore", restored)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(t, d)

	d = mustOpen(t, dir, Options{Sync: SyncGroup})
	defer d.Close()
	if st := d.Stats(); st.ReplayedTxs != 0 || st.CheckpointLSN == 0 {
		t.Fatalf("reopen replayed %d txs over checkpoint %d, want none over one", st.ReplayedTxs, st.CheckpointLSN)
	}
	check("checkpoint restore", d.DB)
}

// TestOpensNodeDataDirWrittenWithMapRows opens a node's data dir written
// while store rows were maps of boxed values. testdata/node-map-rows
// holds participant b's: a checkpoint (a's meeting confirmed: slot,
// record, permanent link, decided token) and a log tail above it (x's
// meeting bumps a's, updating b's slot and turning its link tentative; c's
// meeting queues behind x's, a tentative link and its waiting row; b's own
// meeting with a, whose Commit was lost, leaves a journal row; a busy
// slot). rows.golden is the row dump and snapshot.golden the snapshot
// that build recovered from it: the typed store recovers the same rows
// and writes the same snapshot, byte for byte.
func TestOpensNodeDataDirWrittenWithMapRows(t *testing.T) {
	src := filepath.Join("testdata", "node-map-rows")
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join(src, "datadir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, "datadir", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := mustOpen(t, dir, Options{Sync: SyncNone})
	defer d.Close()
	if st := d.Stats(); st.CheckpointLSN == 0 || st.ReplayedTxs == 0 || st.TornTail {
		t.Fatalf("recovered over checkpoint %d with %d txs (torn %v), want a checkpoint and a tail", st.CheckpointLSN, st.ReplayedTxs, st.TornTail)
	}
	var dump strings.Builder
	tables := []string{"SyD_Link", "SyD_LinkMethod", "SyD_NegotiationDecided", "SyD_NegotiationJournal",
		"SyD_PendingDelete", "SyD_WaitingLink", "cal_meetings", "cal_slots"}
	for _, name := range tables {
		tab, err := d.DB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range allRows(tab) {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, string(raw))
		}
		sort.Strings(rows)
		for _, r := range rows {
			fmt.Fprintf(&dump, "%s %s\n", name, r)
		}
	}
	for _, c := range []struct{ golden, got string }{
		{"rows.golden", dump.String()},
		{"snapshot.golden", string(snapshotOf(t, d.DB))},
	} {
		want, err := os.ReadFile(filepath.Join(src, c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if c.got != string(want) {
			t.Errorf("%s differs\n--- got\n%s--- want\n%s", c.golden, c.got, want)
		}
	}
}
