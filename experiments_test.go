package repro

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/sim"
)

// The experiments regenerate every figure- and table-equivalent of the
// paper's evaluation (see DESIGN.md §4 for the index):
//
//	F1-F4  executable reproductions of the paper's four figures
//	E1-E6  the §4.4/§5 calendar scenarios and the §3.2 walkthrough
//	T1     the §6 comparison against "existing calendar applications"
//	T2     performance sweeps implied by §5.1/§7
//	A1-A2  ablations of design decisions (DESIGN.md §5)
//
// Each experiment builds a fresh simulated deployment, runs the
// workload, checks the paper's shape and returns a Result. TestExperiments
// requires each Result's rendering to equal the block of EXPERIMENTS.md
// tagged with its id:
//
//	go test -run 'TestExperiments/T1' -v .
var experiments = []struct {
	id  string
	run func() (*Result, error)
}{
	{"F1", RunF1},
	{"F2", RunF2},
	{"F3", RunF3},
	{"F4", RunF4},
	{"E1", RunE1},
	{"E2", RunE2},
	{"E3", RunE3},
	{"E4", RunE4},
	{"E5", RunE5},
	{"E6", RunE6},
	{"T1", RunT1},
	{"T2", RunT2},
	{"A1", RunA1},
	{"A2", RunA2},
}

// experimentsDoc is the golden file: EXPERIMENTS.md at the repo root.
const experimentsDoc = "EXPERIMENTS.md"

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-form note line.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// mark opens every cell made by varies, and is all the golden rendering
// shows of one.
const mark = "~"

// varies formats a cell whose value depends on the clock or on
// goroutine scheduling.
func varies(format string, args ...any) string {
	return mark + fmt.Sprintf(format, args...)
}

// Render formats the result as an aligned text table. With golden set,
// every cell made by varies shows as the bare mark, so the rendering is
// the same on every run: the form EXPERIMENTS.md holds.
func (r *Result) Render(golden bool) string {
	var rows [][]string
	if len(r.Header) > 0 {
		rows = append(rows, r.Header, nil) // nil: the dash line
	}
	for _, row := range r.Rows {
		if golden {
			row = append([]string(nil), row...)
			for i, c := range row {
				if strings.HasPrefix(c, mark) {
					row[i] = mark
				}
			}
		}
		rows = append(rows, row)
	}
	var widths []int
	for _, row := range rows {
		for i, c := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	for _, row := range rows {
		var line strings.Builder
		for i, w := range widths {
			c := strings.Repeat("-", w)
			if row != nil {
				c = ""
				if i < len(row) {
					c = row[i]
				}
			}
			fmt.Fprintf(&line, "%-*s  ", w, c)
		}
		b.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// goldenBlocks returns the body of every fenced block of doc whose info
// string is an experiment id, keyed by that id, and doc with the bodies
// in repl put in place of those it holds.
func goldenBlocks(doc string, repl map[string]string) (map[string]string, string) {
	ids := map[string]bool{}
	for _, e := range experiments {
		ids[e.id] = true
	}
	blocks := map[string]string{}
	var out, body strings.Builder
	id := ""
	for _, line := range strings.SplitAfter(doc, "\n") {
		fence := strings.TrimSpace(line)
		switch {
		case id == "" && strings.HasPrefix(fence, "```") && ids[fence[3:]]:
			id = fence[3:]
			out.WriteString(line)
		case id != "" && fence == "```":
			blocks[id] = body.String()
			if r, ok := repl[id]; ok {
				out.WriteString(r)
			} else {
				out.WriteString(body.String())
			}
			out.WriteString(line)
			body.Reset()
			id = ""
		case id != "":
			body.WriteString(line)
		default:
			out.WriteString(line)
		}
	}
	return blocks, out.String()
}

// TestExperiments runs every experiment, each of which fails on a
// violated paper shape, and holds its golden rendering to the block of
// EXPERIMENTS.md tagged with its id. On a difference it writes the file
// as this run would have it and prints the command that puts it in
// place.
func TestExperiments(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	golden, _ := goldenBlocks(doc, nil)
	var mu sync.Mutex
	stale := map[string]string{}
	t.Cleanup(func() {
		if len(stale) == 0 {
			return
		}
		_, fresh := goldenBlocks(doc, stale)
		f, err := os.CreateTemp("", "EXPERIMENTS-*.md")
		if err == nil {
			_, err = f.WriteString(fresh)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Errorf("writing the refreshed %s: %v", experimentsDoc, err)
			return
		}
		t.Errorf("%s is stale; if the change is intended, refresh it and commit:\n  cp %s %s", experimentsDoc, f.Name(), experimentsDoc)
	})
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			if res == nil || res.ID != e.id || len(res.Rows) == 0 {
				t.Fatalf("%s returned %+v", e.id, res)
			}
			t.Logf("\n%s", res.Render(false))
			want, ok := golden[e.id]
			if !ok {
				t.Fatalf("%s has no block tagged %s", experimentsDoc, e.id)
			}
			if got := res.Render(true); got != want {
				mu.Lock()
				stale[e.id] = got
				mu.Unlock()
				t.Errorf("block %s of %s differs from this run:\n--- %s\n%s--- run\n%s", e.id, experimentsDoc, experimentsDoc, want, got)
			}
		})
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", varies("%dns", 2))
	r.AddRow("longer", "x")
	r.AddNote("a note with %d", 42)
	for golden, want := range map[bool]string{
		false: "== X — demo ==\n" +
			"a       bb\n" +
			"------  ----\n" +
			"1       ~2ns\n" +
			"longer  x\n" +
			"note: a note with 42\n",
		true: "== X — demo ==\n" +
			"a       bb\n" +
			"------  --\n" +
			"1       ~\n" +
			"longer  x\n" +
			"note: a note with 42\n",
	} {
		if got := r.Render(golden); got != want {
			t.Errorf("Render(%v):\n%s\nwant:\n%s", golden, got, want)
		}
	}
}

func TestGoldenBlocks(t *testing.T) {
	doc := "# x\n```sh\nkeep\n```\n```T1\nold\n```\ntail\n"
	blocks, same := goldenBlocks(doc, nil)
	if len(blocks) != 1 || blocks["T1"] != "old\n" || same != doc {
		t.Fatalf("blocks %q, doc %q", blocks, same)
	}
	_, fresh := goldenBlocks(doc, map[string]string{"T1": "new\nrows\n"})
	if want := "# x\n```sh\nkeep\n```\n```T1\nnew\nrows\n```\ntail\n"; fresh != want {
		t.Fatalf("rewritten doc %q, want %q", fresh, want)
	}
}

// World is a simulated SyD deployment shared by the experiments.
type World struct {
	Net   *sim.Net
	Clk   *clock.Fake
	Dir   *directory.Client
	Mail  *notify.Mailbox
	Cals  map[string]*calendar.Calendar
	Nodes map[string]*core.Node
}

// NewWorld boots a directory plus one calendar node per user on a
// fresh simulated network.
func NewWorld(users []string, cfg sim.Config) (*World, error) {
	net := sim.New(cfg)
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	srv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		return nil, err
	}
	w := &World{
		Net:   net,
		Clk:   clk,
		Dir:   directory.NewClient(net, "dir"),
		Mail:  notify.NewMailbox(),
		Cals:  map[string]*calendar.Calendar{},
		Nodes: map[string]*core.Node{},
	}
	for _, u := range users {
		if err := w.AddUser(u, 0); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// AddUser boots one more calendar node. Nodes record per-method
// metrics into the process default registry, so a test can snapshot
// every layer's counts and latencies afterwards. Nodes run with the
// engine route cache at sydnode's production default TTL, so measured
// worlds match a deployed fleet; the cache invalidates eagerly on
// unreachable peers, and a call on a moved route follows the directory,
// which keeps the failover experiments honest.
func (w *World) AddUser(user string, priority int) error {
	return w.startUser(core.Config{User: user, Priority: priority})
}

// startUser boots a calendar node from cfg as AddUser does, filling in
// the world's network, directory, clock, route cache and metrics.
func (w *World) startUser(cfg core.Config) error {
	ctx := context.Background()
	cfg.Net, cfg.DirAddr, cfg.Clock = w.Net, "dir", w.Clk
	cfg.RouteCacheTTL, cfg.Metrics = 2*time.Second, metrics.Default()
	n, err := core.Start(ctx, cfg)
	if err != nil {
		return err
	}
	c, err := calendar.New(ctx, n, calendar.WithNotifier(w.Mail))
	if err != nil {
		return err
	}
	w.Nodes[cfg.User] = n
	w.Cals[cfg.User] = c
	return nil
}

func TestWorldAddUser(t *testing.T) {
	w, err := NewWorld(nil, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddUser("solo", 3); err != nil {
		t.Fatal(err)
	}
	if w.Cals["solo"] == nil || w.Nodes["solo"] == nil {
		t.Fatal("user not registered in world maps")
	}
	info, err := w.Dir.LookupUser(context.Background(), "solo")
	if err != nil {
		t.Fatal(err)
	}
	if info.Priority != 3 {
		t.Fatalf("priority = %d", info.Priority)
	}
}

func TestScenarioRunFeedsMetrics(t *testing.T) {
	// Acceptance: one E-scenario run leaves per-method counts and
	// latency in the process-wide registry (experiment worlds wire
	// their nodes to metrics.Default()).
	total := func() (n int64) {
		for _, e := range metrics.Default().Snapshot().Entries {
			n += e.Count
		}
		return n
	}
	before := total()
	if _, err := RunE1(); err != nil {
		t.Fatal(err)
	}
	if total() == before {
		t.Fatal("E1 recorded no metrics")
	}
	var clientSeries, serverSeries int
	for _, e := range metrics.Default().Snapshot().Entries {
		if e.Count <= 0 || e.Service == "" || e.Method == "" {
			t.Fatalf("malformed entry: %+v", e)
		}
		if e.MaxMs < 0 || e.AvgMs < 0 {
			t.Fatalf("negative latency: %+v", e)
		}
		switch e.Layer {
		case metrics.LayerClient:
			clientSeries++
		case metrics.LayerServer:
			serverSeries++
		}
	}
	if clientSeries == 0 || serverSeries == 0 {
		t.Fatalf("layers missing: %d client / %d server series", clientSeries, serverSeries)
	}
}
