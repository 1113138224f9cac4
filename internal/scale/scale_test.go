package scale

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// stripWall zeroes the only machine-dependent field so reports can be
// compared byte-for-byte.
func stripWall(r *Report) *Report {
	c := *r
	c.WallMS = 0
	return &c
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// jsonTree is v as encoding/json's generic tree of its own encoding.
func jsonTree(t *testing.T, v any) map[string]any {
	t.Helper()
	var tree map[string]any
	if err := json.Unmarshal([]byte(mustJSON(t, v)), &tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// leaf is one scalar of a report's JSON tree, addressable in place.
type leaf struct {
	path string // dotted JSON keys, e.g. "net.requests"
	in   map[string]any
	key  string
}

// leaves flattens tree into its scalars, sorted by path.
func leaves(prefix string, tree map[string]any) []leaf {
	var out []leaf
	for k, v := range tree {
		if sub, ok := v.(map[string]any); ok {
			out = append(out, leaves(prefix+k+".", sub)...)
		} else {
			out = append(out, leaf{prefix + k, tree, k})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// reportDiff lists every field in which got differs from want, wall_ms
// aside, as "path: want -> got"; empty means the reports are equal.
func reportDiff(t *testing.T, want, got *Report) []string {
	t.Helper()
	// The directory's by-method counts are a map: a method one side
	// never served is a path the other side lacks, and shows as <nil>.
	values := func(r *Report) map[string]any {
		out := map[string]any{}
		for _, l := range leaves("", jsonTree(t, stripWall(r))) {
			out[l.path] = l.in[l.key]
		}
		return out
	}
	a, b := values(want), values(got)
	var paths []string
	for p := range a {
		paths = append(paths, p)
	}
	for p := range b {
		if _, ok := a[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var diffs []string
	for _, p := range paths {
		if a[p] != b[p] {
			diffs = append(diffs, fmt.Sprintf("%s: %v -> %v", p, a[p], b[p]))
		}
	}
	return diffs
}

// scaleBaseline is the committed golden file at the repo root.
const scaleBaseline = "../../BENCH_scale.json"

// scaleFile is BENCH_scale.json: every scenario on the single topology
// at 256 devices, seed 1. Only Reports is checked; the header records
// provenance.
type scaleFile struct {
	Date    string    `json:"date"`
	GoOS    string    `json:"goos"`
	GoArch  string    `json:"goarch"`
	Devices int       `json:"devices"`
	Seed    int64     `json:"seed"`
	Reports []*Report `json:"reports"`
}

func loadScaleBaseline(t *testing.T) []*Report {
	t.Helper()
	data, err := os.ReadFile(scaleBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var file scaleFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", scaleBaseline, err)
	}
	if len(file.Reports) == 0 {
		t.Fatalf("%s holds no reports", scaleBaseline)
	}
	return file.Reports
}

// writeScaleBaseline runs what BENCH_scale.json holds and writes it, as
// the file should read, to a temporary file whose name it returns.
func writeScaleBaseline(t *testing.T) string {
	t.Helper()
	out := scaleFile{
		Date:    time.Now().UTC().Format(time.RFC3339),
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		Devices: 256,
		Seed:    1,
	}
	for _, scn := range Scenarios() {
		r, err := Run(Config{Scenario: scn, Topology: Single, Devices: out.Devices, Seed: out.Seed})
		if err != nil {
			t.Fatal(err)
		}
		out.Reports = append(out.Reports, r)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "BENCH_scale-*.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(append(data, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// TestScaleBaseline is the exact gate: every report committed in
// BENCH_scale.json, re-run from its own scenario, topology, fleet size,
// op count and seed, must come out equal in every field but wall_ms.
// On a difference it writes the file as this code would have it and
// prints the command that puts it in place.
func TestScaleBaseline(t *testing.T) {
	same := true
	for _, want := range loadScaleBaseline(t) {
		same = t.Run(want.Scenario+"/"+string(want.Topology), func(t *testing.T) {
			got, err := Run(Config{
				Scenario: want.Scenario, Topology: want.Topology,
				Devices: want.Devices, Ops: want.Ops, Seed: want.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if diffs := reportDiff(t, want, got); len(diffs) > 0 {
				t.Fatalf("report differs from %s (committed -> now):\n  %s", scaleBaseline, strings.Join(diffs, "\n  "))
			}
		}) && same
	}
	if !same {
		t.Errorf("if the change is intended, refresh the file from the repo root and commit it:\n  cp %s BENCH_scale.json", writeScaleBaseline(t))
	}
}

// TestScaleBaselineSeesDrift holds the gate to every field: one
// committed report with any single field changed — a request, an
// outcome, a lock conflict, a timer fire — is reported as differing in
// exactly that field, and a different wall_ms alone is not a difference.
func TestScaleBaselineSeesDrift(t *testing.T) {
	want := loadScaleBaseline(t)[0]
	seen := map[string]bool{}
	for i := range leaves("", jsonTree(t, want)) {
		// Drift the one leaf in a fresh tree, decode it back into a Report.
		tree := jsonTree(t, want)
		l := leaves("", tree)[i]
		switch v := l.in[l.key].(type) {
		case float64:
			l.in[l.key] = v + 1
		case string:
			l.in[l.key] = v + "x"
		default:
			t.Fatalf("%s: unexpected %T in a report", l.path, v)
		}
		var drifted Report
		if err := json.Unmarshal([]byte(mustJSON(t, tree)), &drifted); err != nil {
			t.Fatalf("%s: %v", l.path, err)
		}
		diffs := reportDiff(t, want, &drifted)
		seen[l.path] = true
		if l.path == "wall_ms" {
			if len(diffs) != 0 {
				t.Errorf("wall_ms alone reported as drift: %v", diffs)
			}
			continue
		}
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], l.path+": ") {
			t.Errorf("%s off by one: diff = %v, want that field alone", l.path, diffs)
		}
	}
	// The counts a gate on the abort rate alone cannot see.
	for _, path := range []string{"net.requests", "outcomes.committed", "outcomes.tentative", "locks.conflicts",
		"directory.by_method.Heartbeat", "directory.peak_minute", "reasons.aborted_ops.slot-meeting",
		"reasons.failed_steps.slot-personal", "clock_fired", "wall_ms"} {
		if !seen[path] {
			t.Errorf("%s was never drifted: not a report field?", path)
		}
	}
}

// TestScaleSmoke is the CI scale gate's inner loop: 500 devices, two
// scenarios, each run twice with the same seed. The runs must be
// byte-identical (minus wall time), finish their in-doubt ledger, and
// commit something.
func TestScaleSmoke(t *testing.T) {
	for _, scn := range []string{"storm", "flap"} {
		scn := scn
		t.Run(scn, func(t *testing.T) {
			cfg := Config{Scenario: scn, Topology: Single, Devices: 500, Ops: 800, Seed: 1}
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ja, jb := mustJSON(t, stripWall(a)), mustJSON(t, stripWall(b))
			if ja != jb {
				t.Fatalf("same seed diverged:\n%s\n%s", ja, jb)
			}
			if a.Outcomes.InDoubt != 0 {
				t.Fatalf("in-doubt ops on a lossless network: %+v", a.Outcomes)
			}
			if a.Outcomes.Committed == 0 {
				t.Fatalf("nothing committed: %+v", a.Outcomes)
			}
			if a.ClockFired == 0 {
				t.Fatal("virtual time never advanced")
			}
			t.Logf("%s: %s", scn, ja)
		})
	}
}

// TestRunAllTopologies sweeps the full scenario × topology catalog at a
// small fleet size, and holds what the replicated rows of
// BENCH_scale.json used to show by eye: the topology changes no
// outcome or lock count — only how many requests log shipping adds.
func TestRunAllTopologies(t *testing.T) {
	reports, err := RunAll(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := len(Scenarios()) * len(Topologies())
	if len(reports) != want {
		t.Fatalf("got %d reports, want %d", len(reports), want)
	}
	seen := map[string]bool{}
	for _, r := range reports {
		key := r.Scenario + "/" + string(r.Topology)
		if seen[key] {
			t.Fatalf("duplicate report %s", key)
		}
		seen[key] = true
		if r.Outcomes.InDoubt != 0 {
			t.Errorf("%s: in-doubt ops: %+v", key, r.Outcomes)
		}
		if r.Ops <= 0 || r.Devices != 48 {
			t.Errorf("%s: bad config echo %+v", key, r)
		}
		if r.VirtualMS != (8 * time.Hour).Milliseconds() {
			t.Errorf("%s: virtual span %d", key, r.VirtualMS)
		}
	}
	for i := 0; i < len(reports); i += 2 { // catalog order: single, replicated
		single, replicated := reports[i], reports[i+1]
		if replicated.Outcomes != single.Outcomes || replicated.Locks != single.Locks ||
			!reflect.DeepEqual(replicated.Reasons, single.Reasons) {
			t.Errorf("%s: replicated differs from single beyond its traffic:\n%s\n%s", single.Scenario,
				mustJSON(t, stripWall(single)), mustJSON(t, stripWall(replicated)))
		}
		// Lease renewals and follower pulls come on top.
		if replicated.Net.Requests <= single.Net.Requests {
			t.Errorf("%s: replicated issued %d requests, single %d", single.Scenario, replicated.Net.Requests, single.Net.Requests)
		}
	}
}

// TestStormContention: the storm scenario's Zipf head must actually
// contend — lock conflicts and aborts are the signal the harness
// exists to measure.
func TestStormContention(t *testing.T) {
	r, err := Run(Config{Scenario: "storm", Devices: 100, Ops: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Locks.Acquired == 0 {
		t.Fatalf("no locks acquired: %+v", r.Locks)
	}
	if r.Outcomes.Aborted == 0 {
		t.Fatalf("no contention aborts under a pinned-slot storm: %+v", r.Outcomes)
	}
}

// TestFlapQueuesAndDrains: commuter writes issued out of range must
// queue, and reconnect sessions must drain them.
func TestFlapQueuesAndDrains(t *testing.T) {
	r, err := Run(Config{Scenario: "flap", Devices: 100, Ops: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcomes.Queued == 0 {
		t.Fatalf("no ops queued while out of range: %+v", r.Outcomes)
	}
	if r.Outcomes.Drained == 0 {
		t.Fatalf("no queued ops drained on reconnect: %+v", r.Outcomes)
	}
}

// TestReplicatedNoPromotion: under a healthy primary the warm standbys
// must never promote — the harness wires Promote to fail the run.
func TestReplicatedNoPromotion(t *testing.T) {
	r, err := Run(Config{Scenario: "fanout", Topology: Replicated, Devices: 32, Ops: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcomes.Committed == 0 {
		t.Fatalf("fanout committed nothing: %+v", r.Outcomes)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Topology != Single || c.Devices != 500 || c.Ops != 2000 || c.Horizon != 8*time.Hour {
		t.Fatalf("defaults = %+v", c)
	}
	if _, err := Run(Config{Scenario: "nope", Devices: 4}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Run(Config{Scenario: "storm", Topology: Topology("weird"), Devices: 4, Ops: 4}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestScaleFull10K is the acceptance run — 10k devices through an 8h
// storm — kept out of routine CI by an env guard (run with
// SCALE_FULL=1; must finish well under 5 minutes of wall time).
func TestScaleFull10K(t *testing.T) {
	if os.Getenv("SCALE_FULL") == "" {
		t.Skip("set SCALE_FULL=1 to run the 10k-device acceptance sweep")
	}
	start := time.Now()
	r, err := Run(Config{Scenario: "storm", Devices: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10k storm in %v: %s", time.Since(start), mustJSON(t, stripWall(r)))
	if r.Outcomes.InDoubt != 0 || r.Outcomes.Committed == 0 {
		t.Fatalf("outcomes off: %+v", r.Outcomes)
	}
}

// BenchmarkDirectoryPeak runs every scenario on one directory at 4,096
// devices, seed 1, and reports the requests the directory served in
// its busiest virtual minute, boot included, with the per-method counts
// in the log. EXPERIMENTS.md D1 judges these numbers against one
// server's capacity (BenchmarkDirectoryTCP in internal/directory):
//
//	go test -run '^$' -bench DirectoryPeak -benchtime 1x -v ./internal/scale
func BenchmarkDirectoryPeak(b *testing.B) {
	for _, scn := range Scenarios() {
		b.Run(scn, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Run(Config{Scenario: scn, Topology: Single, Devices: 4096, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Directory.PeakMinute), "peak-req/min")
				b.Logf("%s: %s", scn, mustJSON(b, r.Directory))
			}
		})
	}
}
