package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json to the tables the
// program reports from: the same workloads, metrics, units and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, file, prog []metricDef, limit int) {
		if len(file) != len(prog) || len(file) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d, the limit is %d", kind, len(file), len(prog), limit)
		}
		for i, m := range prog {
			f := file[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, m)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndMetrics, 16)
	// The file's layer metrics carry no prediction; the program's must.
	prog := make([]metricDef, len(layerMetrics))
	for i, m := range layerMetrics {
		if m.Moves == "" {
			t.Errorf("layer metric %s does not say which end-to-end metric it should move", m.Name)
		}
		m.Moves = ""
		prog[i] = m
	}
	same("per_layer", bf.PerLayer, prog, 128)
	for _, m := range endToEndMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload for a short window, untraced and traced,
// and checks that each passes its output checks and reports exactly the
// metrics the tables name.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 28 TCP nodes and runs for about 20 s")
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), def, options{
				seed: 1, window: 3 * time.Second, warmup: 500 * time.Millisecond,
				clients: 2, traced: traced, tracedOps: 200, dataRoot: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			// A 3 s window is too short for the contended workload to
			// settle into its band; every other check must hold.
			for _, f := range res.Failures {
				if !strings.HasPrefix(f, "is_contended") {
					t.Errorf("%s traced=%v: check failed: %s", def.name, traced, f)
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", def.name, traced, res.Failed, res.Attempted)
			}
			if traced {
				// The tail and the processor time of the calls the workload makes.
				for _, name := range []string{"calendar.cpu_ms_per_op", "calendar." + kindNames[def.kinds[0]] + "_p95_ms"} {
					if res.Layers[name] <= 0 {
						t.Errorf("%s: %s is %g, want a measured value", def.name, name, res.Layers[name])
					}
				}
			}
			var line struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    int64                      `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			text, err := resultLine(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if err := json.Unmarshal([]byte(text), &line); err != nil {
				t.Fatalf("%s: result line: %v", def.name, err)
			}
			want := endToEndMetrics
			if traced {
				want = layerMetrics
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", def.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: result line lacks %s", def.name, traced, m.Name)
				}
				// The run itself must have computed it: the result line is
				// built from the table and would print a missing one as 0.
				if _, ok := res.Layers[m.Name]; traced && !ok {
					t.Errorf("%s: traced run did not compute %s", def.name, m.Name)
				}
			}
			if !traced {
				for _, m := range untracedMetrics {
					if res.EndToEnd[m.Name].Value <= 0 {
						t.Errorf("%s: %s is %g, an untraced run's metrics are never 0", def.name, m.Name, res.EndToEnd[m.Name].Value)
					}
				}
			}
		}
	}
}

func TestCheckComplete(t *testing.T) {
	table := []metricDef{{Name: "a"}, {Name: "b"}}
	if err := checkComplete(table, map[string]float64{"a": 1, "b": 0}); err != nil {
		t.Errorf("complete values: %v", err)
	}
	for name, values := range map[string]map[string]float64{
		"missing":    {"a": 1},
		"extra":      {"a": 1, "b": 2, "c": 3},
		"not finite": {"a": 1, "b": math.NaN()},
	} {
		if checkComplete(table, values) == nil {
			t.Errorf("%s metric not reported", name)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	vs := []float64{5, 1, 9, 3, 4}
	if got := median(vs); got != 4 {
		t.Errorf("median %g, want 4", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four %g, want 2.5", got)
	}
	if got := spread(vs); got != 2 {
		t.Errorf("spread %g, want (9-1)/4", got)
	}
}

func TestDoubleBooked(t *testing.T) {
	held := func(meeting string, from, to int) hold {
		return hold{user: "u00", meeting: meeting, from: time.Duration(from), to: time.Duration(to)}
	}
	if _, _, clash := doubleBooked([]hold{held("a", 0, 5), held("b", 5, 9), held("c", 9, 9)}); clash {
		t.Error("back-to-back holds reported as a double booking")
	}
	if _, _, clash := doubleBooked([]hold{held("a", 0, 5), held("b", 4, 9)}); !clash {
		t.Error("overlapping holds of two meetings not reported")
	}
}

func TestSelfTimeAndCriticalPath(t *testing.T) {
	t0 := time.Unix(0, 0)
	span := func(name string, from, to int, kids ...*spanNode) *spanNode {
		n := &spanNode{Span: &trace.Span{Name: name, Start: t0.Add(time.Duration(from)), End: t0.Add(time.Duration(to))}}
		n.kids = kids
		return n
	}
	// Two overlapping children, [10,60] and [40,90], inside [0,100].
	root := span("op.schedule", 0, 100, span("links.Mark", 10, 60), span("links.Commit", 40, 90))
	if got := root.selfTime(); got != 20 {
		t.Errorf("self time %d, want 20: overlapping children must count once", got)
	}
	path := map[string]time.Duration{}
	root.criticalPath(root.Start, root.End, path)
	// Back from 100: Commit [40,90] is on the path, Mark only runs beside it.
	if path["calendar"] != 50 || path["links"] != 50 {
		t.Errorf("critical path %v, want calendar 50 and links 50", path)
	}
}
