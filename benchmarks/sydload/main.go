// Command sydload is the repository's benchmark: it boots a directory
// and a set of calendar nodes in one process, each node on its own TCP
// network bound to 127.0.0.1, and drives them closed-loop over the
// loopback sockets. See ../README.md.
//
//	sydload --workload sched_mem --seed 1 --seconds 15 --trace 0
//	sydload -all -out benchmarks/out/report.json
//	sydload -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Where a run writes, under the root of the checkout: the spans of a
// traced run as <workload>.spans.jsonl, and the logs of durable nodes.
const (
	spansDir = "benchmarks/out"
	dataDir  = ".bench_build/data"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: sched_mem, sched_durable, find_slots or contended")
		seed     = flag.Int64("seed", 1, "seed of the request generators")
		seconds  = flag.Float64("seconds", 15, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 runs with tracing on and reports the per-layer metrics")
		all      = flag.Bool("all", false, "run every workload untraced and traced and print every metric")
		out      = flag.String("out", "", "with -all: write the report to this file")
		compare  = flag.Bool("compare", false, "compare two -all reports: sydload -compare a.json b.json")
		root     = flag.String("root", ".", "root of the checkout; benchmarks/run.sh passes it")
		dataRoot = flag.String("data-root", "", "directory for the logs of durable nodes (default <root>/"+dataDir+")")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: sydload -compare a.json b.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}

	// Everything a run leaves behind goes under the checkout, wherever
	// the binary was started from.
	if st, err := os.Stat(filepath.Join(*root, "benchmarks", "sydload")); err != nil || !st.IsDir() {
		fatal("%q is not the root of the checkout: run benchmarks/run.sh, or pass -root", *root)
	}
	if *dataRoot == "" {
		*dataRoot = filepath.Join(*root, dataDir)
	}
	opt := options{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		warmup:   2 * time.Second,
		clients:  runtime.GOMAXPROCS(0), // load sized to the processors this process has
		dataRoot: *dataRoot,
		spansDir: filepath.Join(*root, spansDir),
	}
	ctx := context.Background()

	if *all {
		os.Exit(runAll(ctx, opt, *out))
	}

	def, ok := findWorkload(*name)
	if !ok {
		fatal("unknown workload %q", *name)
	}
	opt.traced = *traced == 1
	res, err := runWorkload(ctx, def, opt)
	if err != nil {
		fatal("%s: %v", def.name, err)
	}
	printResult(res)
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "sydload: %s: check failed: %s\n", def.name, f)
	}
	line, err := resultLine(res)
	if err != nil {
		fatal("%s: %v", def.name, err)
	}
	fmt.Println(line)
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sydload: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the last line of a run: the one JSON object the
// benchmark contract asks for. runWorkload has checked that the run
// computed every metric the tables name.
func resultLine(res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Traced {
		for _, m := range layerMetrics {
			metrics[m.Name] = value{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			metrics[m.Name] = value{res.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return "", fmt.Errorf("result line: %w", err)
	}
	return string(b), nil
}

// printResult prints every metric of a run by name with its unit.
func printResult(res *runResult) {
	fmt.Printf("%s (traced=%v): %d ops, %d refused, %d failed, %.1f ops/s\n",
		res.Workload, res.Traced, res.Attempted, res.Refused, res.Failed, res.OpsPerS)
	for _, m := range untracedMetrics {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s segments %v spread %.3f samples %d\n",
				m.Name, v.Value, m.Unit, fmtFloats(v.Segments), v.Spread, v.Samples)
		}
	}
	if res.Layers != nil {
		for _, m := range layerMetrics {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, res.Layers[m.Name], m.Unit)
		}
	}
	for _, layer := range sortedKeys(res.Budget) {
		fmt.Printf("  critical path: %-19s %14.4f ms/op\n", layer, res.Budget[layer])
	}
	for _, op := range kindNames {
		if calls := res.Census[op]; calls != nil {
			fmt.Printf("  RPCs per %s:\n", op)
			for _, k := range sortedKeys(calls) {
				fmt.Printf("    %-32s %8.3f\n", k, calls[k])
			}
		}
	}
}

func fmtFloats(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%.4g", v)
	}
	return out
}
