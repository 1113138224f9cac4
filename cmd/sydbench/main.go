// Command sydbench runs the experiment harness that regenerates every
// figure- and table-equivalent of the paper (DESIGN.md §4):
//
//	sydbench                      # run everything
//	sydbench -run F4              # run one experiment
//	sydbench -run E               # run every experiment whose id has the prefix
//	sydbench -list                # list experiment ids and titles
//	sydbench -metrics             # also print the per-method RPC metrics snapshot
//	sydbench -trace 5             # trace the runs, print the 5 slowest flame trees
//
//	sydbench -scale storm -devices 10000          # time-compressed fleet run
//	sydbench -scale churn -topo sharded4          # one scenario × one topology
//	sydbench -scale all -topo single -devices 256 -seed 1 -scale-json BENCH_scale.json
//
// The scale suite (internal/scale) boots thousands of simulated devices
// under an auto-advancing fake clock; its reports are deterministic for
// a given seed. The last command above is the only writer of the
// committed BENCH_scale.json, a golden file: TestScaleBaseline in
// internal/scale re-runs every report in it and requires each to come
// out equal in every field but wall_ms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scale"
	"repro/internal/trace"
)

// scaleFile is the JSON document -scale-json writes (BENCH_scale.json).
// Only Reports is checked by TestScaleBaseline; the header records
// provenance.
type scaleFile struct {
	Date    string          `json:"date"`
	GoOS    string          `json:"goos"`
	GoArch  string          `json:"goarch"`
	Devices int             `json:"devices"`
	Seed    int64           `json:"seed"`
	Reports []*scale.Report `json:"reports"`
}

func runScale(scenario, topo string, devices int, seed int64, outPath string) int {
	scns := []string{scenario}
	if scenario == "all" {
		scns = scale.Scenarios()
	}
	topos := scale.Topologies()
	if topo != "all" {
		topos = []scale.Topology{scale.Topology(topo)}
	}
	out := scaleFile{
		Date:    time.Now().UTC().Format(time.RFC3339),
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		Devices: devices,
		Seed:    seed,
	}
	fmt.Println("p50/p95/p99: modelled (5 ms + 12 ms × RPCs + seeded jitter, per-device FIFO)")
	for _, scn := range scns {
		for _, tp := range topos {
			r, err := scale.Run(scale.Config{Scenario: scn, Topology: tp, Devices: devices, Seed: seed})
			if err != nil {
				fmt.Fprintf(os.Stderr, "sydbench: scale %s/%s: %v\n", scn, tp, err)
				return 1
			}
			fmt.Printf("%-7s %-10s %6d dev  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms  commit %5d  abort %5d  queued %4d  in-doubt %d  (%d timer fires, %.1fs wall)\n",
				r.Scenario, r.Topology, r.Devices,
				r.Latency.P50MS, r.Latency.P95MS, r.Latency.P99MS,
				r.Outcomes.Committed, r.Outcomes.Aborted, r.Outcomes.Queued, r.Outcomes.InDoubt,
				r.ClockFired, float64(r.WallMS)/1000)
			out.Reports = append(out.Reports, r)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sydbench: encode scale reports: %v\n", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sydbench: write %s: %v\n", outPath, err)
			return 1
		}
		fmt.Printf("wrote %d scale reports to %s\n", len(out.Reports), outPath)
	}
	return 0
}

func main() {
	runFilter := flag.String("run", "", "experiment id or id prefix to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	showMetrics := flag.Bool("metrics", false, "print the per-service/method metrics snapshot after the runs")
	traceN := flag.Int("trace", 0, "trace the experiments and print the N slowest stitched traces as flame trees")
	scaleScn := flag.String("scale", "", "run the time-compressed scale harness: a scenario name or 'all'")
	scaleTopo := flag.String("topo", "all", "with -scale: topology (single, sharded4, replicated) or 'all'")
	scaleDevices := flag.Int("devices", 500, "with -scale: simulated fleet size")
	scaleSeed := flag.Int64("seed", 1, "with -scale: workload seed (same seed, same report bytes)")
	scaleJSON := flag.String("scale-json", "", "with -scale: write the reports as JSON to this file")
	flag.Parse()

	if *scaleScn != "" {
		os.Exit(runScale(*scaleScn, *scaleTopo, *scaleDevices, *scaleSeed, *scaleJSON))
	}

	if *traceN > 0 {
		// Head-sample everything: the harness wants complete trees, and
		// experiment volume is small enough for the per-node rings.
		trace.EnableDefault(1.0, 0)
	}

	reg, ids := experiments.All()
	if *list {
		for _, id := range ids {
			fmt.Printf("%s\n", id)
		}
		return
	}

	ran := 0
	failed := 0
	for _, id := range ids {
		if *runFilter != "" && !strings.HasPrefix(id, *runFilter) {
			continue
		}
		ran++
		res, err := reg[id]()
		if res != nil {
			fmt.Println(res.Render())
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "experiment %s FAILED: %v\n", id, err)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run %q (use -list)\n", *runFilter)
		os.Exit(2)
	}
	if *traceN > 0 {
		fmt.Printf("== %d slowest traces ==\n", *traceN)
		fmt.Print(trace.Default().RenderSlowest(*traceN))
	}
	if *showMetrics {
		fmt.Println("== RPC metrics (per service/method/code) ==")
		fmt.Print(metrics.Default().Snapshot().Render())
		fmt.Println("== wire frames ==")
		fmt.Print(metrics.Wire().Snapshot().Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
