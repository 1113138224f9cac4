package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// report is what -all writes: every metric of every workload, with the
// bounds, the per-segment values and the machine it was measured on.
type report struct {
	Info      reportInfo       `json:"info"`
	EndToEnd  []metricDef      `json:"end_to_end"`
	Clock     []metricDef      `json:"clock"`
	PerLayer  []metricDef      `json:"per_layer"`
	Workloads []workloadReport `json:"workloads"`
}

type reportInfo struct {
	Seed          int64   `json:"seed"`
	Nproc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Clients       int     `json:"clients"`
	Go            string  `json:"go"`
	WindowSeconds float64 `json:"window_seconds"`
	Segments      int     `json:"segments"`
	DataRoot      string  `json:"data_root"`
	DataRootFS    string  `json:"data_root_fs"`
}

type workloadReport struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
	// TraceOverheadRatio is untraced over traced ops per second. No
	// end-to-end number is ever taken from the traced run.
	TraceOverheadRatio float64 `json:"trace_overhead_ratio"`
}

// runAll runs every workload untraced for the end-to-end numbers, then
// traced for the per-layer numbers, prints them all and writes the
// report. It returns the process exit code.
func runAll(ctx context.Context, opt options, out string) int {
	if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil { // named in the report with its filesystem
		fmt.Fprintf(os.Stderr, "sydload: data root: %v\n", err)
		return 2
	}
	rep := report{
		Info: reportInfo{
			Seed: opt.seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Clients: opt.clients, Go: runtime.Version(), WindowSeconds: opt.window.Seconds(),
			Segments: segments, DataRoot: opt.dataRoot, DataRootFS: fsName(opt.dataRoot),
		},
		EndToEnd: endToEndMetrics,
		Clock:    clockMetrics,
		PerLayer: layerMetrics,
	}
	code := 0
	for _, def := range workloads {
		wr := workloadReport{Name: def.name, Why: def.why}
		for _, traced := range []bool{false, true} {
			opt.traced = traced
			res, err := runWorkload(ctx, def, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sydload: %s: %v\n", def.name, err)
				return 2
			}
			printResult(res)
			for _, f := range res.Failures {
				fmt.Fprintf(os.Stderr, "sydload: %s: check failed: %s\n", def.name, f)
				code = 1
			}
			if traced {
				wr.Traced = res
			} else {
				wr.Untraced = res
			}
		}
		wr.TraceOverheadRatio = safeDiv(wr.Untraced.OpsPerS, wr.Traced.OpsPerS)
		fmt.Printf("  %-34s %14.4f ratio\n", "trace_overhead_ratio", wr.TraceOverheadRatio)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "sydload: write report: %v\n", err)
			return 2
		}
	}
	return code
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fsName names the filesystem under path: the durable workload's logs
// are written there.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// compareReports prints, per workload and metric of the untraced run, both
// values, how much worse b is than a, the bound, and a verdict:
// "unresolved" when in either run the segments (max-min over median of
// all of them) are further apart than the bound, "worse" when b is worse
// than a by more than the bound. A ratio is compared by its absolute
// difference, every other metric as a share of a. It returns 1 on any
// "worse".
func compareReports(pathA, pathB string) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		var err error
		if reps[i], err = loadReport(path); err != nil {
			fmt.Fprintf(os.Stderr, "sydload: %v\n", err)
			return 2
		}
	}
	return compare(reps[0], reps[1])
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compare(a, b *report) int {
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Printf("%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.Untraced == nil || wb.Untraced == nil {
			fmt.Printf("%-14s missing from one report\n", wa.Name)
			code = 1
			continue
		}
		for _, m := range append(append([]metricDef{}, a.EndToEnd...), a.Clock...) {
			va, vb := wa.Untraced.EndToEnd[m.Name], wb.Untraced.EndToEnd[m.Name]
			worse := vb.Value - va.Value
			if m.Unit != "ratio" {
				worse = safeDiv(worse, va.Value)
			}
			if m.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			// Set-ups of a few milliseconds are always further apart than
			// that; the driver leaves setup_s out of its spread check too.
			case m.Name != "setup_s" && max(va.Spread, vb.Spread) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
