// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator or the decision server, built only
// from the exported constructors of the layer packages, checks the
// program's outputs, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload pf-sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with no
// instrumentation. --trace 1 is the separate traced run: it repeats the
// untraced measurement, then measures again through wrappers at the
// boundaries the benchmark owns (trace source, prefetcher, controller,
// http.Handler) under a CPU profile, and reports per-layer metrics. See
// README.md for every metric's definition.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"microbandit/internal/version"
)

// Workload names.
const (
	wlPfSweep    = "pf-sweep"
	wlSMTSweep   = "smt-sweep"
	wlServeBatch = "serve-batch"
)

var workloads = []string{wlPfSweep, wlSMTSweep, wlServeBatch}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload. A
// "pass" is one run of a simulation workload's whole job list, or 10^6
// decisions on serve-batch.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload; a layer a
// workload does not use reads 0. Times and counts are per pass.
var perLayer = []metricDef{
	{"trace.self_s", "s"}, {"trace.chunks", "count"}, {"trace.chunk_hit_rate", "ratio"},
	{"cpu.self_s", "s"}, {"cpu.insts", "count"}, {"cpu.ff_insts", "count"}, {"cpu.ff_coverage", "ratio"},
	{"mem.self_s", "s"}, {"mem.l2_demand", "count"}, {"mem.llc_misses", "count"}, {"mem.pref_dropped", "count"},
	{"prefetch.self_s", "s"}, {"prefetch.operate_calls", "count"}, {"prefetch.issued", "count"},
	{"prefetch.accuracy", "ratio"},
	{"core.self_s", "s"}, {"core.steps", "count"}, {"core.restarts", "count"},
	{"core.kernel_ns_per_decision", "ns"},
	{"simsmt.self_s", "s"}, {"simsmt.cycles", "count"}, {"simsmt.rename_stalls", "count"},
	{"simsmt.rename_stall_frac", "ratio"}, {"simsmt.alloc_bytes_per_cycle", "B"},
	{"smtwork.self_s", "s"},
	{"serve.handler_self_s", "s"}, {"serve.codec_self_s", "s"},
	{"serve.requests_2xx", "count"}, {"serve.requests_non2xx", "count"},
	{"loadgen.self_s", "s"},
	{"runtime.gc_s", "s"}, {"runtime.alloc_mb", "MB"},
	{"other.self_s", "s"},
	{"bench.trace_overhead", "ratio"},
}

// deterministicCounts are the per-layer counts that repeat exactly across
// runs with the same seed (on the simulation workloads), so a change may
// claim one of them as a count rather than a speed-up.
var deterministicCounts = []string{
	"trace.chunks", "trace.chunk_hit_rate", "cpu.insts", "cpu.ff_insts", "cpu.ff_coverage",
	"mem.l2_demand", "mem.llc_misses", "mem.pref_dropped", "prefetch.operate_calls",
	"prefetch.issued", "prefetch.accuracy", "core.steps", "core.restarts",
	"simsmt.cycles", "simsmt.rename_stalls", "simsmt.rename_stall_frac",
}

// outcome is one workload run: operations attempted and failed, metric
// values by name, and details printed beside the result.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	detail            map[string]any
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 30, "measured time of one run")
	traceFlag := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	recordDir := fs.String("record", "", "write the expected tables of the simulation workloads into `dir` and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordDir != "" {
		for _, w := range []string{wlPfSweep, wlSMTSweep} {
			if err := record(*recordDir, w, fullSizes); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// GOMAXPROCS never exceeds the CPUs the process may use. Simulation
	// jobs run one at a time on one goroutine, with GOMAXPROCS 1: the
	// garbage collector then shares the simulation's CPU, so its cost
	// shows in wall_s, and its pacing, which sets the heap's peak, does
	// not depend on how busy a second, shared CPU is. At GOMAXPROCS 2,
	// smt-sweep's peak RSS moved between 17 and 23 MB from run to run;
	// at 1 it stayed between 19.9 and 20.2 MB.
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	if *workload != wlServeBatch {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	traced := *traceFlag == 1
	budget := time.Duration(*seconds * float64(time.Second))
	o, err := runWorkload(*workload, fullSizes, *seed, budget, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, o, *workload, *seed, traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload and fills its metrics.
func runWorkload(workload string, sz sizes, seed uint64, budget time.Duration, traced bool) (*outcome, error) {
	switch workload {
	case wlPfSweep, wlSMTSweep:
		exp, err := loadExpected(workload)
		if err != nil {
			return nil, err
		}
		return runSim(workload, sz, seed, budget, traced, exp)
	case wlServeBatch:
		return runServe(sz, seed, budget, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
}

// report prints the provenance and detail line, then the result line.
func report(w io.Writer, o *outcome, workload string, seed uint64, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metric{v, d.unit}
	}
	if o.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	o.detail["error_rate"] = float64(o.failed) / float64(o.attempted)
	if traced {
		o.detail["deterministic_counts"] = deterministicCounts
	}
	prov := map[string]any{
		"workload": workload, "seed": seed, "traced": traced,
		"version": version.String(), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov, "detail": o.detail}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB returns the process's peak resident set in MB (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
