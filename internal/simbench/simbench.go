// Package simbench measures raw single-run simulator throughput: host
// instructions-per-second for one bandit-controlled prefetching run over
// a set of catalog apps chosen for their dominant access pattern, and
// committed uops per second for one bandit-controlled SMT run per
// smoke-preset tune mix. It is the measurement behind `mab-report
// -simbench` and the recorded BENCH_sim.json artifact.
//
// Unlike the experiment benchmarks (which time whole Fig/Table
// pipelines), simbench isolates the per-instruction substrate cost —
// trace generation, the core window model, the cache hierarchy, the
// prefetcher ensemble, and the bandit step machinery — so hot-path
// regressions show up directly instead of being averaged into
// experiment wall-clock.
//
// Each result also records the run's simulated IPC (the bits of the
// summed thread IPC on SMT). Throughput numbers are hardware-dependent,
// but the IPC is deterministic: a mechanical-speed change must reproduce
// it bit-for-bit, so a drifting IPC in a re-recorded BENCH_sim.json flags
// a behavioral change, not a faster simulator.
package simbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/harness"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/trace"
)

// DefaultInsts is the default per-workload instruction budget: long
// enough that steady-state cost dominates setup and the bandit completes
// hundreds of steps, short enough that the whole suite runs in tens of
// seconds.
const DefaultInsts = 2_000_000

// Workload names one throughput measurement: a trace-catalog app chosen
// as the cleanest representative of an access pattern.
type Workload struct {
	// Name is the pattern name reported in BENCH_sim.json.
	Name string
	// App is the backing trace catalog application.
	App string
}

// Workloads returns the measured patterns, in report order. "stream" and
// "chase" bracket the two extremes — prefetch-friendly dense streaming
// and serialized pointer chasing — and the rest cover the catalog's
// remaining pattern families.
func Workloads() []Workload {
	return []Workload{
		{Name: "stream", App: "lbm17"},
		{Name: "chase", App: "omnetpp17"},
		{Name: "stride", App: "cactuBSSN"},
		{Name: "gather", App: "ligra-bfs"},
		{Name: "server", App: "cassandra"},
		{Name: "phase", App: "mcf17"},
	}
}

// Result is one workload's measurement.
type Result struct {
	Name        string  `json:"name"`
	App         string  `json:"app"`
	Insts       int64   `json:"insts"`
	Seconds     float64 `json:"seconds"`
	InstsPerSec float64 `json:"insts_per_sec"`
	// InstsPerSecMemo is the same measurement over a warm chunk cache —
	// the throughput a sweep's second and later runs over the same trace
	// see. Run asserts its IPC matches the cold column bit for bit.
	InstsPerSecMemo float64 `json:"insts_per_sec_memo,omitempty"`
	// IPC is the run's simulated instructions per cycle — the
	// determinism anchor (see the package comment).
	IPC float64 `json:"ipc"`
	// ChunkHitRate is the warm run's chunk-cache hit rate (1.0 when the
	// whole trace is resident).
	ChunkHitRate float64 `json:"chunk_hit_rate,omitempty"`
	// FFCoverage is the fraction of measured instructions advanced by the
	// steady-state fast-forward pass (memory-free span arithmetic).
	FFCoverage float64 `json:"ff_coverage,omitempty"`

	// BaselineInstsPerSec and the speedup columns are filled by Merge
	// when a baseline report is supplied.
	BaselineInstsPerSec float64 `json:"baseline_insts_per_sec,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	SpeedupMemo         float64 `json:"speedup_memo,omitempty"`
}

// SMTResult is one SMT mix's measurement.
type SMTResult struct {
	// Name is the mix, "a-b".
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
	// Committed counts the uops both threads committed.
	Committed int64 `json:"committed"`
	// Seconds is the fastest timed run; UopsPerSec is Committed over it.
	Seconds    float64 `json:"seconds"`
	UopsPerSec float64 `json:"uops_per_sec"`
	// SumIPCBits is math.Float64bits of the summed thread IPC, in hex —
	// the determinism anchor.
	SumIPCBits string `json:"sum_ipc_bits"`

	// BaselineUopsPerSec and Speedup are filled by Merge when a baseline
	// report is supplied.
	BaselineUopsPerSec float64 `json:"baseline_uops_per_sec,omitempty"`
	Speedup            float64 `json:"speedup,omitempty"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	GOOS             string      `json:"goos"`
	GOARCH           string      `json:"goarch"`
	CPUs             int         `json:"cpus"`
	InstsPerRun      int64       `json:"insts_per_run"`
	Seed             uint64      `json:"seed"`
	Workloads        []Result    `json:"workloads"`
	GMeanSpeedup     float64     `json:"gmean_speedup,omitempty"`
	GMeanSpeedupMemo float64     `json:"gmean_speedup_memo,omitempty"`
	SMT              []SMTResult `json:"smt,omitempty"`
	GMeanSpeedupSMT  float64     `json:"gmean_speedup_smt,omitempty"`
}

// newRunner builds the measured configuration: the paper's
// bandit-controlled Table 7 ensemble (DUCB, Table 6 hyperparameters)
// over the default Table 4 hierarchy — the configuration every
// prefetching experiment runs most of its jobs under.
func newRunner(gen trace.Generator, seed uint64) *cpu.Runner {
	hier := mem.NewHierarchy(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), hier, gen)
	ens := prefetch.NewTable7Ensemble()
	ctrl := core.MustNew(core.Config{
		Arms:      ens.NumArms(),
		Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
		Normalize: true,
		Seed:      seed,
	})
	return cpu.NewRunner(c, ens, ctrl, ens)
}

// Run measures every prefetch workload for insts instructions each, then
// every SMT mix, and returns the report. A short untimed warmup run
// precedes each prefetch measurement so one-time setup (table growth to
// the steady-state high-water mark) stays out of the timed region.
func Run(insts int64, seed uint64) Report {
	if insts <= 0 {
		insts = DefaultInsts
	}
	rep := Report{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		InstsPerRun: insts,
		Seed:        seed,
	}
	warmup := insts / 10
	if warmup > 200_000 {
		warmup = 200_000
	}
	for _, w := range Workloads() {
		app, err := trace.ByName(w.App)
		if err != nil {
			panic(fmt.Sprintf("simbench: workload %q: %v", w.Name, err))
		}
		// Cold column: live trace generation (a sweep's first run over a
		// trace).
		r := newRunner(app.New(seed), seed)
		r.Run(warmup)
		startInsts := r.Core.Insts()
		startFF := r.Core.FFInsts()
		t0 := time.Now()
		r.Run(insts)
		secs := time.Since(t0).Seconds()
		ran := r.Core.Insts() - startInsts
		res := Result{
			Name:    w.Name,
			App:     w.App,
			Insts:   ran,
			Seconds: secs,
			IPC:     r.Core.IPC(),
		}
		if ran > 0 {
			res.FFCoverage = float64(r.Core.FFInsts()-startFF) / float64(ran)
		}
		if secs > 0 {
			res.InstsPerSec = float64(ran) / secs
		}

		// Warm column: the same run over a pre-populated chunk cache (a
		// sweep's second and later runs, which replay slabs instead of
		// regenerating). The cache is populated untimed, then the
		// simulation is re-run from scratch against it.
		key := fmt.Sprintf("%s:%d", w.App, seed)
		cc := trace.NewChunkCache(0)
		populate(cc.Source(key, app.New(seed)), warmup+insts+trace.ChunkLen)
		rm := newRunner(cc.Source(key, app.New(seed)), seed)
		rm.Run(warmup)
		startInsts = rm.Core.Insts()
		t0 = time.Now()
		rm.Run(insts)
		memoSecs := time.Since(t0).Seconds()
		memoRan := rm.Core.Insts() - startInsts
		if memoSecs > 0 {
			res.InstsPerSecMemo = float64(memoRan) / memoSecs
		}
		if hits, misses := rm.Core.ChunkCacheStats(); hits+misses > 0 {
			res.ChunkHitRate = float64(hits) / float64(hits+misses)
		}
		if math.Float64bits(rm.Core.IPC()) != math.Float64bits(res.IPC) {
			panic(fmt.Sprintf("simbench: %s memoized IPC %v != live IPC %v — determinism violation",
				w.Name, rm.Core.IPC(), res.IPC))
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	rep.SMT = runSMT(seed)
	return rep
}

// smtTimedRuns is how many timed runs each SMT row takes the fastest of.
// One run lasts tens of milliseconds, short enough that a single sample
// on a shared host swings by a third.
const smtTimedRuns = 3

// runSMT measures the smoke preset's SMT job shape on each of its tune
// mixes: the DUCB runner over the Table 1 arms with Hill Climbing. An
// untimed run precedes the timed ones, each from a fresh pipeline, and
// every run must reproduce the first one's summed IPC bit for bit.
func runSMT(seed uint64) []SMTResult {
	o := harness.Smoke()
	all := smtwork.TuneMixes()
	run := func(mix smtwork.Mix) (*simsmt.SMT, float64) {
		sim := simsmt.NewSim(mix.A, mix.B, seed)
		r := simsmt.NewRunner(sim, simsmt.NewBanditAgent(seed), simsmt.Table1Arms(), true)
		r.EpochLen, r.RREpochs, r.MainEpochs = o.EpochLen, o.RREpochs, o.MainEpochs
		t0 := time.Now()
		r.RunCycles(o.SMTCycles)
		return sim, time.Since(t0).Seconds()
	}
	var out []SMTResult
	for i := 0; i < o.MaxMixes; i++ {
		mix := all[i*len(all)/o.MaxMixes]
		first, _ := run(mix)
		res := SMTResult{
			Name:       mix.Name(),
			Cycles:     first.Cycle(),
			Committed:  first.Committed(0) + first.Committed(1),
			Seconds:    math.Inf(1),
			SumIPCBits: fmt.Sprintf("%#016x", math.Float64bits(first.SumIPC())),
		}
		for k := 0; k < smtTimedRuns; k++ {
			sim, secs := run(mix)
			if math.Float64bits(sim.SumIPC()) != math.Float64bits(first.SumIPC()) {
				panic(fmt.Sprintf("simbench: %s SMT rerun SumIPC %v != first run %v — determinism violation",
					mix.Name(), sim.SumIPC(), first.SumIPC()))
			}
			res.Seconds = min(res.Seconds, secs)
		}
		if res.Seconds > 0 {
			res.UopsPerSec = float64(res.Committed) / res.Seconds
		}
		out = append(out, res)
	}
	return out
}

// populate pulls n instructions through a cache-backed source so the
// measured run replays resident chunks.
func populate(gen trace.Generator, n int64) {
	src := trace.SourceOf(gen)
	var c trace.Chunk
	for done := int64(0); done < n; done += trace.ChunkLen {
		c.Reset(trace.ChunkLen)
		src.NextChunk(&c)
	}
}

// Merge fills each result's baseline throughput and speedup from a
// previously recorded report (matched by workload or mix name) and
// computes the geometric-mean speedups over the rows present in both,
// the SMT rows apart from the prefetch rows.
func Merge(cur Report, baseline Report) Report {
	base := make(map[string]Result, len(baseline.Workloads))
	for _, r := range baseline.Workloads {
		base[r.Name] = r
	}
	logSum, n := 0.0, 0
	logSumMemo, nMemo := 0.0, 0
	for i := range cur.Workloads {
		r := &cur.Workloads[i]
		b, ok := base[r.Name]
		if !ok || b.InstsPerSec <= 0 || r.InstsPerSec <= 0 {
			continue
		}
		r.BaselineInstsPerSec = b.InstsPerSec
		r.Speedup = r.InstsPerSec / b.InstsPerSec
		logSum += math.Log(r.Speedup)
		n++
		if r.InstsPerSecMemo > 0 {
			r.SpeedupMemo = r.InstsPerSecMemo / b.InstsPerSec
			logSumMemo += math.Log(r.SpeedupMemo)
			nMemo++
		}
	}
	if n > 0 {
		cur.GMeanSpeedup = math.Exp(logSum / float64(n))
	}
	if nMemo > 0 {
		cur.GMeanSpeedupMemo = math.Exp(logSumMemo / float64(nMemo))
	}
	baseSMT := make(map[string]SMTResult, len(baseline.SMT))
	for _, r := range baseline.SMT {
		baseSMT[r.Name] = r
	}
	logSum, n = 0, 0
	for i := range cur.SMT {
		r := &cur.SMT[i]
		b, ok := baseSMT[r.Name]
		if !ok || b.UopsPerSec <= 0 || r.UopsPerSec <= 0 {
			continue
		}
		r.BaselineUopsPerSec = b.UopsPerSec
		r.Speedup = r.UopsPerSec / b.UopsPerSec
		logSum += math.Log(r.Speedup)
		n++
	}
	if n > 0 {
		cur.GMeanSpeedupSMT = math.Exp(logSum / float64(n))
	}
	return cur
}

// ReadReport loads a previously recorded BENCH_sim.json.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("simbench: parsing %s: %w", path, err)
	}
	return rep, nil
}

// WriteReport persists a report as indented JSON.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
