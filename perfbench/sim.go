package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/trace"
)

// sizes fixes how much work one pass of each workload does.
type sizes struct {
	// Apps are the pf-sweep applications.
	Apps []string
	// PfInsts is the instruction budget of one pf-sweep job.
	PfInsts int64
	// PfStepL2 is the pf-sweep bandit step in L2 demand accesses.
	PfStepL2 int
	// Mixes is how many SMT tune mixes smt-sweep runs, spread evenly over
	// smtwork.TuneMixes.
	Mixes int
	// SMTCycles is the cycle budget of one smt-sweep job.
	SMTCycles int64
	// SMTEpoch, SMTRREpochs and SMTMainEpochs shape the SMT bandit loop.
	SMTEpoch                   int64
	SMTRREpochs, SMTMainEpochs int
	// ServeBatch is the number of sessions each serve-batch client owns
	// and advances with one /v1/batch request per round.
	ServeBatch int
	// ServeRound is the measured length of one serve-batch load round.
	ServeRound time.Duration
}

// fullSizes is the benchmark's configuration. The pf-sweep apps are the
// six simbench uses, one per access pattern (stream, pointer chase,
// stride, gather, server, phase change). Job shapes are the smoke
// preset's (harness.Smoke: 300k instructions with a bandit step of 200
// L2 accesses; 3 tune mixes of 400k SMT cycles in 4096-cycle epochs, 4
// round-robin and 2 main epochs), and serve-batch uses batch 16, as CI
// and BENCH_cluster do.
var fullSizes = sizes{
	Apps:      []string{"lbm17", "omnetpp17", "cactuBSSN", "ligra-bfs", "cassandra", "mcf17"},
	PfInsts:   300_000,
	PfStepL2:  200,
	Mixes:     3,
	SMTCycles: 400_000,
	SMTEpoch:  4 * 1024, SMTRREpochs: 4, SMTMainEpochs: 2,
	ServeBatch: 16,
	ServeRound: time.Second,
}

// simStats are one job's simulated statistics. Every field is a
// deterministic function of the job and its input seed, so a change that
// only makes the simulator faster must leave all of them unchanged; the
// committed expected tables pin every field.
type simStats struct {
	IPCBits      uint64 // math.Float64bits of IPC (summed thread IPC on SMT)
	Cycles       int64
	Insts        int64
	FFInsts      int64
	L2Demand     int64
	LLCMisses    int64
	PrefIssued   int64
	PrefDropped  int64
	PrefTimely   int64
	PrefLate     int64
	Steps        int64 // completed bandit steps
	Restarts     int64
	Committed0   int64
	Committed1   int64
	RenameStalls int64
	RenameTotal  int64
}

// job is one simulation of a sweep. build constructs everything the
// simulation needs (the timed set-up) and returns the simulation itself
// (the timed run), which reports the job's statistics.
type job struct {
	name  string
	build func(tr *tracer) func() simStats
}

// pfJobs is pf-sweep: the Table 8 job shape. Every app runs under the
// DUCB bandit over the Table 7 ensemble, each static arm of the ensemble,
// and no prefetching; all configurations of an app replay one trace
// seed, which is the paper's paired method.
func pfJobs(sz sizes, seed uint64) ([]job, error) {
	arms := prefetch.NewTable7Ensemble().NumArms()
	var jobs []job
	for _, name := range sz.Apps {
		app, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		add := func(config string, arm int) {
			jobs = append(jobs, job{name: app.Name + "/" + config, build: func(tr *tracer) func() simStats {
				hier := mem.NewHierarchy(mem.DefaultConfig())
				c := cpu.New(cpu.DefaultConfig(), hier, tr.gen(app.New(seed)))
				var r *cpu.Runner
				var agent *core.Agent
				switch {
				case config == "none":
					r = cpu.NewRunner(c, tr.pf(prefetch.Null{}), nil, nil)
				case arm < 0:
					ens := prefetch.NewTable7Ensemble()
					agent = core.MustNew(core.Config{
						Arms:      ens.NumArms(),
						Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
						Normalize: true,
						Seed:      seed,
					})
					r = cpu.NewRunner(c, tr.pf(ens), tr.ctrl(agent), ens)
				default:
					ens := prefetch.NewTable7Ensemble()
					r = cpu.NewRunner(c, tr.pf(ens), tr.ctrl(core.FixedArm(arm)), ens)
				}
				r.StepL2 = sz.PfStepL2
				return func() simStats {
					r.Run(sz.PfInsts)
					tr.addCacheHits(c)
					st, cl := hier.Stats(), hier.Classify()
					s := simStats{
						IPCBits: math.Float64bits(c.IPC()), Cycles: c.Cycles(),
						Insts: c.Insts(), FFInsts: c.FFInsts(),
						L2Demand: st.L2Demand, LLCMisses: st.LLCMisses,
						PrefIssued: st.PrefIssued, PrefDropped: st.PrefDropped,
						PrefTimely: cl.Timely, PrefLate: cl.Late,
						Steps: r.Steps(),
					}
					if agent != nil {
						s.Restarts = int64(agent.Restarts())
					}
					return s
				}
			}})
		}
		add("ducb", -1)
		for arm := 0; arm < arms; arm++ {
			add(fmt.Sprintf("static-%d", arm), arm)
		}
		add("none", 0)
	}
	return jobs, nil
}

// smtJobs is smt-sweep: the Fig 5 / Table 9 job shape. Each mix runs
// every Table 1 arm as a fixed policy with Hill Climbing, the Choi
// reference, and the DUCB bandit over the Table 1 arms.
func smtJobs(sz sizes, seed uint64) []job {
	all := smtwork.TuneMixes()
	arms := simsmt.Table1Arms()
	var jobs []job
	for i := 0; i < sz.Mixes; i++ {
		mix := all[i*len(all)/sz.Mixes]
		add := func(config string, policy *simsmt.Policy) {
			jobs = append(jobs, job{name: mix.Name() + "/" + config, build: func(tr *tracer) func() simStats {
				sim := simsmt.NewSim(mix.A, mix.B, seed)
				var r *simsmt.Runner
				var agent *core.Agent
				if policy != nil {
					r = simsmt.NewFixedRunner(sim, *policy, true)
				} else {
					agent = simsmt.NewBanditAgent(seed)
					r = simsmt.NewRunner(sim, tr.ctrl(agent), arms, true)
					r.RREpochs, r.MainEpochs = sz.SMTRREpochs, sz.SMTMainEpochs
				}
				r.EpochLen = sz.SMTEpoch
				return func() simStats {
					r.RunCycles(sz.SMTCycles)
					rs := sim.RenameStats()
					s := simStats{
						IPCBits: math.Float64bits(sim.SumIPC()), Cycles: sim.Cycle(),
						Committed0: sim.Committed(0), Committed1: sim.Committed(1),
						RenameStalls: rs.Stalled(), RenameTotal: rs.Total(),
					}
					if agent != nil {
						s.Steps = int64(agent.StepsTaken())
						s.Restarts = int64(agent.Restarts())
					}
					return s
				}
			}})
		}
		for a := range arms {
			add(arms[a].String(), &arms[a])
		}
		choi := simsmt.ChoiPolicy
		add("choi", &choi)
		add("ducb", nil)
	}
	return jobs
}

// simJobs returns the job list of a simulation workload.
func simJobs(workload string, sz sizes, seed uint64) ([]job, error) {
	if workload == wlSMTSweep {
		return smtJobs(sz, seed), nil
	}
	return pfJobs(sz, seed)
}

// passStats measures repeated passes over a job list. Times are raw;
// scale holds each pass's machine-speed factor (see probe.go).
type passStats struct {
	passes int
	setupS []float64   // per pass: summed set-up time of its jobs
	runS   [][]float64 // per job, per pass: run time
	scale  []float64   // per pass
	first  []simStats  // per job, from the first pass
}

// factor is pass p's scale, or 1 for raw times.
func (ps passStats) factor(p int, scaled bool) float64 {
	if scaled {
		return ps.scale[p]
	}
	return 1
}

// jobS returns each job's typical run time: its median over passes.
func (ps passStats) jobS(scaled bool) []float64 {
	out := make([]float64, len(ps.runS))
	for j, r := range ps.runS {
		xs := make([]float64, len(r))
		for p, x := range r {
			xs[p] = x * ps.factor(p, scaled)
		}
		out[j] = median(xs)
	}
	return out
}

// wallS is the host time of one pass: each job's typical run time,
// summed over the job list.
func (ps passStats) wallS(scaled bool) float64 {
	total := 0.0
	for _, x := range ps.jobS(scaled) {
		total += x
	}
	return total
}

// setupMedianS is the median over passes of a pass's set-up time.
func (ps passStats) setupMedianS(scaled bool) float64 {
	xs := make([]float64, len(ps.setupS))
	for p, x := range ps.setupS {
		xs[p] = x * ps.factor(p, scaled)
	}
	return median(xs)
}

// latencyUs returns the p50 and p99 over the job list of the jobs'
// typical run times, in microseconds. A job's time is its median over
// passes, so one slow moment of the machine moves no percentile.
func (ps passStats) latencyUs(scaled bool) (p50, p99 float64) {
	js := ps.jobS(scaled)
	return quantile(js, 0.50) * 1e6, quantile(js, 0.99) * 1e6
}

// probesPerPass is about how many machine-speed probes a pass takes,
// spread evenly over its jobs. Fewer let one probe's noise move the
// pass's scale: with 3 per 24-job smt-sweep pass, scaled pass times
// varied more than raw ones.
const probesPerPass = 12

// runPasses runs the job list, one job at a time, until another pass
// would overrun budget (at least one pass). Each job's statistics go to
// check. With a tracer, heap allocation around each job's run is added
// to tr.allocBytes.
func runPasses(jobs []job, tr *tracer, budget time.Duration, check func(job, simStats)) passStats {
	ps := passStats{runS: make([][]float64, len(jobs))}
	probeEvery := max(1, len(jobs)/probesPerPass)
	start := time.Now()
	for {
		// Start every pass from a collected heap, so one pass's garbage
		// is not collected inside the next pass's timings.
		runtime.GC()
		t0 := time.Now()
		var sp speed
		setup := 0.0
		for i, j := range jobs {
			if i%probeEvery == 0 {
				sp.sample()
			}
			t1 := time.Now()
			run := j.build(tr)
			setup += time.Since(t1).Seconds()
			var m0, m1 runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&m0)
			}
			t2 := time.Now()
			s := run()
			ps.runS[i] = append(ps.runS[i], time.Since(t2).Seconds())
			if tr != nil {
				runtime.ReadMemStats(&m1)
				tr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			}
			check(j, s)
			if ps.passes == 0 {
				ps.first = append(ps.first, s)
			}
		}
		ps.setupS = append(ps.setupS, setup)
		ps.scale = append(ps.scale, sp.scale())
		ps.passes++
		if time.Since(start)+time.Since(t0) > budget {
			return ps
		}
	}
}

// runSim runs a simulation workload. Every job's statistics are checked
// against the committed expected table of the seed's input; a traced
// run also checks that the traced pass reproduces the untraced one.
func runSim(workload string, sz sizes, seed uint64, budget time.Duration, traced bool, all expectations) (*outcome, error) {
	in := inputSeed(seed)
	exp, ok := all[in]
	if !ok {
		return nil, fmt.Errorf("%s: no expected statistics for input %d", workload, in)
	}
	jobs, err := simJobs(workload, sz, in)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}, detail: map[string]any{"input_seed": in, "jobs": len(jobs)}}
	mismatch := func(what, name string, got, want simStats) {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s (input %d): %s\n  got  %s\n  want %s\n", workload, name, in, what,
				formatExpected(in, name, got), formatExpected(in, name, want))
		}
	}
	check := func(j job, s simStats) {
		o.attempted++
		if want := exp[j.name]; want != s {
			mismatch("statistics differ from the expected table", j.name, s, want)
		}
	}
	work := func(stats []simStats) float64 {
		w := 0.0
		for _, s := range stats {
			w += float64(s.Insts + s.Committed0 + s.Committed1)
		}
		return w
	}

	if !traced {
		ps := runPasses(jobs, nil, budget, check)
		wall := ps.wallS(true)
		o.metrics["setup_s"] = ps.setupMedianS(true)
		o.metrics["wall_s"] = wall
		o.metrics["p50_us"], o.metrics["p99_us"] = ps.latencyUs(true)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		o.detail["passes"] = ps.passes
		o.detail["latency_samples"] = len(jobs)
		o.detail["sim_minst_per_s"] = work(ps.first) / ps.wallS(false) / 1e6
		raw := map[string]float64{
			"setup_s": ps.setupMedianS(false), "wall_s": ps.wallS(false),
			"scale": median(ps.scale),
		}
		raw["p50_us"], raw["p99_us"] = ps.latencyUs(false)
		o.detail["raw"] = raw
		return o, nil
	}

	base := runPasses(jobs, nil, budget/2, check)
	tr := newTracer()
	var tp passStats
	cost, err := profiled(tr, func() { tp = runPasses(jobs, tr, budget/2, check) })
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		o.attempted++
		if tp.first[i] != base.first[i] {
			mismatch("traced run differs from the untraced run", j.name, tp.first[i], base.first[i])
		}
	}

	var sum simStats
	for _, s := range tp.first {
		sum.Insts += s.Insts
		sum.FFInsts += s.FFInsts
		sum.L2Demand += s.L2Demand
		sum.LLCMisses += s.LLCMisses
		sum.PrefIssued += s.PrefIssued
		sum.PrefDropped += s.PrefDropped
		sum.PrefTimely += s.PrefTimely
		sum.PrefLate += s.PrefLate
		sum.Steps += s.Steps
		sum.Restarts += s.Restarts
		sum.RenameStalls += s.RenameStalls
		sum.RenameTotal += s.RenameTotal
		if workload == wlSMTSweep {
			sum.Cycles += s.Cycles
		}
	}
	n := float64(tp.passes)
	m := cost.perPass(n)
	m["trace.self_s"] = tr.boundaryS(tr.traceNs, tr.chunks) / n
	m["trace.chunks"] = float64(tr.chunks) / n
	m["trace.chunk_hit_rate"] = ratio(float64(tr.chunkHits), float64(tr.chunks))
	m["cpu.insts"] = float64(sum.Insts)
	m["cpu.ff_insts"] = float64(sum.FFInsts)
	m["cpu.ff_coverage"] = ratio(float64(sum.FFInsts), float64(sum.Insts))
	m["mem.l2_demand"] = float64(sum.L2Demand)
	m["mem.llc_misses"] = float64(sum.LLCMisses)
	m["mem.pref_dropped"] = float64(sum.PrefDropped)
	m["prefetch.self_s"] = tr.boundaryS(tr.pfNs, tr.operateCalls) / n
	m["prefetch.operate_calls"] = float64(tr.operateCalls) / n
	m["prefetch.issued"] = float64(sum.PrefIssued)
	m["prefetch.accuracy"] = ratio(float64(sum.PrefTimely+sum.PrefLate), float64(sum.PrefIssued))
	coreS := tr.boundaryS(tr.coreNs, tr.coreCalls)
	m["core.self_s"] = coreS / n
	m["core.steps"] = float64(sum.Steps)
	m["core.restarts"] = float64(sum.Restarts)
	m["core.kernel_ns_per_decision"] = ratio(coreS*1e9, float64(tr.decisions))
	m["simsmt.cycles"] = float64(sum.Cycles)
	m["simsmt.rename_stalls"] = float64(sum.RenameStalls)
	m["simsmt.rename_stall_frac"] = ratio(float64(sum.RenameStalls), float64(sum.RenameTotal))
	m["simsmt.alloc_bytes_per_cycle"] = ratio(float64(tr.allocBytes)/n, float64(sum.Cycles))
	m["bench.trace_overhead"] = ratio(tp.wallS(true), base.wallS(true))
	o.metrics = m
	o.detail["passes"] = base.passes
	o.detail["traced_passes"] = tp.passes
	o.detail["wall_s"] = base.wallS(true)
	o.detail["traced_wall_s"] = tp.wallS(true)
	o.detail["profile_s"] = cost.self
	return o, nil
}
