// Package harness wires the substrates into the paper's experiments: one
// runner per table and figure of the motivation and evaluation sections
// (see DESIGN.md's per-experiment index), plus the ablations DESIGN.md
// calls out. Each experiment returns structured results and renders the
// same rows/series the paper reports.
//
// Simulation budgets are scaled presets rather than the paper's 1 B
// instructions: Smoke (tests/benches), Quick (default CLI), and Full
// (longer CLI runs). All time constants scale together — bandit steps,
// Hill Climbing epochs, and phase lengths keep their ratios — so the
// learning dynamics are preserved at every preset (EXPERIMENTS.md
// documents the mapping).
package harness

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/prefetch"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/trace"
)

// Options sizes an experiment run.
type Options struct {
	// Insts is the per-run instruction budget for prefetching
	// experiments.
	Insts int64
	// StepL2 is the prefetching bandit step in L2 demand accesses.
	StepL2 int
	// MaxApps caps the number of applications per suite (0 = all).
	MaxApps int

	// SMTCycles is the per-run cycle budget for SMT experiments.
	SMTCycles int64
	// EpochLen is the Hill Climbing epoch length in cycles.
	EpochLen int64
	// RREpochs and MainEpochs are the SMT bandit step lengths.
	RREpochs, MainEpochs int
	// MaxMixes caps the number of 2-thread mixes (0 = all).
	MaxMixes int

	// Seed is the base seed; every run derives a stable sub-seed.
	Seed uint64

	// Workers bounds the experiment engine's worker pool: independent
	// simulation runs fan out across this many goroutines. 0 (the
	// default) means runtime.GOMAXPROCS(0); 1 forces serial execution.
	// Results are assembled in input order, so rendered output is
	// byte-identical at every worker count.
	Workers int

	// Errs, when non-nil, collects failed jobs (including recovered
	// panics) so experiments render partial results and the CLI appends
	// an error appendix. When nil, a failed job panics on the
	// coordinating goroutine with full job attribution — never from
	// inside a worker.
	Errs *ErrorLog

	// Obs, when non-nil, collects telemetry from telemetry-capable
	// experiments (currently RobustWith): every run claims the
	// Collector slot matching its job index, so the assembled event
	// stream is byte-identical at every Workers count. The Collector's
	// Every field sets the snapshot/interval cadence in bandit steps.
	Obs *obs.Collector

	// Ctx, when non-nil, cancels the experiment engine cooperatively:
	// once done, in-flight simulations stop at their next chunk or epoch
	// boundary and report the statistics they accumulated, unstarted
	// jobs land in Errs as cancellations, and the experiment renders
	// partial results. Nil means run to completion.
	Ctx context.Context

	// ChunkCache, when non-nil, is shared across the experiment's runs:
	// trace-generator output is memoized at chunk granularity, so sweep
	// points simulating the same (generator, seed) trace replay stored
	// slabs instead of regenerating them. Replay is bit-identical and
	// correctness never depends on residency, so every output is
	// byte-identical with and without the cache.
	ChunkCache *trace.ChunkCache

	// SimCounters, when non-nil, accumulates simulator-effectiveness
	// totals (instructions simulated, instructions fast-forwarded,
	// chunk-cache hits/misses) across the experiment's prefetching runs;
	// the CI bench matrix reports them per vCPU count.
	SimCounters *SimCounters
}

// SimCounters aggregates simulator-effectiveness counters across an
// experiment's runs. Safe for concurrent use: runs fan out across the
// worker pool.
type SimCounters struct {
	Insts  atomic.Int64 // instructions simulated
	FF     atomic.Int64 // instructions advanced by fast-forward spans
	Hits   atomic.Int64 // chunk-cache hits
	Misses atomic.Int64 // chunk-cache misses
}

// FFCoverage returns the fraction of simulated instructions advanced by
// the steady-state fast-forward pass.
func (s *SimCounters) FFCoverage() float64 {
	if insts := s.Insts.Load(); insts > 0 {
		return float64(s.FF.Load()) / float64(insts)
	}
	return 0
}

// HitRate returns the chunk-cache hit rate over the accumulated runs, or
// 0 before any chunk traffic.
func (s *SimCounters) HitRate() float64 {
	h, m := s.Hits.Load(), s.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// gen wraps a freshly built trace generator in the shared chunk cache
// when one is configured. seed must be the seed the generator was built
// with: the cache key is the generator's name plus that seed —
// everything a catalog stream is a function of.
func (o Options) gen(g trace.Generator, seed uint64) trace.Generator {
	if o.ChunkCache == nil {
		return g
	}
	return o.ChunkCache.Source(fmt.Sprintf("%s:%x", g.Name(), seed), g)
}

// noteSim folds a finished run's simulator-effectiveness counters into
// SimCounters, when configured.
func (o Options) noteSim(c *cpu.Core) {
	if o.SimCounters == nil {
		return
	}
	o.SimCounters.Insts.Add(c.Insts())
	o.SimCounters.FF.Add(c.FFInsts())
	h, m := c.ChunkCacheStats()
	o.SimCounters.Hits.Add(h)
	o.SimCounters.Misses.Add(m)
}

// ctx resolves the engine context for simulation runners.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// simInsts drives one prefetching runner for the option's instruction
// budget under the engine context; on cancellation the runner's partial
// statistics stay valid.
func (o Options) simInsts(r *cpu.Runner) { _ = r.RunCtx(o.ctx(), o.Insts) }

// cycleRunner is any SMT-side runner with cancellable cycle driving
// (simsmt.Runner, simsmt.ARPARunner).
type cycleRunner interface {
	RunCyclesCtx(ctx context.Context, n int64) error
}

// simCycles drives one SMT runner for the option's cycle budget under
// the engine context.
func (o Options) simCycles(r cycleRunner) { _ = r.RunCyclesCtx(o.ctx(), o.SMTCycles) }

// workers resolves the pool size for runJobs.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return par.DefaultWorkers()
}

// runJobs fans an experiment's independent runs across the option's
// worker pool, returning results in input order. Every job must derive
// its own seed (Options.subSeed) and construct all simulation state
// locally; nothing may be shared across jobs.
//
// Jobs run with panic recovery: a panicking job yields its zero-valued
// result slot and is recorded in Options.Errs (or, with no log
// installed, re-panicked once all jobs finish — with the job index and
// original panic value, from the coordinating goroutine). Sibling jobs
// always run to completion, so experiments degrade to partial results
// instead of taking the whole engine down.
func runJobs[J, R any](o Options, jobs []J, fn func(J) R) []R {
	// Once Ctx is done, running jobs finish early (their simulators
	// observe the same context) and unstarted jobs come back as
	// cancellation errors instead of running.
	results, errs := par.RunCtx(o.ctx(), o.workers(), jobs, func(_ context.Context, j J) (R, error) {
		return fn(j), nil
	})
	for _, err := range errs {
		if err == nil {
			continue
		}
		if o.Errs != nil {
			o.Errs.add(err)
			continue
		}
		panic(err)
	}
	return results
}

// Smoke returns the smallest preset: seconds-scale, used by unit tests
// and the benchmark harness.
func Smoke() Options {
	return Options{
		Insts: 300_000, StepL2: 200, MaxApps: 2,
		SMTCycles: 400_000, EpochLen: 4 * 1024, RREpochs: 4, MainEpochs: 2,
		MaxMixes: 3, Seed: 1,
	}
}

// Quick returns the default CLI preset: minutes-scale.
func Quick() Options {
	return Options{
		Insts: 1_500_000, StepL2: 500, MaxApps: 4,
		SMTCycles: 1_500_000, EpochLen: 8 * 1024, RREpochs: 8, MainEpochs: 2,
		MaxMixes: 12, Seed: 1,
	}
}

// Full returns the large preset: tens of minutes, full app/mix coverage.
func Full() Options {
	return Options{
		Insts: 4_000_000, StepL2: 1000, MaxApps: 0,
		SMTCycles: 3_000_000, EpochLen: 16 * 1024, RREpochs: 16, MainEpochs: 2,
		MaxMixes: 0, Seed: 1,
	}
}

// apps returns the experiment's application list under the MaxApps cap,
// preserving suite balance.
func (o Options) apps(all []trace.App) []trace.App {
	if o.MaxApps <= 0 {
		return all
	}
	perSuite := map[string]int{}
	var out []trace.App
	for _, a := range all {
		if perSuite[a.Suite] < o.MaxApps {
			out = append(out, a)
			perSuite[a.Suite]++
		}
	}
	return out
}

// mixes returns the experiment's mix list under the MaxMixes cap, spread
// evenly across the full list so heterogeneity is preserved.
func (o Options) mixes(all []smtwork.Mix) []smtwork.Mix {
	if o.MaxMixes <= 0 || o.MaxMixes >= len(all) {
		return all
	}
	out := make([]smtwork.Mix, 0, o.MaxMixes)
	stride := float64(len(all)) / float64(o.MaxMixes)
	for i := 0; i < o.MaxMixes; i++ {
		out = append(out, all[int(float64(i)*stride)])
	}
	return out
}

// subSeed derives a stable per-run seed. A separator byte is folded in
// after every part so distinct part lists hash distinctly
// (subSeed("ab","c") != subSeed("a","bc")).
func (o Options) subSeed(parts ...string) uint64 {
	h := o.Seed*0x9e3779b97f4a7c15 + 0x1234
	for _, p := range parts {
		for _, c := range []byte(p) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = (h ^ 0x1f) * 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------
// Prefetching machinery

// PfKind names a prefetcher configuration used across experiments.
type PfKind string

// Prefetcher configurations.
const (
	PfNone   PfKind = "NoPrefetch"
	PfStride PfKind = "Stride"
	PfBingo  PfKind = "Bingo"
	PfMLOP   PfKind = "MLOP"
	PfPythia PfKind = "Pythia"
	PfBandit PfKind = "Bandit"
)

// PrefetchRun is one (app, configuration) measurement.
type PrefetchRun struct {
	App   string
	Suite string
	Kind  string
	IPC   float64
	Stats mem.Stats
	Class mem.Classification
}

// banditController builds the paper's prefetching Bandit (DUCB, Table 6).
func banditController(seed uint64, arms int) core.Controller {
	return core.MustNew(core.Config{
		Arms:      arms,
		Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
		Normalize: true,
		Seed:      seed,
	})
}

// pfSetup instantiates a prefetcher configuration for one run.
func pfSetup(kind PfKind, seed uint64) (l2 prefetch.Prefetcher, ctrl core.Controller, tun prefetch.Tunable) {
	switch kind {
	case PfNone:
		return prefetch.Null{}, nil, nil
	case PfStride:
		return prefetch.NewIPStride(64, 4), nil, nil
	case PfBingo:
		return prefetch.NewBingo(64), nil, nil
	case PfMLOP:
		return prefetch.NewMLOP(), nil, nil
	case PfPythia:
		return prefetch.NewPythia(seed), nil, nil
	case PfBandit:
		ens := prefetch.NewTable7Ensemble()
		return ens, banditController(seed, ens.NumArms()), ens
	default:
		panic(fmt.Sprintf("harness: unknown prefetcher kind %q", kind))
	}
}

// runPrefetch simulates one app under one configuration.
func (o Options) runPrefetch(app trace.App, kind PfKind, memCfg mem.Config) PrefetchRun {
	seed := o.subSeed("pf", app.Name, string(kind))
	hier := mem.NewHierarchy(memCfg)
	c := cpu.New(cpu.DefaultConfig(), hier, o.gen(app.New(seed), seed))
	l2, ctrl, tun := pfSetup(kind, seed)
	r := cpu.NewRunner(c, l2, ctrl, tun)
	r.StepL2 = o.StepL2
	o.simInsts(r)
	o.noteSim(c)
	return PrefetchRun{
		App: app.Name, Suite: app.Suite, Kind: string(kind),
		IPC: c.IPC(), Stats: hier.Stats(), Class: hier.Classify(),
	}
}

// runPrefetchCtrl simulates one app with the Table 7 ensemble under an
// arbitrary controller (bandit algorithm comparisons, best-static oracle).
func (o Options) runPrefetchCtrl(app trace.App, name string, ctrl core.Controller, memCfg mem.Config) PrefetchRun {
	seed := o.subSeed("pfctrl", app.Name, name)
	hier := mem.NewHierarchy(memCfg)
	c := cpu.New(cpu.DefaultConfig(), hier, o.gen(app.New(seed), seed))
	ens := prefetch.NewTable7Ensemble()
	r := cpu.NewRunner(c, ens, ctrl, ens)
	r.StepL2 = o.StepL2
	o.simInsts(r)
	o.noteSim(c)
	return PrefetchRun{
		App: app.Name, Suite: app.Suite, Kind: name,
		IPC: c.IPC(), Stats: hier.Stats(), Class: hier.Classify(),
	}
}

// ---------------------------------------------------------------------
// SMT machinery

// SMTRun is one (mix, configuration) measurement.
type SMTRun struct {
	Mix    string
	Kind   string
	SumIPC float64
	Rename simsmt.RenameStats
}

// runSMTFixed simulates a mix under a fixed policy (+ Hill Climbing).
func (o Options) runSMTFixed(mix smtwork.Mix, kind string, policy simsmt.Policy, hc bool) SMTRun {
	seed := o.subSeed("smt", mix.Name(), kind)
	sim := simsmt.NewSim(mix.A, mix.B, seed)
	r := simsmt.NewFixedRunner(sim, policy, hc)
	r.EpochLen = o.EpochLen
	o.simCycles(r)
	return SMTRun{Mix: mix.Name(), Kind: kind, SumIPC: sim.SumIPC(), Rename: sim.RenameStats()}
}

// runSMTCtrl simulates a mix with a controller over the Table 1 arms.
func (o Options) runSMTCtrl(mix smtwork.Mix, kind string, ctrl core.Controller) SMTRun {
	seed := o.subSeed("smtctrl", mix.Name(), kind)
	sim := simsmt.NewSim(mix.A, mix.B, seed)
	r := simsmt.NewRunner(sim, ctrl, simsmt.Table1Arms(), true)
	r.EpochLen = o.EpochLen
	r.RREpochs = o.RREpochs
	r.MainEpochs = o.MainEpochs
	o.simCycles(r)
	return SMTRun{Mix: mix.Name(), Kind: kind, SumIPC: sim.SumIPC(), Rename: sim.RenameStats()}
}

// banditAlgoOrder lists the banditAlgorithms keys in the papers' column
// order; parallel runners iterate this instead of the map so job lists
// are deterministic.
var banditAlgoOrder = []string{"Single", "Periodic", "eps-Greedy", "UCB", "DUCB"}

// smtBanditPolicies builds the per-algorithm controllers compared in
// Table 9 (and Table 8 for prefetching, with the prefetch
// hyperparameters).
func banditAlgorithms(seed uint64, arms int, smt bool) map[string]func() core.Controller {
	c, gamma := core.PrefetchC, core.PrefetchGamma
	if smt {
		c, gamma = core.SMTC, core.SMTGamma
	}
	mk := func(p func() core.Policy) func() core.Controller {
		return func() core.Controller {
			return core.MustNew(core.Config{
				Arms: arms, Policy: p(), Normalize: true, Seed: seed,
			})
		}
	}
	return map[string]func() core.Controller{
		"Single":     mk(func() core.Policy { return core.NewSingle() }),
		"Periodic":   mk(func() core.Policy { return core.NewPeriodic(8, 4) }),
		"eps-Greedy": mk(func() core.Policy { return core.NewEpsilonGreedy(0.05) }),
		"UCB":        mk(func() core.Policy { return core.NewUCB(c) }),
		"DUCB":       mk(func() core.Policy { return core.NewDUCB(c, gamma) }),
	}
}

// sortedKeys returns map keys in a stable order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
