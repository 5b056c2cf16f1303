// Command mab-smt runs SMT instruction-fetch simulations: one or more
// 2-thread mixes under one fetch PG controller (bandit, Choi, ICount, or
// any static policy), printing per-thread IPC plus the rename-stage
// breakdown. The batch experiments live in mab-report.
//
// Usage:
//
//	mab-smt -mix gcc-lbm -ctrl bandit [-cycles 3000000]
//	        [-telemetry out.jsonl] [-telemetry-every 100]
//	mab-smt -mix mcf-lbm -ctrl policy:LSQC_1111
//	mab-smt -mix gcc-lbm,mcf-lbm,x264-bwaves -j 4
//	mab-smt -list
//
// With a comma-separated -mix list, the simulations fan out across -j
// worker goroutines and the reports print in input order. A failing mix
// is reported on stderr without taking down its siblings. Bad flag
// values exit 2 with the valid choices.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
	"microbandit/internal/version"
)

// runConfig carries the per-run flag values into the worker pool.
type runConfig struct {
	ctrlName   string
	cycles     int64
	epoch      int64
	rrEpochs   int
	mainEpochs int
	seed       uint64
	showTrace  bool
	obsEvery   int
}

func main() {
	mixNames := flag.String("mix", "gcc-lbm", "2-thread mix(es) as appA-appB, comma-separated")
	ctrlName := flag.String("ctrl", "bandit", "controller: bandit, choi, icount, or policy:<mnemonic>")
	cycles := flag.Int64("cycles", 3_000_000, "cycles to simulate")
	epoch := flag.Int64("epoch", 16*1024, "Hill Climbing epoch length in cycles")
	rrEpochs := flag.Int("rrepochs", 8, "bandit step length during the initial RR phase, in epochs")
	mainEpochs := flag.Int("mainepochs", 2, "bandit step length during the main loop, in epochs")
	seed := flag.Uint64("seed", 1, "random seed")
	showTrace := flag.Bool("trace", false, "print the arm exploration trace")
	telemetry := flag.String("telemetry", "", "write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := flag.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	list := flag.Bool("list", false, "list thread profiles and exit")
	workers := flag.Int("j", 0, "worker goroutines for multi-mix runs (0 = one per CPU)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("mab-smt", version.String())
		return
	}
	if *list {
		for _, p := range smtwork.Profiles() {
			fmt.Printf("%-12s load=%.2f store=%.2f branch=%.2f fp=%.2f\n",
				p.Name, p.LoadFrac, p.StoreFrac, p.BranchFrac, p.FPFrac)
		}
		return
	}

	// Validate every flag before any simulation starts: bad values exit 2
	// with usage, never a mid-run panic.
	if *cycles <= 0 {
		usageErr(fmt.Errorf("-cycles must be positive, got %d", *cycles))
	}
	if *epoch <= 0 {
		usageErr(fmt.Errorf("-epoch must be positive, got %d", *epoch))
	}
	if *rrEpochs <= 0 || *mainEpochs <= 0 {
		usageErr(fmt.Errorf("-rrepochs and -mainepochs must be positive, got %d and %d", *rrEpochs, *mainEpochs))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	if *telemetryEvery <= 0 {
		usageErr(fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}
	if err := validateCtrl(*ctrlName); err != nil {
		usageErr(err)
	}

	var mixes []smtwork.Mix
	for _, name := range strings.Split(*mixNames, ",") {
		name = strings.TrimSpace(name)
		parts := strings.SplitN(name, "-", 2)
		if len(parts) != 2 {
			usageErr(fmt.Errorf("mix must be appA-appB, got %q", name))
		}
		a, err := smtwork.ByName(parts[0])
		if err != nil {
			usageErr(fmt.Errorf("%v (valid: %s)", err, profileNames()))
		}
		b, err := smtwork.ByName(parts[1])
		if err != nil {
			usageErr(fmt.Errorf("%v (valid: %s)", err, profileNames()))
		}
		mixes = append(mixes, smtwork.Mix{A: a, B: b})
	}

	cfg := runConfig{
		ctrlName: *ctrlName, cycles: *cycles, epoch: *epoch,
		rrEpochs: *rrEpochs, mainEpochs: *mainEpochs,
		seed: *seed, showTrace: *showTrace, obsEvery: *telemetryEvery,
	}
	// Telemetry slots are claimed by mix index, so the assembled stream
	// is byte-identical at every -j value.
	var collector *obs.Collector
	if *telemetry != "" {
		collector = obs.NewCollector(*telemetryEvery)
	}
	// SIGINT/SIGTERM cancels the fan-out: in-flight simulations stop at
	// the next epoch boundary, unstarted mixes never run, and everything
	// that did finish still prints (plus telemetry) below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Each mix is an independent simulation with its own state and seed;
	// reports come back in input order regardless of worker count. A
	// failing or panicking run becomes a per-job error; the siblings'
	// reports still print and the process exits 1.
	type jobIn struct {
		i   int
		mix smtwork.Mix
	}
	jobs := make([]jobIn, len(mixes))
	for i, mix := range mixes {
		jobs[i] = jobIn{i, mix}
	}
	reports, errs := par.RunCtx(ctx, *workers, jobs, func(ctx context.Context, j jobIn) (string, error) {
		var rec obs.Recorder
		if collector != nil {
			rec = collector.Slot(j.i, j.mix.Name())
		}
		return simulate(ctx, j.mix, cfg, rec)
	})
	failed := 0
	for i, report := range reports {
		if errs[i] != nil {
			if !errors.Is(errs[i], context.Canceled) {
				failed++
				fmt.Fprintf(os.Stderr, "mab-smt: %s: %v\n", mixes[i].Name(), errs[i])
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(report)
	}
	if collector != nil {
		if err := obs.WriteFiles(*telemetry, *telemetryEvery, collector.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "mab-smt: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mab-smt: interrupted; results above are partial")
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mab-smt: %d of %d runs failed; results above are partial\n", failed, len(mixes))
		os.Exit(1)
	}
}

// validateCtrl checks the -ctrl flag before fan-out.
func validateCtrl(name string) error {
	switch {
	case name == "bandit", name == "choi", name == "icount":
		return nil
	case strings.HasPrefix(name, "policy:"):
		_, err := simsmt.ParsePolicy(strings.TrimPrefix(name, "policy:"))
		return err
	default:
		return fmt.Errorf("unknown controller %q (valid: bandit, choi, icount, policy:<mnemonic>)", name)
	}
}

// simulate runs one mix and returns its formatted report. rec, when
// non-nil, receives the run's telemetry stream. If ctx is canceled
// mid-run the simulation stops at the next epoch boundary and the
// report covers the cycles that did run, flagged as partial.
func simulate(ctx context.Context, mix smtwork.Mix, cfg runConfig, rec obs.Recorder) (string, error) {
	sim := simsmt.NewSim(mix.A, mix.B, cfg.seed)
	var runner *simsmt.Runner
	switch {
	case cfg.ctrlName == "bandit":
		agent := simsmt.NewBanditAgent(cfg.seed)
		obs.Attach(agent, rec, cfg.obsEvery)
		runner = simsmt.NewRunner(sim, agent, simsmt.Table1Arms(), true)
	case cfg.ctrlName == "choi":
		runner = simsmt.NewFixedRunner(sim, simsmt.ChoiPolicy, true)
	case cfg.ctrlName == "icount":
		runner = simsmt.NewFixedRunner(sim, simsmt.ICountPolicy, false)
	case strings.HasPrefix(cfg.ctrlName, "policy:"):
		p, err := simsmt.ParsePolicy(strings.TrimPrefix(cfg.ctrlName, "policy:"))
		if err != nil {
			return "", err
		}
		runner = simsmt.NewFixedRunner(sim, p, true)
	default:
		return "", fmt.Errorf("unknown controller %q", cfg.ctrlName)
	}
	runner.EpochLen = cfg.epoch
	runner.RREpochs = cfg.rrEpochs
	runner.MainEpochs = cfg.mainEpochs
	if cfg.showTrace {
		runner.RecordArms()
	}
	if rec != nil {
		runner.Obs = rec
		runner.ObsEvery = cfg.obsEvery
	}
	interrupted := runner.RunCyclesCtx(ctx, cfg.cycles) != nil
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.KindRunEnd, Cycle: sim.Cycle(),
			Fields: obs.NewFields().Set(obs.FieldSumIPC, sim.SumIPC())})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "mix=%s ctrl=%s cycles=%d policy=%s\n",
		mix.Name(), cfg.ctrlName, sim.Cycle(), sim.Policy())
	if interrupted {
		fmt.Fprintf(&b, "INTERRUPTED after %d of %d cycles; statistics are partial\n", sim.Cycle(), cfg.cycles)
	}
	fmt.Fprintf(&b, "thread0 (%s): %d uops   thread1 (%s): %d uops\n",
		mix.A.Name, sim.Committed(0), mix.B.Name, sim.Committed(1))
	fmt.Fprintf(&b, "sum IPC: %.4f   hill-climb share: %.3f\n", sim.SumIPC(), sim.Share())
	rs := sim.RenameStats()
	total := float64(rs.Total())
	fmt.Fprintf(&b, "rename: running %.1f%%  idle %.1f%%  stalled %.1f%% "+
		"(ROB %.1f%%, IQ %.1f%%, LQ %.1f%%, SQ %.1f%%, RF %.1f%%)\n",
		pct(rs.Running, total), pct(rs.Idle, total), pct(rs.Stalled(), total),
		pct(rs.StallROB, total), pct(rs.StallIQ, total), pct(rs.StallLQ, total),
		pct(rs.StallSQ, total), pct(rs.StallRF, total))
	if cfg.showTrace {
		b.WriteString("arm trace (cycle:arm):\n")
		for _, s := range runner.ArmTrace {
			fmt.Fprintf(&b, "  %d:%d", s.Cycle, s.Arm)
		}
		b.WriteByte('\n')
		arms := simsmt.Table1Arms()
		for i, p := range arms {
			fmt.Fprintf(&b, "  arm %d = %s\n", i, p)
		}
	}
	return b.String(), nil
}

// profileNames returns the valid mix components for error messages.
func profileNames() string {
	var names []string
	for _, p := range smtwork.Profiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func pct(n int64, total float64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / total * 100
}

// usageErr reports a bad flag value and exits 2.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mab-smt:", err)
	flag.Usage()
	os.Exit(2)
}
