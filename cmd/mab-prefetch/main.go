// Command mab-prefetch runs prefetching simulations: one or more
// applications from the synthetic catalog, or recorded trace files,
// under one prefetcher configuration, printing IPC plus hierarchy
// statistics. It is the interactive probe for the prefetching use case
// (the batch experiments live in mab-report).
//
// Usage:
//
//	mab-prefetch -app lbm17 -pf bandit [-insts 4000000] [-mtps 2400]
//	             [-algo ducb|ucb|eps|single|periodic|static:N]
//	             [-faults noise:0.5,stuckarm:1] [-trace] [-list]
//	             [-telemetry out.jsonl] [-telemetry-every 100]
//	mab-prefetch -app lbm17,mcf06,bfs -j 4
//	mab-prefetch -app all -j 0
//	mab-prefetch -app lbm17.mbt,mcf06 -pf stride
//
// With a comma-separated -app list (or "all"), the simulations fan out
// across -j worker goroutines and the reports print in input order. A
// failing app is reported on stderr without taking down its siblings.
// Bad flag values exit 2 with the valid choices.
//
// An -app entry ending in .mbt is a trace file written by mab-trace
// record. It is read once, before any simulation starts, and reported
// under the name stored in the file. The paper's platform replays
// recorded traces the same way (§6.1): a trace shorter than -insts loops
// until the budget is met (§6.2). -seed still seeds the prefetchers, the
// agent and any faults; a recording has one instruction stream.
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

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/fault"
	"microbandit/internal/mem"
	"microbandit/internal/obs"
	"microbandit/internal/par"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
	"microbandit/internal/version"
)

// runConfig carries the per-run flag values into the worker pool.
type runConfig struct {
	pfName    string
	algo      string
	insts     int64
	stepL2    int
	seed      uint64
	showTrace bool
	memCfg    mem.Config
	faults    fault.Set
	obsEvery  int
}

func main() {
	appNames := flag.String("app", "lbm17", "application(s): a catalog name or .mbt trace file, a comma-separated list, or \"all\"")
	pfName := flag.String("pf", "bandit", "prefetcher: "+strings.Join(prefetch.Names(), ", "))
	algo := flag.String("algo", "ducb", "bandit algorithm: "+strings.Join(core.AlgoNames(), ", "))
	insts := flag.Int64("insts", 4_000_000, "instructions to simulate")
	mtps := flag.Float64("mtps", 2400, "DRAM channel rate (mega-transfers/s)")
	altCache := flag.Bool("altcache", false, "use the Fig. 11 cache hierarchy (1MB L2 / 1.5MB LLC)")
	stepL2 := flag.Int("step", 1000, "bandit step length in L2 demand accesses")
	seed := flag.Uint64("seed", 1, "random seed")
	faultSpec := flag.String("faults", "", "inject faults: comma-separated kind:intensity[:seed] ("+strings.Join(fault.KindNames(), ", ")+")")
	showTrace := flag.Bool("trace", false, "print the arm exploration trace")
	telemetry := flag.String("telemetry", "", "write a JSONL telemetry event stream to this path (plus timeline.csv/regret.csv alongside)")
	telemetryEvery := flag.Int("telemetry-every", 100, "telemetry snapshot/interval cadence in bandit steps")
	list := flag.Bool("list", false, "list catalog applications and exit")
	workers := flag.Int("j", 0, "worker goroutines for multi-app runs (0 = one per CPU)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("mab-prefetch", version.String())
		return
	}
	if *list {
		for _, a := range trace.Catalog() {
			fmt.Printf("%-16s %s\n", a.Name, a.Suite)
		}
		return
	}

	// Validate every flag before any simulation starts: bad values exit 2
	// with usage, never a mid-run panic.
	if *insts <= 0 {
		usageErr(fmt.Errorf("-insts must be positive, got %d", *insts))
	}
	if *stepL2 <= 0 {
		usageErr(fmt.Errorf("-step must be positive, got %d", *stepL2))
	}
	if *mtps <= 0 {
		usageErr(fmt.Errorf("-mtps must be positive, got %g", *mtps))
	}
	if *workers < 0 {
		usageErr(fmt.Errorf("-j must be >= 0, got %d", *workers))
	}
	if *telemetryEvery <= 0 {
		usageErr(fmt.Errorf("-telemetry-every must be positive, got %d", *telemetryEvery))
	}
	faults, err := fault.ParseSet(*faultSpec)
	if err != nil {
		usageErr(fmt.Errorf("-faults: %v", err))
	}

	apps, err := parseApps(*appNames)
	if err != nil {
		usageErr(err)
	}

	memCfg := mem.DefaultConfig()
	if *altCache {
		memCfg = mem.AltCacheConfig()
	}
	memCfg.MTPS = *mtps
	cfg := runConfig{
		pfName: *pfName, algo: *algo, insts: *insts, stepL2: *stepL2,
		seed: *seed, showTrace: *showTrace, memCfg: memCfg, faults: faults,
		obsEvery: *telemetryEvery,
	}

	// Validate the prefetcher/algorithm configuration once before fanning
	// out.
	if _, err := simulate(context.Background(), apps[0], cfg, true, nil); err != nil {
		usageErr(err)
	}
	// Telemetry slots are claimed by app index, so the assembled stream
	// is byte-identical at every -j value.
	var collector *obs.Collector
	if *telemetry != "" {
		collector = obs.NewCollector(*telemetryEvery)
	}
	// SIGINT/SIGTERM cancels the fan-out: in-flight simulations stop at
	// the next 100k-instruction chunk, unstarted apps never run, and
	// everything that did finish still prints (plus telemetry) below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Each app is an independent simulation with its own hierarchy and
	// seed; reports come back in input order regardless of worker count. A
	// failing or panicking run becomes a per-job error; the siblings'
	// reports still print and the process exits 1.
	type jobIn struct {
		i   int
		app trace.App
	}
	jobs := make([]jobIn, len(apps))
	for i, app := range apps {
		jobs[i] = jobIn{i, app}
	}
	reports, errs := par.RunCtx(ctx, *workers, jobs, func(ctx context.Context, j jobIn) (string, error) {
		var rec obs.Recorder
		if collector != nil {
			rec = collector.Slot(j.i, j.app.Name)
		}
		return simulate(ctx, j.app, cfg, false, rec)
	})
	failed := 0
	for i, report := range reports {
		if errs[i] != nil {
			if !errors.Is(errs[i], context.Canceled) {
				failed++
				fmt.Fprintf(os.Stderr, "mab-prefetch: %s: %v\n", apps[i].Name, errs[i])
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
			fmt.Fprintf(os.Stderr, "mab-prefetch: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mab-prefetch: interrupted; results above are partial")
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mab-prefetch: %d of %d runs failed; results above are partial\n", failed, len(apps))
		os.Exit(1)
	}
}

// parseApps resolves the -app list: "all", or comma-separated catalog
// names and .mbt trace files. Trace files are read here, so a missing,
// malformed or empty one is a flag error naming its path.
func parseApps(list string) ([]trace.App, error) {
	if list == "all" {
		return trace.Catalog(), nil
	}
	var apps []trace.App
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if strings.HasSuffix(name, ".mbt") {
			app, err := loadTrace(name)
			if err != nil {
				return nil, err
			}
			apps = append(apps, app)
			continue
		}
		app, err := trace.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("%v (valid: %s, \"all\", or a .mbt trace file)", err, catalogNames())
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// loadTrace reads a recorded trace file into an app whose generators
// each loop over the shared instructions (§6.2). Loop only reads the
// slice, so concurrent jobs can share it.
func loadTrace(path string) (trace.App, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.App{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return trace.App{}, fmt.Errorf("%s: %w", path, err)
	}
	insts, err := r.ReadAll()
	if err != nil {
		return trace.App{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(insts) == 0 {
		return trace.App{}, fmt.Errorf("%s: empty trace", path)
	}
	name := r.TraceName()
	return trace.App{Name: name, New: func(uint64) trace.Generator {
		return trace.NewLoop(name, insts)
	}}, nil
}

// simulate runs one app and returns its formatted report. dryRun only
// checks that the prefetcher/algorithm configuration parses. rec, when
// non-nil, receives the run's telemetry stream. If ctx is canceled
// mid-run the simulation stops at the next chunk boundary and the report
// covers the instructions that did run, flagged as partial.
func simulate(ctx context.Context, app trace.App, cfg runConfig, dryRun bool, rec obs.Recorder) (string, error) {
	seed := cfg.seed
	hier := mem.NewHierarchy(cfg.memCfg)
	if bf := fault.Bandwidth(cfg.faults, seed); bf != nil {
		hier.DRAM().SetBandwidthFault(bf)
	}
	gen := fault.Generator(app.New(seed), cfg.faults, seed)
	c := cpu.New(cpu.DefaultConfig(), hier, gen)

	l2, tun, err := prefetch.NewByName(cfg.pfName, seed)
	if err != nil {
		return "", err
	}
	var ctrl core.Controller
	if tun != nil {
		ctrl, err = core.ParseAlgo(cfg.algo, tun.NumArms(), seed, true)
		if err != nil {
			return "", err
		}
		// Attach telemetry before the fault wrapper so the stream
		// reports the agent's decisions, not the fault's corruptions.
		obs.Attach(ctrl, rec, cfg.obsEvery)
		ctrl = fault.Controller(ctrl, cfg.faults, seed)
		tun = fault.Tunable(tun, cfg.faults, seed)
	}
	if dryRun {
		return "", nil
	}
	if rec != nil {
		for _, spec := range cfg.faults {
			rec.Record(obs.Event{Kind: obs.KindFault, Label: spec.String()})
		}
	}

	r := cpu.NewRunner(c, l2, ctrl, tun)
	r.StepL2 = cfg.stepL2
	if cfg.showTrace {
		r.RecordArms()
	}
	if rec != nil {
		r.Obs = rec
		r.ObsEvery = cfg.obsEvery
	}
	interrupted := r.RunCtx(ctx, cfg.insts) != nil
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.KindRunEnd, Step: r.Steps(),
			Fields: obs.NewFields().Set(obs.FieldIPC, c.IPC())})
	}

	var b strings.Builder
	st := hier.Stats()
	cl := hier.Classify()
	fmt.Fprintf(&b, "app=%s prefetcher=%s insts=%d cycles=%d\n", app.Name, cfg.pfName, c.Insts(), c.Cycles())
	if interrupted {
		fmt.Fprintf(&b, "INTERRUPTED after %d of %d instructions; statistics are partial\n", c.Insts(), cfg.insts)
	}
	if len(cfg.faults) > 0 {
		fmt.Fprintf(&b, "faults: %s\n", cfg.faults.String())
	}
	fmt.Fprintf(&b, "IPC: %.4f\n", c.IPC())
	fmt.Fprintf(&b, "L2 demand accesses: %d   LLC misses: %d   DRAM reads: %d\n",
		st.L2Demand, st.LLCMisses, hier.DRAM().Reads())
	fmt.Fprintf(&b, "prefetches issued: %d   timely: %d   late: %d   wrong: %d   dropped: %d\n",
		st.PrefIssued, cl.Timely, cl.Late, cl.Wrong, st.PrefDropped)
	if ctrl != nil {
		fmt.Fprintf(&b, "bandit steps: %d\n", r.Steps())
	}
	if cfg.showTrace {
		b.WriteString("arm trace (cycle:arm):\n")
		for _, s := range r.ArmTrace {
			fmt.Fprintf(&b, "  %d:%d", s.Cycle, s.Arm)
		}
		b.WriteByte('\n')
		if agent, ok := ctrl.(*core.Agent); ok {
			fmt.Fprintf(&b, "final rTable: %v\n", agent.Rewards())
		}
	}
	return b.String(), nil
}

// catalogNames returns the valid -app values for error messages.
func catalogNames() string {
	var names []string
	for _, a := range trace.Catalog() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// usageErr reports a bad flag value and exits 2.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mab-prefetch:", err)
	flag.Usage()
	os.Exit(2)
}
