package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// smallSizes is the smallest configuration of every workload: two apps
// (a streaming one and the phase-structured mcf17), one SMT mix and
// short serve rounds.
var smallSizes = sizes{
	Apps:      []string{"lbm17", "mcf17"},
	PfInsts:   20_000,
	PfStepL2:  100,
	Mixes:     1,
	SMTCycles: 40_000,
	SMTEpoch:  1024, SMTRREpochs: 2, SMTMainEpochs: 2,
	ServeBatch: 4,
	ServeRound: 100 * time.Millisecond,
}

// onePass runs every job of a simulation workload once, untimed.
func onePass(t *testing.T, workload string, sz sizes, seed uint64, tr *tracer) map[string]simStats {
	t.Helper()
	jobs, err := simJobs(workload, sz, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]simStats{}
	for _, j := range jobs {
		out[j.name] = j.build(tr)()
	}
	return out
}

// The committed tables hold for the default input and the held-out one.
func TestCommittedExpectations(t *testing.T) {
	for _, w := range []string{wlPfSweep, wlSMTSweep} {
		exp, err := loadExpected(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(exp) != numInputs {
			t.Errorf("%s: table covers %d inputs, want %d", w, len(exp), numInputs)
		}
		for _, seed := range []uint64{1, 2} {
			if got := onePass(t, w, fullSizes, seed, nil); !reflect.DeepEqual(got, exp[seed]) {
				t.Errorf("%s input %d: simulated statistics differ from the committed table", w, seed)
			}
		}
	}
}

func TestInputSeed(t *testing.T) {
	for seed, want := range map[uint64]uint64{0: 8, 1: 1, 2: 2, 8: 8, 9: 1, 17: 1} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// The wrappers keep the simulation bit-identical.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range []string{wlPfSweep, wlSMTSweep} {
		plain := onePass(t, w, smallSizes, 3, nil)
		traced := onePass(t, w, smallSizes, 3, newTracer())
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced statistics differ from untraced", w)
		}
	}
}

// A perturbed expected value makes the correctness check fail, and only
// for the perturbed job.
func TestPerturbedExpectationFails(t *testing.T) {
	const seed = 4
	exp := onePass(t, wlPfSweep, smallSizes, seed, nil)
	o, err := runSim(wlPfSweep, smallSizes, seed, time.Nanosecond, false, expectations{seed: exp})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.attempted != int64(len(exp)) {
		t.Fatalf("unperturbed: %d of %d failed", o.failed, o.attempted)
	}
	s := exp["mcf17/ducb"]
	s.LLCMisses++
	exp["mcf17/ducb"] = s
	o, err = runSim(wlPfSweep, smallSizes, seed, time.Nanosecond, false, expectations{seed: exp})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 {
		t.Fatalf("perturbed: %d of %d failed, want 1", o.failed, o.attempted)
	}
}

// The per-layer counts the benchmark declares deterministic repeat
// exactly across traced runs.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range []string{wlPfSweep, wlSMTSweep} {
		run := func() map[string]float64 {
			exp := onePass(t, w, smallSizes, 5, nil)
			o, err := runSim(w, smallSizes, 5, time.Nanosecond, true, expectations{5: exp})
			if err != nil {
				t.Fatal(err)
			}
			return o.metrics
		}
		a, b := run(), run()
		for _, name := range deterministicCounts {
			if a[name] != b[name] {
				t.Errorf("%s %s: %v then %v", w, name, a[name], b[name])
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// The smallest configuration of every workload runs end to end, in both
// modes, and prints a correct result with exactly the metrics and units
// BENCHMARK.json declares.
func TestSmallestConfigEndToEnd(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var o *outcome
			var err error
			if w == wlServeBatch {
				o, err = runServe(smallSizes, 1, 2*smallSizes.ServeRound, traced)
			} else {
				exp := onePass(t, w, smallSizes, 1, nil)
				o, err = runSim(w, smallSizes, 1, time.Nanosecond, traced, expectations{1: exp})
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, o, w, 1, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			var got, wantNames []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w, traced, got, wantNames)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"microbandit/internal/mem.(*Hierarchy).Access", "/x/internal/mem/hier.go", layerMem},
		{"microbandit/internal/cpu.(*Core).leanSpan", "/x/internal/cpu/core.go", layerCPU},
		{"microbandit/internal/serve.parseBatch", "/x/internal/serve/batchcodec.go", layerCodec},
		{"microbandit/internal/serve.(*Server).handleBatch", "/x/internal/serve/batch.go", layerHandler},
		{"microbandit/internal/serve/loadgen.(*worker).runBatch", "/x/internal/serve/loadgen/loadgen.go", layerLoadgen},
		{"microbandit/internal/xrand.(*Rand).Uint64", "/x/internal/xrand/xrand.go", ""},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"main.(*tracedPf).Operate", "/x/perfbench/tracing.go", layerBench},
		{"main.(*tracedGen).NextChunk", "/x/perfbench/tracing.go", layerBench},
		{"main.(*tracedCtrl).Step", "/x/perfbench/tracing.go", layerBench},
		{"main.(*tracedHandler).ServeHTTP", "/x/perfbench/tracing.go", layerBench},
		{"main.(*statusWriter).WriteHeader", "/x/perfbench/tracing.go", layerBench},
		{"main.struct { *main.tracedGen; trace.PhaseAtter }.NextChunk", "<autogenerated>", layerBench},
		{"main.runPasses", "/x/perfbench/sim.go", ""},
		{"main.probe", "/x/perfbench/probe.go", layerProbe},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// Prefetchers with each combination of the optional interfaces the cpu
// runner probes for.
type (
	llcOnlyPf   struct{ prefetch.Null }
	bandwidthPf struct{ prefetch.Null }
	bothPf      struct{ llcOnlyPf }
)

func (llcOnlyPf) LLCOnly() bool              { return true }
func (bandwidthPf) SetBandwidthUtil(float64) {}
func (bothPf) SetBandwidthUtil(float64)      {}

// same reports whether a and b agree on implementing interface I.
func same[I any](a, b any) bool {
	_, x := a.(I)
	_, y := b.(I)
	return x == y
}

// A wrapper has exactly the optional interfaces of the value it wraps,
// so the traced run takes the program's paths the untraced run takes.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, p := range []prefetch.Prefetcher{prefetch.Null{}, prefetch.NewTable7Ensemble(), llcOnlyPf{}, bandwidthPf{}, bothPf{}} {
		w := tr.pf(p)
		if !same[prefetch.TargetAware](p, w) || !same[prefetch.BandwidthAware](p, w) {
			t.Errorf("prefetcher %T: wrapper changes the optional interfaces", p)
		}
	}
	ctx, err := core.NewContextualAgent(core.ContextualConfig{Arms: 4, Algo: "ducb", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []core.Controller{core.FixedArm(0), core.MustNew(core.Config{Arms: 4, Policy: core.NewDUCB(core.PrefetchC, core.PrefetchGamma)}), ctx} {
		if w := tr.ctrl(c); !same[core.ContextSetter](c, w) {
			t.Errorf("controller %T: wrapper changes ContextSetter", c)
		}
	}
	cache := trace.NewChunkCache(0)
	for _, app := range trace.Catalog() {
		for _, g := range []trace.Generator{app.New(1), cache.Source(app.Name, app.New(1))} {
			w := tr.gen(g)
			if !same[trace.PhaseAtter](g, w) || !same[trace.CacheStatser](g, w) {
				t.Errorf("%s %T: wrapper changes the optional interfaces", app.Name, g)
			}
			// cpu.Core falls back to a Phase method only without
			// PhaseAt, which the wrapper does not forward.
			_, phase := g.(interface{ Phase() int })
			if _, phaseAt := g.(trace.PhaseAtter); phase && !phaseAt {
				t.Errorf("%s %T: has Phase without PhaseAt", app.Name, g)
			}
		}
	}
}
