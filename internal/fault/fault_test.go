package fault

import (
	"math"
	"strings"
	"testing"

	"microbandit/internal/core"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"noise:0.5", Spec{Noise, 0.5, 1}},
		{"stuckarm:1:42", Spec{StuckArm, 1, 42}},
		{"delay:0.25:0x10", Spec{Delay, 0.25, 16}},
		{"bwcollapse:0", Spec{BWCollapse, 0, 1}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"", "noise", "noise:", "noise:x", "noise:2", "noise:-0.1",
		"noise:NaN", "noise:0.5:x", "noise:0.5:1:2", "martian:0.5", "partition:0.5",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): expected error", in)
		}
	}
}

func TestParseSetRoundTrip(t *testing.T) {
	in := "noise:0.5:7,stuckarm:0.25,delay:1:3"
	set, err := ParseSet(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("got %d specs, want 3", len(set))
	}
	set2, err := ParseSet(set.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", set.String(), err)
	}
	for i := range set {
		if set[i] != set2[i] {
			t.Errorf("spec %d: %+v != %+v", i, set[i], set2[i])
		}
	}
	if _, err := ParseSet("noise:0.5,noise:0.1"); err == nil {
		t.Error("duplicate kind: expected error")
	}
	if set, err := ParseSet("  "); err != nil || set != nil {
		t.Errorf("blank set: got %v, %v", set, err)
	}
}

// recorder captures the rewards a wrapped controller delivers.
type recorder struct {
	arm     int
	rewards []float64
}

func (r *recorder) Step() int         { return r.arm }
func (r *recorder) Reward(v float64)  { r.rewards = append(r.rewards, v) }
func (r *recorder) InInitialRR() bool { return false }

// ctxRecorder is a recorder that also accepts context signatures, like
// core.ContextualAgent.
type ctxRecorder struct {
	recorder
	sigs []core.Signature
}

func (r *ctxRecorder) SetContext(sig core.Signature) { r.sigs = append(r.sigs, sig) }

// TestControllerForwardsSetContext: the reward-channel fault wrapper must
// not hide the inner controller's ContextSetter — otherwise a contextual
// agent in a faulted robustness run silently never receives a context and
// degenerates to a single-table bandit.
func TestControllerForwardsSetContext(t *testing.T) {
	rec := &ctxRecorder{}
	fs := Set{{Kind: Noise, Intensity: 0.5, Seed: 3}}
	c := Controller(rec, fs, 7)
	if c == core.Controller(rec) {
		t.Fatal("noise set should have wrapped the controller")
	}
	cs, ok := c.(core.ContextSetter)
	if !ok {
		t.Fatal("fault wrapper hides core.ContextSetter from the runner")
	}
	cs.SetContext(core.Signature(42))
	cs.SetContext(core.Signature(7))
	if len(rec.sigs) != 2 || rec.sigs[0] != 42 || rec.sigs[1] != 7 {
		t.Fatalf("inner received signatures %v, want [42 7]", rec.sigs)
	}
	// A non-contextual inner tolerates the forwarded call as a no-op.
	plain := Controller(&recorder{}, fs, 7)
	plain.(core.ContextSetter).SetContext(core.Signature(1))
}

// probeRecorder is a recorder that also accepts reward probes, like
// core.Selector.
type probeRecorder struct {
	recorder
	probes []core.RewardProbe
}

func (r *probeRecorder) SetRewardProbe(p core.RewardProbe) { r.probes = append(r.probes, p) }

// constProbe is a trivial core.RewardProbe.
type constProbe float64

func (p constProbe) StepReward() float64 { return float64(p) }

// TestControllerForwardsSetRewardProbe: the reward-channel fault wrapper
// must not hide the inner controller's ProbeSetter — the mirror of the
// SetContext wrapper-hiding bug above, for the scenario subsystem's
// per-scenario reward probes. Without forwarding, a faulted scenario run
// would silently train on the default reward instead of the scenario's.
func TestControllerForwardsSetRewardProbe(t *testing.T) {
	rec := &probeRecorder{}
	fs := Set{{Kind: Noise, Intensity: 0.5, Seed: 3}}
	c := Controller(rec, fs, 7)
	if c == core.Controller(rec) {
		t.Fatal("noise set should have wrapped the controller")
	}
	ps, ok := c.(core.ProbeSetter)
	if !ok {
		t.Fatal("fault wrapper hides core.ProbeSetter from the scenario wiring")
	}
	probe := constProbe(0.25)
	ps.SetRewardProbe(probe)
	if len(rec.probes) != 1 || rec.probes[0] != core.RewardProbe(probe) {
		t.Fatalf("inner received probes %v, want the one forwarded", rec.probes)
	}
	// A probe-less inner tolerates the forwarded call as a no-op.
	plain := Controller(&recorder{}, fs, 7)
	plain.(core.ProbeSetter).SetRewardProbe(probe)
}

// armsRecorder records Apply calls through the scenario-generic Applier
// surface.
type armsRecorder struct {
	arms    int
	applied []int
}

func (a *armsRecorder) NumArms() int  { return a.arms }
func (a *armsRecorder) Apply(arm int) { a.applied = append(a.applied, arm) }

// TestArmsStuck: the generic stuck-arm wrapper drops some Apply calls
// deterministically and passes NumArms through; without a stuck-arm
// spec the inner Applier is returned unchanged.
func TestArmsStuck(t *testing.T) {
	inner := &armsRecorder{arms: 4}
	if got := Arms(inner, nil, 1); got != Applier(inner) {
		t.Fatal("empty set must return the inner Applier unchanged")
	}
	fs := Set{{Kind: StuckArm, Intensity: 0.5, Seed: 9}}
	w := Arms(inner, fs, 3)
	if w == Applier(inner) {
		t.Fatal("stuck-arm set should have wrapped the Applier")
	}
	if w.NumArms() != 4 {
		t.Fatalf("NumArms through wrapper = %d, want 4", w.NumArms())
	}
	for i := 0; i < 64; i++ {
		w.Apply(i & 3)
	}
	if len(inner.applied) == 0 || len(inner.applied) == 64 {
		t.Fatalf("stuck-arm at 0.5 delivered %d/64 Apply calls, want some dropped", len(inner.applied))
	}
	// Same spec and seeds -> same drop pattern.
	inner2 := &armsRecorder{arms: 4}
	w2 := Arms(inner2, fs, 3)
	for i := 0; i < 64; i++ {
		w2.Apply(i & 3)
	}
	if len(inner2.applied) != len(inner.applied) {
		t.Fatalf("same seeds dropped differently: %d vs %d", len(inner2.applied), len(inner.applied))
	}
}

func TestControllerCleanPassthrough(t *testing.T) {
	rec := &recorder{}
	if got := Controller(rec, nil, 1); got != core.Controller(rec) {
		t.Error("empty set must return the inner controller unchanged")
	}
	// Intensity 0 is also clean.
	fs := Set{{Kind: Noise, Intensity: 0, Seed: 1}}
	if got := Controller(rec, fs, 1); got != core.Controller(rec) {
		t.Error("zero-intensity set must return the inner controller unchanged")
	}
}

func TestControllerDelayShiftsRewards(t *testing.T) {
	rec := &recorder{}
	// delay intensity 0 -> 1 + round(0) = 1 step of delay... use 1/7 for 2.
	fs := Set{{Kind: Delay, Intensity: 1.0 / 7.0, Seed: 1}}
	c := Controller(rec, fs, 9)
	for i := 1; i <= 6; i++ {
		c.Reward(float64(i))
	}
	// delay = 1 + round(7 * 1/7) = 2: warm-up re-delivers reward 1 twice,
	// then the stream lags two steps behind.
	want := []float64{1, 1, 1, 2, 3, 4}
	if len(rec.rewards) != len(want) {
		t.Fatalf("delivered %d rewards, want %d", len(rec.rewards), len(want))
	}
	for i := range want {
		if rec.rewards[i] != want[i] {
			t.Errorf("reward %d = %v, want %v (all: %v)", i, rec.rewards[i], want[i], rec.rewards)
		}
	}
}

func TestControllerNoiseDeterministic(t *testing.T) {
	fs := Set{{Kind: Noise, Intensity: 0.5, Seed: 3}}
	run := func() []float64 {
		rec := &recorder{}
		c := Controller(rec, fs, 77)
		for i := 0; i < 32; i++ {
			c.Reward(1)
		}
		return rec.rewards
	}
	a, b := run(), run()
	perturbed := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seeds produced different noise at step %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != 1 {
			perturbed = true
		}
		if a[i] < 0.5-1e-9 || a[i] > 1.5+1e-9 {
			t.Errorf("noise at step %d outside amplitude bounds: %v", i, a[i])
		}
	}
	if !perturbed {
		t.Error("noise fault left every reward untouched")
	}
}

func TestControllerQuantize(t *testing.T) {
	rec := &recorder{}
	fs := Set{{Kind: Quantize, Intensity: 0.5, Seed: 1}}
	c := Controller(rec, fs, 1)
	c.Reward(0.61)
	c.Reward(0.24)
	if rec.rewards[0] != 0.5 || rec.rewards[1] != 0 {
		t.Errorf("quantized rewards = %v, want [0.5 0]", rec.rewards)
	}
}

func TestControllerPanic(t *testing.T) {
	rec := &recorder{}
	fs := Set{{Kind: Panic, Intensity: 1, Seed: 5}}
	c := Controller(rec, fs, 5)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic fault at intensity 1 never fired")
		}
		if !strings.Contains(v.(string), "injected panic") {
			t.Errorf("unexpected panic value %v", v)
		}
	}()
	for i := 0; i < 100; i++ {
		c.Reward(1)
	}
}

func TestTunableStuck(t *testing.T) {
	ens := prefetch.NewTable7Ensemble()
	// prob 0 via empty set: passthrough.
	if got := Tunable(ens, nil, 1); got != prefetch.Tunable(ens) {
		t.Error("empty set must return the inner tunable unchanged")
	}
	stuck := Tunable(ens, Set{{Kind: StuckArm, Intensity: 1, Seed: 2}}, 2)
	if stuck == prefetch.Tunable(ens) {
		t.Fatal("stuck-arm set must wrap the tunable")
	}
	// With probability 1 every Apply is dropped; NumArms still passes
	// through and Apply never panics even for arms the ensemble has.
	if stuck.NumArms() != ens.NumArms() {
		t.Error("NumArms must pass through")
	}
	for arm := 0; arm < stuck.NumArms(); arm++ {
		stuck.Apply(arm)
	}
}

func TestGeneratorPhaseStorm(t *testing.T) {
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	fs := Set{{Kind: PhaseStorm, Intensity: 1, Seed: 4}}
	clean := app.New(11)
	stormy := Generator(app.New(11), fs, 11)
	if stormy.Name() != clean.Name() {
		t.Error("Name must pass through")
	}
	var ci, si trace.Inst
	diverged := false
	for i := 0; i < 40_000; i++ {
		clean.Next(&ci)
		stormy.Next(&si)
		if ci.Kind != si.Kind || ci.PC != si.PC {
			t.Fatalf("storm changed instruction structure at %d", i)
		}
		if ci.Addr != si.Addr {
			diverged = true
		}
	}
	if !diverged {
		t.Error("phase storm at intensity 1 never relocated the stream within 40k insts")
	}
}

func TestBandwidthCollapse(t *testing.T) {
	if Bandwidth(nil, 1) != nil {
		t.Error("empty set must yield a nil bandwidth fault")
	}
	bf := Bandwidth(Set{{Kind: BWCollapse, Intensity: 0.5, Seed: 6}}, 6)
	if bf == nil {
		t.Fatal("bwcollapse set must yield a fault")
	}
	collapsed, total := 0, 512
	for w := 0; w < total; w++ {
		cycle := int64(w) << bwWindowShift
		s := bf.PeriodScale(cycle)
		if s != 1 && s != bwScale {
			t.Fatalf("window %d: scale %v is neither 1 nor %v", w, s, bwScale)
		}
		// Purity: same cycle, same answer; and stable within a window.
		if bf.PeriodScale(cycle) != s || bf.PeriodScale(cycle+100) != s {
			t.Fatalf("window %d: PeriodScale is not a pure window function", w)
		}
		if s == bwScale {
			collapsed++
		}
	}
	frac := float64(collapsed) / float64(total)
	if math.Abs(frac-0.5) > 0.15 {
		t.Errorf("collapse fraction %v far from intensity 0.5", frac)
	}
}
