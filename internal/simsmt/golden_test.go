package simsmt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microbandit/internal/smtwork"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current pipeline")

// goldenCycles and goldenEpoch shape every golden run: long enough for
// Hill Climbing, ARPA and the bandit to take many decisions, short
// enough to stay cheap under -race.
const (
	goldenCycles = 200_000
	goldenEpoch  = 4 * 1024
)

// goldenLine renders one run's pinned statistics: the cycle count, each
// thread's commits and occupancy integral, the exact bits of the summed
// IPC, and every Fig. 15 rename-accounting field.
func goldenLine(name string, sim *SMT) string {
	rs := sim.RenameStats()
	return fmt.Sprintf("%s cycles=%d t0=%d/%d t1=%d/%d sumipc=%#016x rename=%d,%d,%d,%d,%d,%d,%d",
		name, sim.Cycle(),
		sim.Committed(0), sim.OccupancyIntegral(0),
		sim.Committed(1), sim.OccupancyIntegral(1),
		math.Float64bits(sim.SumIPC()),
		rs.StallROB, rs.StallIQ, rs.StallLQ, rs.StallSQ, rs.StallRF, rs.Idle, rs.Running)
}

// goldenCase is one pinned configuration: its pipeline, the runner's
// set-up before the first cycle, and one runner epoch. prime followed by
// epochs until goldenCycles is what the runner's RunCycles(goldenCycles)
// does.
type goldenCase struct {
	name  string
	sim   *SMT
	prime func()
	epoch func()
}

// run simulates the case for goldenCycles.
func (c goldenCase) run() {
	c.prime()
	for c.sim.Cycle() < goldenCycles {
		c.epoch()
	}
}

// fixedCase runs sim under a fixed policy with Hill Climbing.
func fixedCase(name string, sim *SMT, pol Policy) goldenCase {
	r := NewFixedRunner(sim, pol, true)
	r.EpochLen = goldenEpoch
	return goldenCase{name, sim, r.primeArm, r.runEpoch}
}

// goldenCases builds the pinned grid: two tune mixes under Choi with
// Hill Climbing, two Table 1 arms as fixed policies, the DUCB bandit
// runner and ARPA, plus one run on a small, non-power-of-two
// configuration whose dependence window is shorter than many dependence
// distances, so ring wrap-around is pinned as well, and one pointer-chase
// run that grows the release ring.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	mixes := [][2]string{{"gcc", "lbm"}, {"mcf", "xalancbmk"}}
	var cases []goldenCase
	for _, m := range mixes {
		a, b := mustProfile(t, m[0]), mustProfile(t, m[1])
		mix := m[0] + "-" + m[1]
		for _, pol := range []Policy{ChoiPolicy, mustPolicy("IC_0000"), mustPolicy("LSQC_1111")} {
			cases = append(cases, fixedCase(mix+" "+pol.String(), NewSim(a, b, 1), pol))
		}

		sim := NewSim(a, b, 1)
		r := NewRunner(sim, NewBanditAgent(1), Table1Arms(), true)
		r.EpochLen, r.RREpochs, r.MainEpochs = goldenEpoch, 4, 2
		cases = append(cases, goldenCase{mix + " DUCB", sim, r.primeArm, r.runEpoch})

		sim = NewSim(a, b, 1)
		ar := NewARPARunner(sim, ChoiPolicy)
		ar.EpochLen = goldenEpoch
		cases = append(cases, goldenCase{mix + " ARPA", sim,
			func() { ar.RunCycles(0) }, func() { ar.RunCycles(goldenEpoch) }})
	}

	cfg := DefaultConfig()
	cfg.ROBSize, cfg.IQSize, cfg.FetchQCap, cfg.DepWindow = 61, 23, 5, 7
	sim := New(cfg, smtwork.NewGen(mustProfile(t, "mcf"), 3), smtwork.NewGen(mustProfile(t, "lbm"), 4))
	cases = append(cases, fixedCase("mcf-lbm smallcfg", sim, ChoiPolicy))

	// A pointer chase whose every load misses to a slow memory: each
	// load starts when its predecessor completes, thousands of cycles
	// ahead, so IQ releases land beyond the initial release ring.
	chase := smtwork.Profile{Name: "chase", LoadFrac: 0.3, MemLat: 3000, LoadChainProb: 1,
		DepProb: 0.5, DepDistMean: 4}
	sim = New(DefaultConfig(), smtwork.NewGen(chase, 5), smtwork.NewGen(mustProfile(t, "gcc"), 6))
	return append(cases, fixedCase("chase-gcc ringgrowth", sim, ChoiPolicy))
}

// goldenRuns simulates the pinned grid and renders one line per case.
func goldenRuns(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, c := range goldenCases(t) {
		c.run()
		out = append(out, goldenLine(c.name, c.sim))
		if c.name == "chase-gcc ringgrowth" && len(c.sim.releases) <= releaseRingLen {
			t.Errorf("chase-gcc: release ring stayed at %d slots, want growth past %d",
				len(c.sim.releases), releaseRingLen)
		}
	}
	return out
}

// TestGolden pins the pipeline's simulated behaviour bit for bit. Run
// with -update only when a change is meant to alter the simulation.
func TestGolden(t *testing.T) {
	got := strings.Join(goldenRuns(t), "\n") + "\n"
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("golden line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("golden has %d lines, got %d", len(wl), len(gl))
		}
	}
}

// TestQuietSkipMatchesStepping checks the quiet-cycle skip against
// stepping every cycle. Each golden case, plus a solo run, runs epoch by
// epoch, one RunCycles(goldenEpoch) call each, beside a twin built the
// same way that gets the same policy and share and steps the epoch with
// goldenEpoch RunCycles(1) calls. After every epoch the two must agree
// on the cycle, commits, occupancy integrals and rename accounting.
func TestQuietSkipMatchesStepping(t *testing.T) {
	soloCase := func() goldenCase {
		p := mustProfile(t, "gcc")
		sim := NewSim(p, p, 1)
		sim.DisableThread(1)
		sim.SetPolicy(ICountPolicy)
		return goldenCase{"gcc solo", sim, func() {}, func() { sim.RunCycles(goldenEpoch) }}
	}
	cases := append(goldenCases(t), soloCase())
	twins := append(goldenCases(t), soloCase())
	for i, c := range cases {
		twin := twins[i].sim
		c.prime()
		for c.sim.Cycle() < goldenCycles {
			twin.SetPolicy(c.sim.Policy())
			twin.SetShare(c.sim.Share())
			for range goldenEpoch {
				twin.RunCycles(1)
			}
			c.epoch()
			if got, want := goldenLine(c.name, c.sim), goldenLine(c.name, twin); got != want {
				t.Fatalf("after cycle %d:\n skipping %s\n stepping %s", twin.Cycle(), got, want)
			}
		}
	}
}
