package scenario

import (
	"fmt"

	"microbandit/internal/core"
	"microbandit/internal/cpu"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
)

// agentselectScenario is the capstone: the decision is not a hardware
// knob but *which agent to trust*. A core.Selector runs ε-Greedy, UCB,
// DUCB, and contextual-DUCB candidates concurrently over the Table 7
// prefetcher ensemble and a high-level DUCB bandit learns, per
// workload, which candidate's choices to follow — the related work's
// "bandit framework for optimal selection of RL agents". The static
// columns run each candidate alone; the meta-bandit's job is to match
// the per-workload best without knowing it in advance.
type agentselectScenario struct{}

// agentselectLabels names the candidate agents — this scenario's
// decision space.
var agentselectLabels = []string{"eps", "ucb", "ducb", "ctx-ducb"}

func (agentselectScenario) Name() string { return "agentselect" }
func (agentselectScenario) Desc() string {
	return "meta-bandit agent selector: eps/UCB/DUCB/ctx-DUCB candidates over the prefetch ensemble"
}
func (agentselectScenario) ArmLabels() []string { return agentselectLabels }
func (agentselectScenario) Apps() []string {
	return []string{"gcc06", "mcf06", "lbm06", "xalancbmk"}
}
func (agentselectScenario) Faults() string { return "" }

// Columns: the selector, then each candidate running alone — the
// "static arms" of the agent-selection decision are whole agents, not
// FixedArm controllers.
func (s agentselectScenario) Columns() []Column {
	arms := len(prefetchLabels)
	cols := make([]Column, 0, len(agentselectLabels)+1)
	cols = append(cols, Column{Name: "bandit", New: func(seed uint64) core.Controller {
		return mustSelector(arms, seed)
	}})
	for i, name := range agentselectLabels {
		algo := name
		off := uint64(i)
		cols = append(cols, Column{Name: "static:" + algo, New: func(seed uint64) core.Controller {
			return mustCandidate(algo, arms, seed+off*0x9e37)
		}})
	}
	return cols
}

func (s agentselectScenario) Wire(c *cpu.Core, h *mem.Hierarchy, seed uint64) Instance {
	ens := prefetch.NewTable7Ensemble()
	return Instance{Tunable: &ensembleTunable{ens}, Pf: ens}
}

// mustCandidate builds one candidate agent by registry name.
func mustCandidate(algo string, arms int, seed uint64) core.Controller {
	ctrl, err := core.ParseAlgo(algo, arms, seed, false)
	if err != nil {
		panic(fmt.Sprintf("scenario: agentselect candidate %q: %v", algo, err))
	}
	return ctrl
}

// mustSelector builds the meta-bandit: a DUCB high-level bandit over
// the four candidates, each candidate seeded independently (the same
// sub-seeds the static columns use, so selection is compared against
// the identical learners it selects among).
func mustSelector(arms int, seed uint64) core.Controller {
	lows := make([]core.Controller, len(agentselectLabels))
	for i, algo := range agentselectLabels {
		lows[i] = mustCandidate(algo, arms, seed+uint64(i)*0x9e37)
	}
	sel, err := core.NewSelector(core.Config{
		Policy:    core.NewDUCB(core.PrefetchC, 0.999),
		Normalize: true,
		Seed:      seed ^ 0x53656c65, // "Sele"
	}, lows, arms)
	if err != nil {
		panic(fmt.Sprintf("scenario: agentselect selector: %v", err))
	}
	return sel
}
