package core

import (
	"fmt"

	"microbandit/internal/obs"
)

// Selector is the meta-bandit agent selector: a high-level Bandit whose
// arms are whole agent configurations (ε-Greedy, UCB, DUCB, contextual
// DUCB, ...), picked per workload. It generalizes MetaAgent — which
// sweeps hyperparameters of one algorithm family — to heterogeneous
// Controllers, the "bandit framework for optimal selection of RL
// agents" idea from the related work: no single algorithm wins on every
// application, so let a bandit learn which agent to trust.
//
// The learning story mirrors MetaAgent: every low-level controller
// opens a step and observes every step reward (off-policy, credited as
// if its own choice had run), but only the controller chosen by the
// high-level bandit steers the hardware. Selector implements
// Controller, ContextSetter, and ProbeSetter, forwarding context
// signatures and reward probes to the low-level controllers that accept
// them — so contextual agents and scenario probes compose with
// selection unchanged.
type Selector struct {
	high *Agent
	low  []Controller
	arms int

	current int  // low-level controller selected for the open step
	inStep  bool // Step called, Reward pending

	rec     obs.Recorder // meta-switch telemetry; nil = disabled
	started bool         // a level has been selected at least once
}

// NewSelector builds an agent selector. highCfg configures the
// high-level bandit (its Arms field is overwritten with len(lows));
// lows are the candidate controllers and arms the hardware arm count
// every low-level controller decides over.
func NewSelector(highCfg Config, lows []Controller, arms int) (*Selector, error) {
	if len(lows) < 2 {
		return nil, fmt.Errorf("core: selector needs at least 2 candidate agents, got %d", len(lows))
	}
	if arms < 2 {
		return nil, fmt.Errorf("core: selector needs at least 2 hardware arms, got %d", arms)
	}
	highCfg.Arms = len(lows)
	high, err := New(highCfg)
	if err != nil {
		return nil, fmt.Errorf("core: selector high level: %w", err)
	}
	return &Selector{high: high, low: lows, arms: arms}, nil
}

// Arms returns the hardware-visible arm count.
func (s *Selector) Arms() int { return s.arms }

// Levels returns the number of candidate agents.
func (s *Selector) Levels() int { return len(s.low) }

// CurrentLevel returns the candidate index steering the open (or most
// recent) step.
func (s *Selector) CurrentLevel() int { return s.current }

// BestLevel returns the candidate the high-level bandit currently rates
// best.
func (s *Selector) BestLevel() int { return s.high.BestArm() }

// Step implements Controller: the high-level bandit picks a candidate;
// that candidate picks the hardware arm. Every other candidate also
// opens a step so it can learn from the shared reward.
func (s *Selector) Step() int {
	if s.inStep {
		panic("core: Selector Step called twice without Reward")
	}
	s.inStep = true
	prev := s.current
	s.current = s.high.Step()
	if s.rec != nil && (!s.started || s.current != prev) {
		s.rec.Record(obs.Event{Kind: obs.KindMetaSwitch, Step: int64(s.high.StepsTaken()), Arm: s.current})
	}
	s.started = true
	arm := 0
	for i, l := range s.low {
		a := l.Step()
		if i == s.current {
			arm = a
		}
	}
	return arm
}

// Reward implements Controller: the shared step reward trains the
// high-level bandit and every candidate (see MetaAgent.Reward for the
// off-policy caveat).
func (s *Selector) Reward(rStep float64) {
	if !s.inStep {
		panic("core: Selector Reward called without a pending Step")
	}
	s.inStep = false
	s.high.Reward(rStep)
	for _, l := range s.low {
		l.Reward(rStep)
	}
}

// InInitialRR implements Controller: true while the selector or any
// candidate still explores round-robin.
func (s *Selector) InInitialRR() bool {
	if s.high.InInitialRR() {
		return true
	}
	for _, l := range s.low {
		if l.InInitialRR() {
			return true
		}
	}
	return false
}

// SetContext implements ContextSetter by forwarding the signature to
// every candidate that is contextual. The high-level bandit stays
// context-free: which agent suits a workload is exactly the long-horizon
// judgement that should not reset per phase.
func (s *Selector) SetContext(sig Signature) {
	for _, l := range s.low {
		if cs, ok := l.(ContextSetter); ok {
			cs.SetContext(sig)
		}
	}
}

// SetRewardProbe implements ProbeSetter by forwarding the scenario's
// probe to every candidate that accepts one.
func (s *Selector) SetRewardProbe(p RewardProbe) {
	for _, l := range s.low {
		if ps, ok := l.(ProbeSetter); ok {
			ps.SetRewardProbe(p)
		}
	}
}

// SetRecorder attaches a telemetry recorder: the high-level selector
// emits its arm/reward/snapshot events (its arms are candidate indices)
// and the Selector emits KindMetaSwitch whenever the driving candidate
// changes. Candidates stay silent to keep the stream single-voiced.
func (s *Selector) SetRecorder(rec obs.Recorder, every int) {
	s.rec = rec
	s.high.SetRecorder(rec, every)
}

// Reset restores the selector and every candidate that supports
// resetting to their initial state.
func (s *Selector) Reset() {
	s.high.Reset()
	for _, l := range s.low {
		if r, ok := l.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
	s.current = 0
	s.inStep = false
	s.started = false
}

var (
	_ Controller    = (*Selector)(nil)
	_ ContextSetter = (*Selector)(nil)
	_ ProbeSetter   = (*Selector)(nil)
)
