// Package fault is the deterministic fault-injection layer of the
// robustness experiments: it perturbs what the Bandit observes and
// controls — noisy or quantized IPC reward counters, delayed reward
// delivery, stuck-arm faults (a Tunable.Apply that silently fails),
// transient DRAM bandwidth collapse bursts, and phase-change storms in
// the workload — without modifying any clean simulation path.
//
// Every fault is described by a Spec (kind, intensity, seed) and realized
// by wrapping one of the existing substrate interfaces: core.Controller
// (reward-channel faults), prefetch.Tunable (actuation faults),
// trace.Generator (workload faults), and mem.BandwidthFault (memory-system
// faults). All randomness comes from private xrand streams derived from
// the spec seed and the run's sub-seed, so a faulted experiment is
// byte-identical at any worker count: the same seeded faults fire at the
// same simulated points regardless of goroutine scheduling.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind names one fault model.
type Kind string

// Fault kinds.
const (
	// Noise perturbs every step reward multiplicatively: the controller
	// sees r·(1 + a·u) with u uniform in [-1, 1) and amplitude
	// a = Intensity, modeling jittery IPC counters.
	Noise Kind = "noise"
	// Quantize rounds every step reward to multiples of Intensity,
	// modeling coarse fixed-point reward counters.
	Quantize Kind = "quantize"
	// Delay shifts reward delivery by 1 + round(7·Intensity) bandit
	// steps: the controller credits each arm with the reward observed
	// that many steps earlier (stale performance-counter reads).
	Delay Kind = "delay"
	// StuckArm makes each Tunable.Apply silently fail with probability
	// Intensity, leaving the old arm installed while the agent believes
	// the switch happened.
	StuckArm Kind = "stuckarm"
	// BWCollapse degrades the DRAM channel in bursts: each 64Ki-cycle
	// window collapses with probability Intensity, stretching the
	// per-line streaming period 8x (transient co-runner bandwidth theft).
	BWCollapse Kind = "bwcollapse"
	// PhaseStorm forces abrupt workload phase changes: every P
	// instructions the access stream relocates to a fresh address
	// offset, with P shrinking from ~400k (Intensity 0) to 10k
	// (Intensity 1) instructions.
	PhaseStorm Kind = "phasestorm"
	// Panic makes the run panic mid-simulation with probability
	// Intensity — not a microarchitectural fault but a harness one,
	// used to exercise the experiment engine's graceful degradation.
	Panic Kind = "panic"
)

// Kinds lists every fault kind in canonical order.
func Kinds() []Kind {
	return []Kind{Noise, Quantize, Delay, StuckArm, BWCollapse, PhaseStorm, Panic}
}

// KindNames lists every fault kind as strings (CLI usage messages).
func KindNames() []string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

func knownKind(k Kind) bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// Spec is one configured fault: what to inject, how hard, and the seed of
// its private random stream.
type Spec struct {
	Kind      Kind
	Intensity float64 // in [0, 1]
	Seed      uint64
}

// String renders the spec in the CLI form kind:intensity:seed. It
// round-trips exactly through ParseSpec.
func (s Spec) String() string {
	return string(s.Kind) + ":" + strconv.FormatFloat(s.Intensity, 'g', -1, 64) +
		":" + strconv.FormatUint(s.Seed, 10)
}

// ParseSpec parses the CLI form "kind:intensity[:seed]" (seed defaults
// to 1). Intensity must be a finite number in [0, 1].
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Spec{}, fmt.Errorf("fault: spec %q is not kind:intensity[:seed]", s)
	}
	spec := Spec{Kind: Kind(parts[0]), Seed: 1}
	if !knownKind(spec.Kind) {
		return Spec{}, fmt.Errorf("fault: unknown kind %q (valid: %s)",
			parts[0], strings.Join(KindNames(), ", "))
	}
	in, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return Spec{}, fmt.Errorf("fault: bad intensity in %q: %v", s, err)
	}
	if math.IsNaN(in) || in < 0 || in > 1 {
		return Spec{}, fmt.Errorf("fault: intensity %v in %q outside [0, 1]", in, s)
	}
	spec.Intensity = in
	if len(parts) == 3 {
		seed, err := strconv.ParseUint(parts[2], 0, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad seed in %q: %v", s, err)
		}
		spec.Seed = seed
	}
	return spec, nil
}

// Set is a collection of faults injected together, at most one per kind.
type Set []Spec

// String renders the set in the CLI form spec,spec,...
func (fs Set) String() string {
	parts := make([]string, len(fs))
	for i, s := range fs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// ParseSet parses a comma-separated spec list. The empty string is the
// empty set.
func ParseSet(s string) (Set, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out Set
	for _, part := range strings.Split(s, ",") {
		spec, err := ParseSpec(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if _, ok := out.find(spec.Kind); ok {
			return nil, fmt.Errorf("fault: duplicate kind %q in %q", spec.Kind, s)
		}
		out = append(out, spec)
	}
	return out, nil
}

// find returns the spec of the given kind, if present with a non-zero
// intensity (intensity 0 is the clean configuration for every kind).
func (fs Set) find(k Kind) (Spec, bool) {
	for _, s := range fs {
		if s.Kind == k && s.Intensity > 0 {
			return s, true
		}
	}
	return Spec{}, false
}
