package core

import (
	"fmt"
)

// This file is the contextual tier: per-context arm statistics keyed by a
// compact state signature, following the contextual-bandit formulation
// (van Emden & Kaptein's `contextual` survey) specialized to the paper's
// hardware constraints. Rather than a full feature-vector LinUCB — whose
// per-arm d×d matrix inverse is far outside the paper's 8-bytes-per-arm
// budget — the context space is bucketed into a small discrete Signature
// (phase id, MPKI band, DRAM-bandwidth-utilization band), and each
// signature gets its own ordinary Tables driven by an ordinary Policy.
//
// With one-hot (disjoint-arm) context features this IS LinUCB: the A
// matrix stays diagonal, x'A⁻¹x collapses to 1/n for the active context,
// and the UCB bonus α·sqrt(x'A⁻¹x) becomes the familiar α/√n over the
// per-context count — so the "linucb" registry name maps to per-context
// UCB, exactly, not approximately. "ctx-thompson" likewise runs Thompson
// sampling over per-context posteriors.
//
// The context map is bounded: at most MaxContexts signatures hold live
// tables, evicted LRU, so the "lightweight" claim survives adversarial
// signature churn. A hardware realization would be a small set-associative
// table indexed by signature bits.

// Signature is a compact context key: phase id in the high 16 bits, MPKI
// band in bits 8-15, bandwidth-utilization band in bits 0-7. The zero
// Signature is a valid context (and the one used when no context has been
// set), so context-free callers degrade to a single-context agent that
// makes exactly the base algorithm's decisions.
type Signature uint32

// MakeSignature packs the three bucketed fields. Out-of-range values are
// masked to their field width.
func MakeSignature(phase, mpkiBand, bwBand int) Signature {
	return Signature(uint32(phase&0xffff)<<16 | uint32(mpkiBand&0xff)<<8 | uint32(bwBand&0xff))
}

// Phase returns the phase-id field.
func (s Signature) Phase() int { return int(s >> 16) }

// MPKIBand returns the MPKI-band field.
func (s Signature) MPKIBand() int { return int(s>>8) & 0xff }

// BWBand returns the bandwidth-utilization-band field.
func (s Signature) BWBand() int { return int(s) & 0xff }

// String renders the signature as "p<phase>/m<band>/b<band>" for logs.
func (s Signature) String() string {
	return fmt.Sprintf("p%d/m%d/b%d", s.Phase(), s.MPKIBand(), s.BWBand())
}

// mpkiBandCuts are the L2-MPKI band boundaries. Geometric spacing: one
// band per ~4x MPKI, matching how prefetcher efficacy regimes separate
// (streaming vs pointer-chasing vs cache-resident).
var mpkiBandCuts = [...]float64{0.5, 2, 8, 32, 128}

// BandMPKI buckets an L2 misses-per-kilo-instruction value into a small
// band index (0..len(cuts)). Negative and NaN inputs land in band 0.
func BandMPKI(mpki float64) int {
	for i, cut := range mpkiBandCuts {
		if !(mpki >= cut) {
			return i
		}
	}
	return len(mpkiBandCuts)
}

// BandBW buckets a DRAM bandwidth utilization in [0,1] into quarters
// (0..3). Out-of-range inputs saturate.
func BandBW(util float64) int {
	switch {
	case !(util > 0.25):
		return 0
	case util <= 0.5:
		return 1
	case util <= 0.75:
		return 2
	default:
		return 3
	}
}

// SignatureOf builds the signature for raw telemetry interval values:
// workload phase id, L2 MPKI, and DRAM bandwidth utilization.
func SignatureOf(phase int, mpki, bwUtil float64) Signature {
	return MakeSignature(phase, BandMPKI(mpki), BandBW(bwUtil))
}

// ContextSetter is implemented by controllers that key their decisions by
// a state signature. Drivers (the simulator's Runner, the serve layer)
// feed the signature for the upcoming bandit step through it; controllers
// without context — the plain Agent, FixedArm — are simply never asked.
type ContextSetter interface {
	SetContext(sig Signature)
}

// DefaultMaxContexts bounds the live-context count when
// ContextualConfig.MaxContexts is zero. 16 contexts × 8 bytes/arm keeps
// the whole structure within a few hardware-table-sized SRAMs.
const DefaultMaxContexts = 16

// MaxMaxContexts is the hard upper bound on ContextualConfig.MaxContexts.
const MaxMaxContexts = 4096

// ContextualConfig configures a ContextualAgent.
type ContextualConfig struct {
	// Arms is the number of actions, shared by every context.
	Arms int
	// Algo names the per-context base algorithm ("ducb", "ucb", "eps",
	// "thompson") resolved through AlgoConfig, so a name means the same
	// hyperparameters here as everywhere else.
	Algo string
	// Seed seeds the agent family; each context derives its own private
	// sub-seed from it, so decision streams are deterministic and
	// independent of context arrival order.
	Seed uint64
	// MaxContexts bounds the live-context count (LRU eviction beyond
	// it). 0 means DefaultMaxContexts.
	MaxContexts int
	// RecordTrace enables per-step arm recording on every context agent.
	RecordTrace bool
}

// maxContexts resolves the effective bound.
func (c ContextualConfig) maxContexts() int {
	if c.MaxContexts == 0 {
		return DefaultMaxContexts
	}
	return c.MaxContexts
}

// Validate checks the configuration.
func (c ContextualConfig) Validate() error {
	if c.Arms < 1 {
		return fmt.Errorf("core: contextual config needs at least 1 arm, got %d", c.Arms)
	}
	if c.MaxContexts < 0 || c.MaxContexts > MaxMaxContexts {
		return fmt.Errorf("core: max contexts %d outside [0,%d]", c.MaxContexts, MaxMaxContexts)
	}
	if _, err := AlgoConfig(c.Algo, c.Arms, c.Seed, c.RecordTrace); err != nil {
		return fmt.Errorf("core: contextual base algorithm: %w", err)
	}
	return nil
}

// contextSeed derives a context's private RNG seed from the family seed
// and its signature, via a SplitMix64-style finalizer. Deterministic and
// well-spread, so two contexts never share an RNG stream and a context's
// stream does not depend on when it was first seen.
func contextSeed(base uint64, sig Signature) uint64 {
	z := base + 0x9e3779b97f4a7c15*(uint64(sig)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ctxEntry is one live context: its signature, its agent, and its
// position in the intrusive LRU list (head = most recently used).
type ctxEntry struct {
	sig        Signature
	agent      *Agent
	prev, next *ctxEntry
}

// ContextualAgent keys independent bandit Tables by Signature. It
// implements Controller — Step/Reward/InInitialRR — plus ContextSetter,
// so it drops into every harness and serve path a plain Agent fits.
//
// Each context is a full Agent (own tables, own RNG, own initial
// round-robin phase): a freshly seen context pays its own exploration
// rather than inheriting another regime's poisoned estimates, which is
// precisely the advantage under phase storms. The zero value is not
// usable; construct with NewContextualAgent.
type ContextualAgent struct {
	cfg      ContextualConfig
	contexts map[Signature]*ctxEntry
	head     *ctxEntry // most recently used
	tail     *ctxEntry // least recently used

	pending   Signature // context for the next Step (set by SetContext)
	open      *ctxEntry // context owning the open step, nil otherwise
	steps     int       // completed bandit steps across all contexts
	evictions int       // contexts dropped by the LRU bound
}

// NewContextualAgent constructs a ContextualAgent. No context agents are
// allocated until their signatures are first seen.
func NewContextualAgent(cfg ContextualConfig) (*ContextualAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ContextualAgent{
		cfg:      cfg,
		contexts: make(map[Signature]*ctxEntry),
	}, nil
}

// SetContext selects the context for the next Step call. It may be called
// any number of times between steps; the last value wins. Calling it
// mid-step (between Step and Reward) affects only the next step — the
// open step's reward always lands in the context that chose its arm.
func (c *ContextualAgent) SetContext(sig Signature) { c.pending = sig }

// Context returns the signature the next Step will use.
func (c *ContextualAgent) Context() Signature { return c.pending }

// Contexts returns the number of live contexts.
func (c *ContextualAgent) Contexts() int { return len(c.contexts) }

// Evictions returns how many contexts the LRU bound has dropped.
func (c *ContextualAgent) Evictions() int { return c.evictions }

// StepsTaken returns the number of completed bandit steps across all
// contexts.
func (c *ContextualAgent) StepsTaken() int { return c.steps }

// Arms returns the number of arms.
func (c *ContextualAgent) Arms() int { return c.cfg.Arms }

// StepOpen reports whether a Step call is awaiting its Reward.
func (c *ContextualAgent) StepOpen() bool { return c.open != nil }

// unlink removes e from the LRU list.
func (c *ContextualAgent) unlink(e *ctxEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *ContextualAgent) pushFront(e *ctxEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// touch returns the entry for sig, creating it (and evicting the LRU
// tail past the bound) on first sight. The config was validated at
// construction, so the AlgoConfig rebuild cannot fail.
func (c *ContextualAgent) touch(sig Signature) *ctxEntry {
	if e, ok := c.contexts[sig]; ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return e
	}
	cfg, err := AlgoConfig(c.cfg.Algo, c.cfg.Arms, contextSeed(c.cfg.Seed, sig), c.cfg.RecordTrace)
	if err != nil {
		panic("core: contextual base algorithm vanished after Validate: " + err.Error())
	}
	a, err := New(cfg)
	if err != nil {
		panic("core: contextual agent construction failed after Validate: " + err.Error())
	}
	e := &ctxEntry{sig: sig, agent: a}
	c.contexts[sig] = e
	c.pushFront(e)
	if len(c.contexts) > c.cfg.maxContexts() {
		// The tail is never the entry just touched (it sits at the head),
		// and no step can be open here — Step panics before touch if one is.
		victim := c.tail
		c.unlink(victim)
		delete(c.contexts, victim.sig)
		c.evictions++
	}
	return e
}

// Step implements Controller: it selects the arm for the next bandit step
// within the pending context. Like Agent.Step, it panics if called twice
// without an intervening Reward.
func (c *ContextualAgent) Step() int {
	if c.open != nil {
		panic("core: Step called twice without Reward")
	}
	e := c.touch(c.pending)
	arm := e.agent.Step()
	c.open = e
	return arm
}

// Reward implements Controller: the reward lands in the context whose
// Step opened it, regardless of SetContext calls since.
func (c *ContextualAgent) Reward(rStep float64) {
	if c.open == nil {
		panic("core: Reward called without a pending Step")
	}
	c.open.agent.Reward(rStep)
	c.open = nil
	c.steps++
}

// InInitialRR implements Controller: it reports the exploration phase of
// the context the next step will run in (the open one while a step is
// pending). A context not yet seen is, by definition, about to start its
// initial round-robin.
func (c *ContextualAgent) InInitialRR() bool {
	if c.open != nil {
		return c.open.agent.InInitialRR()
	}
	if e, ok := c.contexts[c.pending]; ok {
		return e.agent.InInitialRR()
	}
	return true
}

// BestArm returns the best learned arm of the most recently used context
// (0 before any context exists) — the contextual analogue of
// Agent.BestArm for read-model reporting.
func (c *ContextualAgent) BestArm() int {
	if c.head == nil {
		return 0
	}
	return c.head.agent.BestArm()
}

// ContextAgent returns the live agent for sig without touching LRU order,
// or nil if the context is not live. For tests and report tooling.
func (c *ContextualAgent) ContextAgent(sig Signature) *Agent {
	if e, ok := c.contexts[sig]; ok {
		return e.agent
	}
	return nil
}

var (
	_ Controller    = (*ContextualAgent)(nil)
	_ ContextSetter = (*ContextualAgent)(nil)
)
