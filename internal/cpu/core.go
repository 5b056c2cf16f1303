// Package cpu implements the trace-driven out-of-order core model used for
// the prefetching experiments — the project's ChampSim substitute.
//
// The model is a window (interval) model: instructions dispatch in order at
// up to FetchWidth per cycle into a ROB-sized window, execute with
// kind-specific latencies (memory operations through the internal/mem
// hierarchy, which models MSHRs and DRAM bandwidth), and retire in order at
// up to CommitWidth per cycle. Memory-level parallelism emerges naturally:
// independent loads issue as they dispatch and overlap until the ROB
// fills — exactly the mechanism that makes prefetching matter. Branch
// mispredictions redirect the front end after the branch resolves.
//
// The model deliberately omits register renaming and scheduler details: the
// Bandit only observes IPC responses to prefetch quality and bandwidth
// pressure, and those causal paths are fully present.
package cpu

import (
	"microbandit/internal/mem"
	"microbandit/internal/trace"
)

// Config holds the core parameters (Table 4 defaults).
type Config struct {
	// FetchWidth is the dispatch width per cycle.
	FetchWidth int
	// CommitWidth is the in-order retire width per cycle.
	CommitWidth int
	// ROBSize is the reorder-buffer (window) size.
	ROBSize int
	// MispredictPenalty is the front-end refill delay after a
	// mispredicted branch resolves.
	MispredictPenalty int64
	// ALULatency and FPLatency are execution latencies.
	ALULatency, FPLatency int64
}

// DefaultConfig mirrors the paper's Table 4 (Skylake-like): fetch 6,
// commit 4, 256-entry ROB.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        6,
		CommitWidth:       4,
		ROBSize:           256,
		MispredictPenalty: 12,
		ALULatency:        1,
		FPLatency:         4,
	}
}

// L2AccessFunc observes L2 demand accesses (the prefetcher training and
// bandit-step event stream).
type L2AccessFunc func(pc, addr uint64, hit bool, cycle int64)

// Core is one simulated core consuming one instruction trace.
//
// Execution is epoch-batched: the trace is pulled a Chunk at a time
// (trace.ChunkLen instructions) into a core-owned struct-of-arrays slab,
// and the window model runs a tight index loop over the slab — no
// interface dispatch or Inst copy per instruction. Spans without memory
// operations take a leaner pass still (see leanSpan): every observable
// event (L2 demand accesses, and through them bandit steps, telemetry
// windows, and fault activations) fires from loads and stores only, so
// memory-free spans are advanced without touching the hierarchy or the
// event hooks at all. Both loops replicate stepInst's arithmetic
// exactly; the differential tests pin chunked against scalar execution
// bit-for-bit.
type Core struct {
	cfg  Config
	hier *mem.Hierarchy
	gen  trace.Generator
	src  trace.ChunkSource

	cycle int64 // current dispatch cycle
	slot  int   // dispatch slots consumed this cycle
	insts int64

	rob      []int64 // retire cycles, ring buffer
	robHead  int
	robCount int

	lastRetire  int64 // retire cycle of the newest instruction
	retireCount int   // commits already assigned to lastRetire

	lastLoadDone int64 // completion of the most recent load (chase deps)

	chunk    trace.Chunk // current epoch's instruction slab
	chunkPos int         // instructions of chunk already simulated
	memIdx   int         // next chunk.Mem entry at or after chunkPos
	ffInsts  int64       // instructions advanced by the memory-free lean pass

	// phaseN is the stream position phase probes evaluate at: the number
	// of instructions the model has begun executing. The scalar path read
	// the generator's mutable phase state mid-instruction, which equals
	// insts+1 there; chunked generation runs ahead, so Phase recomputes
	// from this count instead.
	phaseN int64

	// inst is the scratch decode target handed to gen.Next. Passing a
	// stack variable's address through the Generator interface makes it
	// escape — one heap allocation per simulated instruction — so the
	// scratch lives here instead. Every Generator fully overwrites it.
	inst trace.Inst

	// OnL2Access, when set, is invoked for every L2 demand access.
	OnL2Access L2AccessFunc

	// scalar forces the pre-chunking reference path; set only by the
	// differential tests.
	scalar bool
}

// New builds a core over the given hierarchy and trace generator.
func New(cfg Config, hier *mem.Hierarchy, gen trace.Generator) *Core {
	if cfg.FetchWidth < 1 || cfg.CommitWidth < 1 || cfg.ROBSize < 1 {
		panic("cpu: widths and ROB size must be positive")
	}
	return &Core{cfg: cfg, hier: hier, gen: gen, src: trace.SourceOf(gen),
		rob: make([]int64, cfg.ROBSize)}
}

// Hier returns the core's memory hierarchy.
func (c *Core) Hier() *mem.Hierarchy { return c.hier }

// Gen returns the core's trace generator, so drivers can reach optional
// generator capabilities. Phase probes must go through Core.Phase, not
// the generator's own state: chunked generation runs ahead of the
// simulated position.
func (c *Core) Gen() trace.Generator { return c.gen }

// Phase reports the program phase governing the instruction the model is
// executing (the context-signature input). For phase-structured traces
// (trace.PhaseAtter) it is a pure function of the stream position, so it
// stays correct — and identical to the scalar path's mid-instruction
// generator probe — while chunked generation runs ahead. Any other
// generator reports phase 0: a generator's own mutable phase state may
// describe an instruction up to a chunk ahead of the one being simulated.
func (c *Core) Phase() int {
	if pa, ok := c.gen.(trace.PhaseAtter); ok {
		return pa.PhaseAt(c.phaseN)
	}
	return 0
}

// FFInsts returns the number of instructions advanced by the memory-free
// lean pass (the fast-forward coverage numerator).
func (c *Core) FFInsts() int64 { return c.ffInsts }

// ChunkCacheStats reports the trace source's memoized-chunk hit/miss
// counts when the source is cache-backed, else zeros.
func (c *Core) ChunkCacheStats() (hits, misses int64) {
	if cs, ok := c.gen.(trace.CacheStatser); ok {
		return cs.CacheStats()
	}
	return 0, 0
}

// Insts returns the number of simulated instructions.
func (c *Core) Insts() int64 { return c.insts }

// Cycles returns the elapsed cycles including the retirement of the
// youngest instruction.
func (c *Core) Cycles() int64 {
	if c.lastRetire > c.cycle {
		return c.lastRetire
	}
	return c.cycle
}

// IPC returns the cumulative instructions per cycle.
func (c *Core) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.insts) / float64(cy)
}

// RunInsts simulates n further instructions through the epoch-batched
// path: refill the slab when drained, then run the window model over the
// buffered span. Partial consumption is fine — the slab position
// persists across calls, so interleaved callers (RunCtx chunking,
// multi-core timestamp-ordered stepping) see the same stream.
func (c *Core) RunInsts(n int64) {
	if c.scalar {
		c.runInstsScalar(n)
		return
	}
	for n > 0 {
		if c.chunkPos == c.chunk.Len() {
			c.chunk.Reset(trace.ChunkLen)
			c.src.NextChunk(&c.chunk)
			c.chunkPos, c.memIdx = 0, 0
		}
		k := int(n)
		if rem := c.chunk.Len() - c.chunkPos; k > rem {
			k = rem
		}
		c.runSpan(c.chunkPos, c.chunkPos+k)
		n -= int64(k)
	}
}

// runSpan simulates slab instructions [lo, hi), alternating memory-free
// lean spans with full memory steps. chunk.Mem partitions the span: an
// index absent from it is never a load or store, so everything between
// consecutive memory operations is safe to fast-forward.
func (c *Core) runSpan(lo, hi int) {
	mem := c.chunk.Mem
	i := lo
	for i < hi {
		next := hi
		if c.memIdx < len(mem) {
			if m := int(mem[c.memIdx]); m < hi {
				next = m
			}
		}
		if next > i {
			c.leanSpan(i, next)
			i = next
		}
		if i < hi {
			c.stepMemAt(i)
			c.memIdx++
			i++
		}
	}
	c.chunkPos = hi
}

// leanSpan fast-forwards the window model over slab instructions
// [lo, hi), none of which is a load or store. The arithmetic replicates
// stepInst case by case; what is skipped is everything that cannot
// happen here — hierarchy accesses, load serialization, and the
// OnL2Access hook (so no bandit step, telemetry window, arm activation,
// or fault event can fire inside the span; mispredict redirects are pure
// window arithmetic and are handled in full).
func (c *Core) leanSpan(lo, hi int) {
	kinds := c.chunk.Kind
	flags := c.chunk.Flags
	// Hoist the window state into locals: nothing inside the loop can
	// observe the fields, so the compiler is free of aliasing reloads and
	// the state lives in registers across the span.
	rob := c.rob
	robLen := len(rob)
	cycle, slot := c.cycle, c.slot
	robHead, robCount := c.robHead, c.robCount
	lastRetire, retireCount := c.lastRetire, c.retireCount
	fetchWidth := c.cfg.FetchWidth
	aluLat, fpLat := c.cfg.ALULatency, c.cfg.FPLatency
	commitWidth := c.cfg.CommitWidth
	mispredict := c.cfg.MispredictPenalty
	for i := lo; i < hi; i++ {
		// Dispatch bandwidth.
		if slot >= fetchWidth {
			cycle++
			slot = 0
		}
		// Window: a full ROB stalls dispatch until the head retires.
		if robCount == robLen {
			if head := rob[robHead]; head > cycle {
				cycle = head
				slot = 0
			}
			robHead++
			if robHead == robLen {
				robHead = 0
			}
			robCount--
		}

		complete := cycle + aluLat
		redirect := false
		switch kinds[i] {
		case trace.KindFP:
			complete = cycle + fpLat
		case trace.KindBranch:
			redirect = flags[i]&trace.FlagMispredict != 0
		}

		// In-order retirement at CommitWidth per cycle.
		retire := complete
		if retire < lastRetire {
			retire = lastRetire
		}
		if retire == lastRetire {
			if retireCount >= commitWidth {
				retire++
				retireCount = 1
			} else {
				retireCount++
			}
		} else {
			retireCount = 1
		}
		lastRetire = retire

		tail := robHead + robCount
		if tail >= robLen {
			tail -= robLen
		}
		rob[tail] = retire
		robCount++
		slot++

		if redirect {
			next := complete + mispredict
			if next > cycle {
				cycle = next
				slot = 0
			}
		}
	}
	c.cycle, c.slot = cycle, slot
	c.robHead, c.robCount = robHead, robCount
	c.lastRetire, c.retireCount = lastRetire, retireCount
	c.insts += int64(hi - lo)
	c.ffInsts += int64(hi - lo)
}

// stepMemAt dispatches, executes, and schedules retirement for the load
// or store at slab index i — stepInst's memory cases over the slab.
func (c *Core) stepMemAt(i int) {
	c.phaseN = c.insts + 1

	if c.slot >= c.cfg.FetchWidth {
		c.cycle++
		c.slot = 0
	}
	if c.robCount == len(c.rob) {
		if head := c.rob[c.robHead]; head > c.cycle {
			c.cycle = head
			c.slot = 0
		}
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
	}

	dispatch := c.cycle
	var complete int64
	addr := c.chunk.Addr[i]
	if c.chunk.Kind[i] == trace.KindLoad {
		issue := dispatch
		if c.chunk.Flags[i]&trace.FlagDependsOnPrev != 0 && c.lastLoadDone > issue {
			issue = c.lastLoadDone // pointer chase serializes
		}
		res := c.hier.Access(addr, false, issue)
		complete = res.Done
		c.lastLoadDone = complete
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(c.chunk.PC[i], addr, res.L2Hit, issue)
		}
	} else {
		res := c.hier.Access(addr, true, dispatch)
		// Stores retire through the store buffer: the write completes in
		// the background and does not hold up commit.
		complete = dispatch + c.cfg.ALULatency
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(c.chunk.PC[i], addr, res.L2Hit, dispatch)
		}
	}

	retire := complete
	if retire < c.lastRetire {
		retire = c.lastRetire
	}
	if retire == c.lastRetire {
		if c.retireCount >= c.cfg.CommitWidth {
			retire++
			c.retireCount = 1
		} else {
			c.retireCount++
		}
	} else {
		c.retireCount = 1
	}
	c.lastRetire = retire

	tail := c.robHead + c.robCount
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	c.rob[tail] = retire
	c.robCount++
	c.slot++
	c.insts++
}

// runInstsScalar is the pre-chunking reference implementation: one
// Generator.Next call per instruction. The differential tests pin the
// epoch-batched path against it; production callers use RunInsts.
func (c *Core) runInstsScalar(n int64) {
	for i := int64(0); i < n; i++ {
		c.stepInst()
	}
}

// stepInst dispatches, executes, and schedules retirement for one
// instruction.
func (c *Core) stepInst() {
	c.gen.Next(&c.inst)
	inst := &c.inst
	c.phaseN = c.insts + 1

	// Dispatch bandwidth.
	if c.slot >= c.cfg.FetchWidth {
		c.cycle++
		c.slot = 0
	}
	// Window: a full ROB stalls dispatch until the head retires.
	if c.robCount == len(c.rob) {
		if head := c.rob[c.robHead]; head > c.cycle {
			c.cycle = head
			c.slot = 0
		}
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
	}

	dispatch := c.cycle
	var complete int64
	redirect := false

	switch inst.Kind {
	case trace.KindALU:
		complete = dispatch + c.cfg.ALULatency
	case trace.KindFP:
		complete = dispatch + c.cfg.FPLatency
	case trace.KindBranch:
		complete = dispatch + c.cfg.ALULatency
		redirect = inst.Mispredict
	case trace.KindLoad:
		issue := dispatch
		if inst.DependsOnPrev && c.lastLoadDone > issue {
			issue = c.lastLoadDone // pointer chase serializes
		}
		res := c.hier.Access(inst.Addr, false, issue)
		complete = res.Done
		c.lastLoadDone = complete
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(inst.PC, inst.Addr, res.L2Hit, issue)
		}
	case trace.KindStore:
		res := c.hier.Access(inst.Addr, true, dispatch)
		// Stores retire through the store buffer: the write completes in
		// the background and does not hold up commit.
		complete = dispatch + c.cfg.ALULatency
		if res.L2Access && c.OnL2Access != nil {
			c.OnL2Access(inst.PC, inst.Addr, res.L2Hit, dispatch)
		}
	default:
		complete = dispatch + c.cfg.ALULatency
	}

	// In-order retirement at CommitWidth per cycle.
	retire := complete
	if retire < c.lastRetire {
		retire = c.lastRetire
	}
	if retire == c.lastRetire {
		if c.retireCount >= c.cfg.CommitWidth {
			retire++
			c.retireCount = 1
		} else {
			c.retireCount++
		}
	} else {
		c.retireCount = 1
	}
	c.lastRetire = retire

	// robHead+robCount < 2*len(rob) always, so a conditional subtract
	// replaces the per-instruction integer division of a modulo.
	tail := c.robHead + c.robCount
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	c.rob[tail] = retire
	c.robCount++
	c.slot++
	c.insts++

	if redirect {
		// Fetch resumes after the branch resolves plus the refill delay.
		next := complete + c.cfg.MispredictPenalty
		if next > c.cycle {
			c.cycle = next
			c.slot = 0
		}
	}
}
