package simsmt

import (
	"fmt"

	"microbandit/internal/smtwork"
)

// Config holds the pipeline parameters (Table 5 defaults, Skylake-like).
type Config struct {
	IQSize, ROBSize  int
	LQSize, SQSize   int
	IRFSize, FRFSize int
	FetchWidth       int   // uops fetched per cycle from the chosen thread
	DecodeWidth      int   // uops renamed per cycle (shared)
	CommitWidth      int   // uops committed per cycle (shared)
	FetchQCap        int   // per-thread fetch/decode queue depth
	FrontLatency     int64 // fetch-to-rename pipeline depth
	MispredictRefill int64 // extra front-end refill after a branch resolves
	DepWindow        int   // how far back dependences can reach
}

// DefaultConfig mirrors the paper's Table 5: 97-entry IQ, 224-entry ROB,
// 72/56 LQ/SQ, 180/164 IRF/FRF, 16B (≈4-uop) fetch, 5-wide decode, 8-wide
// commit.
func DefaultConfig() Config {
	return Config{
		IQSize: 97, ROBSize: 224,
		LQSize: 72, SQSize: 56,
		IRFSize: 180, FRFSize: 164,
		FetchWidth: 4, DecodeWidth: 5, CommitWidth: 8,
		FetchQCap: 16, FrontLatency: 5, MispredictRefill: 10,
		DepWindow: 256,
	}
}

// RenameStats is the Fig. 15 accounting: for every cycle, the rename stage
// is either stalled on a full shared structure, idle (nothing delivered by
// fetch/decode, e.g. due to fetch gating), or running.
type RenameStats struct {
	StallROB, StallIQ, StallLQ, StallSQ, StallRF int64
	Idle                                         int64
	Running                                      int64
}

// Stalled returns the total stalled cycles.
func (r RenameStats) Stalled() int64 {
	return r.StallROB + r.StallIQ + r.StallLQ + r.StallSQ + r.StallRF
}

// Total returns the accounted cycles.
func (r RenameStats) Total() int64 { return r.Stalled() + r.Idle + r.Running }

// fetchedUop is a uop in the fetch/decode queue.
type fetchedUop struct {
	uop         smtwork.Uop
	renameReady int64
}

// robEntry is an in-flight uop awaiting in-order commit.
type robEntry struct {
	complete int64
	drainAt  int64 // stores: when the SQ entry frees (0 otherwise)
	kind     smtwork.UopKind
	intReg   bool
	fpReg    bool
}

// thread is one hardware context.
type thread struct {
	gen *smtwork.Gen

	fetchQ      []fetchedUop // ring of FetchQCap entries
	qHead, qLen int
	awaitBranch bool  // a fetched mispredict blocks further fetch
	blockedTill int64 // front-end redirect in progress

	rob      []robEntry // ring
	robHead  int
	robTail  int // next free slot: robHead+robCount, wrapped
	robCount int

	iq, lq, sq int // occupancies
	intRegs    int
	fpRegs     int
	branches   int // branches in ROB (BrC metric)

	completions []int64 // recent uop completion cycles (dep window ring)
	compHead    int     // slot of uop seq: seq mod len(completions)
	seq         int64   // uops renamed so far

	committed int64
}

// releaseSlot counts the entries each thread frees in one cycle: IQ
// entries when a uop starts executing, SQ entries when a store drains.
// Releases commute, so a count per cycle is all the pipeline needs.
type releaseSlot struct {
	iq, sq [2]uint16
}

// releaseRingLen is the release ring's starting length, a power of two.
// A release further ahead, such as the end of a chain of slow loads,
// doubles the ring.
const releaseRingLen = 1024

// maxSlotCount bounds IQSize and SQSize: a slot's count never exceeds the
// entries a thread holds, and must fit a uint16.
const maxSlotCount = 1<<16 - 1

// SMT is the 2-way SMT pipeline.
type SMT struct {
	cfg     Config
	threads [2]*thread
	policy  Policy
	share   [2]float64 // per-thread structure share (Hill Climbing output)

	cycle int64
	// releases is a ring of per-cycle release counts: slot c&(len-1)
	// holds cycle c, for cycles s.cycle+1 through s.cycle+len.
	releases []releaseSlot
	rename   RenameStats
	rrNext   int // round-robin fetch pointer
	commitRR int // alternating commit precedence

	disabled [2]bool // threads excluded from fetch (solo-IPC baselines)

	occAccum [2]int64 // per-thread occupancy integral (ROB+IQ+LQ+SQ per cycle)
}

// New builds the pipeline over two thread workload generators.
func New(cfg Config, genA, genB *smtwork.Gen) *SMT {
	if cfg.FetchWidth < 1 || cfg.DecodeWidth < 1 || cfg.CommitWidth < 1 {
		panic("simsmt: widths must be positive")
	}
	if cfg.FetchQCap < 1 || cfg.DepWindow < 1 || cfg.ROBSize < 1 || cfg.IQSize < 1 {
		panic(fmt.Sprintf("simsmt: FetchQCap, DepWindow, ROBSize and IQSize must be positive (got %d, %d, %d, %d)",
			cfg.FetchQCap, cfg.DepWindow, cfg.ROBSize, cfg.IQSize))
	}
	if cfg.IQSize > maxSlotCount || cfg.SQSize > maxSlotCount {
		panic(fmt.Sprintf("simsmt: IQSize and SQSize must not exceed %d (got %d, %d)",
			maxSlotCount, cfg.IQSize, cfg.SQSize))
	}
	s := &SMT{cfg: cfg, policy: ChoiPolicy, releases: make([]releaseSlot, releaseRingLen)}
	s.share = [2]float64{0.5, 0.5}
	for i, g := range []*smtwork.Gen{genA, genB} {
		s.threads[i] = &thread{
			gen:         g,
			fetchQ:      make([]fetchedUop, cfg.FetchQCap),
			rob:         make([]robEntry, cfg.ROBSize),
			completions: make([]int64, cfg.DepWindow),
		}
	}
	return s
}

// SetPolicy switches the fetch PG policy.
func (s *SMT) SetPolicy(p Policy) { s.policy = p }

// Policy returns the active fetch PG policy.
func (s *SMT) Policy() Policy { return s.policy }

// SetShare sets thread 0's share of every gated structure (thread 1 gets
// the complement); the Hill Climbing controller drives this.
func (s *SMT) SetShare(share float64) {
	if share < 0.1 {
		share = 0.1
	}
	if share > 0.9 {
		share = 0.9
	}
	s.share = [2]float64{share, 1 - share}
}

// Share returns thread 0's structure share.
func (s *SMT) Share() float64 { return s.share[0] }

// Cycle returns the simulated cycle count.
func (s *SMT) Cycle() int64 { return s.cycle }

// Committed returns thread t's committed uop count.
func (s *SMT) Committed(t int) int64 { return s.threads[t].committed }

// SumIPC returns the sum of the two threads' IPCs — the paper's SMT
// performance metric (§6.4).
func (s *SMT) SumIPC() float64 {
	if s.cycle == 0 {
		return 0
	}
	return float64(s.threads[0].committed+s.threads[1].committed) / float64(s.cycle)
}

// RenameStats returns the Fig. 15 rename-stage accounting.
func (s *SMT) RenameStats() RenameStats { return s.rename }

// RunCycles advances the pipeline n cycles.
func (s *SMT) RunCycles(n int64) {
	for i := int64(0); i < n; i++ {
		s.stepCycle()
	}
}

// RunUntilCommitted advances until both threads have committed at least n
// uops (the paper's run-until-each-thread-completes methodology), with a
// cycle cap to guard against pathological configurations.
func (s *SMT) RunUntilCommitted(n int64, maxCycles int64) {
	for (s.threads[0].committed < n || s.threads[1].committed < n) && s.cycle < maxCycles {
		s.stepCycle()
	}
}

// OccupancyIntegral returns the cumulative per-cycle sum of thread t's
// shared-structure occupancy (ROB+IQ+LQ+SQ) — the denominator of ARPA's
// resource-usage efficiency.
func (s *SMT) OccupancyIntegral(t int) int64 { return s.occAccum[t] }

// stepCycle advances one cycle: releases, commit, rename, fetch.
func (s *SMT) stepCycle() {
	s.cycle++
	for i, t := range s.threads {
		s.occAccum[i] += int64(t.robCount + t.iq + t.lq + t.sq)
	}
	// Apply this cycle's structure releases and free its slot for cycle
	// s.cycle+len.
	r := &s.releases[s.cycle&int64(len(s.releases)-1)]
	for i, t := range s.threads {
		t.iq -= int(r.iq[i])
		t.sq -= int(r.sq[i])
	}
	*r = releaseSlot{}
	s.commit()
	s.renameStage()
	s.fetch()
}

// commit retires completed uops in order, alternating thread precedence.
func (s *SMT) commit() {
	budget := s.cfg.CommitWidth
	first := s.commitRR
	s.commitRR ^= 1
	for k := 0; k < 2; k++ {
		ti := first ^ k
		t := s.threads[ti]
		for budget > 0 && t.robCount > 0 {
			e := &t.rob[t.robHead]
			if e.complete > s.cycle {
				break
			}
			switch e.kind {
			case smtwork.UopLoad:
				t.lq--
			case smtwork.UopStore:
				drain := e.drainAt
				if drain <= s.cycle {
					t.sq--
				} else {
					s.releaseAt(drain).sq[ti]++
				}
			case smtwork.UopBranch:
				t.branches--
			}
			if e.intReg {
				t.intRegs--
			}
			if e.fpReg {
				t.fpRegs--
			}
			t.robHead++
			if t.robHead == len(t.rob) {
				t.robHead = 0
			}
			t.robCount--
			t.committed++
			budget--
		}
	}
}

// releaseAt returns the release slot of cycle c, which must lie after the
// current cycle, growing the ring while c is beyond its reach.
func (s *SMT) releaseAt(c int64) *releaseSlot {
	for c-s.cycle > int64(len(s.releases)) {
		s.growReleases()
	}
	return &s.releases[c&int64(len(s.releases)-1)]
}

// growReleases doubles the release ring, moving each pending cycle's
// counts to its slot in the new ring. It stays out of line so that
// releaseAt inlines into the cycle loop.
//
//go:noinline
func (s *SMT) growReleases() {
	old := s.releases
	n := int64(2 * len(old))
	s.releases = make([]releaseSlot, n)
	for c := s.cycle + 1; c <= s.cycle+int64(len(old)); c++ {
		s.releases[c&(n-1)] = old[c&int64(len(old)-1)]
	}
}

// stall causes for rename accounting.
type stallCause uint8

const (
	stallNone stallCause = iota
	stallROB
	stallIQ
	stallLQ
	stallSQ
	stallRF
)

// renameStage moves uops from the fetch queues into the backend, charging
// structure occupancy, and classifies the cycle for Fig. 15.
func (s *SMT) renameStage() {
	budget := s.cfg.DecodeWidth
	renamed := 0
	cause := stallNone
	sawReady := false

	first := int(s.cycle) & 1
	for k := 0; k < 2; k++ {
		ti := first ^ k
		t := s.threads[ti]
		for budget > 0 {
			if t.qLen == 0 {
				break
			}
			f := &t.fetchQ[t.qHead]
			if f.renameReady > s.cycle {
				break
			}
			sawReady = true
			if c := s.resourceBlock(t, s.threads[ti^1], &f.uop); c != stallNone {
				if cause == stallNone {
					cause = c
				}
				break // in-order rename: head blocks the thread
			}
			s.renameUop(ti, t, &f.uop)
			t.qHead++
			if t.qHead == len(t.fetchQ) {
				t.qHead = 0
			}
			t.qLen--
			budget--
			renamed++
		}
	}

	switch {
	case renamed > 0:
		s.rename.Running++
	case cause != stallNone:
		switch cause {
		case stallROB:
			s.rename.StallROB++
		case stallIQ:
			s.rename.StallIQ++
		case stallLQ:
			s.rename.StallLQ++
		case stallSQ:
			s.rename.StallSQ++
		case stallRF:
			s.rename.StallRF++
		}
	case sawReady:
		s.rename.Running++ // renamed zero only because budget was zero
	default:
		s.rename.Idle++
	}
}

// resourceBlock reports which shared structure, if any, blocks renaming
// thread t's uop u, given the sibling thread o. Structures are checked in
// the order the paper's Fig. 15 lists them.
func (s *SMT) resourceBlock(t, o *thread, u *smtwork.Uop) stallCause {
	if t.robCount+o.robCount >= s.cfg.ROBSize {
		return stallROB
	}
	if t.iq+o.iq >= s.cfg.IQSize {
		return stallIQ
	}
	if u.Kind == smtwork.UopLoad && t.lq+o.lq >= s.cfg.LQSize {
		return stallLQ
	}
	if u.Kind == smtwork.UopStore && t.sq+o.sq >= s.cfg.SQSize {
		return stallSQ
	}
	if u.UsesIntReg() && t.intRegs+o.intRegs >= s.cfg.IRFSize {
		return stallRF
	}
	if u.UsesFPReg() && t.fpRegs+o.fpRegs >= s.cfg.FRFSize {
		return stallRF
	}
	return stallNone
}

// renameUop allocates structures, schedules execution, and handles branch
// redirects.
func (s *SMT) renameUop(ti int, t *thread, u *smtwork.Uop) {
	// Dependence: producer completion by program-order distance.
	start := s.cycle + 1
	if u.DepDist > 0 && int64(u.DepDist) <= t.seq {
		// Slot of uop seq-DepDist; DepDist may exceed the window, so
		// wrap as often as needed.
		i := t.compHead - u.DepDist
		for i < 0 {
			i += len(t.completions)
		}
		if pc := t.completions[i]; pc > start {
			start = pc
		}
	}
	complete := start + u.Lat

	// IQ entry held from rename until the uop starts executing.
	t.iq++
	s.releaseAt(start).iq[ti]++

	e := robEntry{complete: complete, kind: u.Kind}
	switch u.Kind {
	case smtwork.UopLoad:
		t.lq++
	case smtwork.UopStore:
		t.sq++
		e.drainAt = complete + u.DrainLat
	case smtwork.UopBranch:
		t.branches++
		if u.Mispredict {
			// Redirect: fetch resumes after the branch resolves.
			t.blockedTill = complete + s.cfg.MispredictRefill
			t.awaitBranch = false
		}
	}
	if u.UsesIntReg() {
		t.intRegs++
		e.intReg = true
	}
	if u.UsesFPReg() {
		t.fpRegs++
		e.fpReg = true
	}

	t.rob[t.robTail] = e
	t.robTail++
	if t.robTail == len(t.rob) {
		t.robTail = 0
	}
	t.robCount++
	t.completions[t.compHead] = complete
	t.compHead++
	if t.compHead == len(t.completions) {
		t.compHead = 0
	}
	t.seq++
}

// fetch picks one thread per the PG policy and fetches FetchWidth uops.
func (s *SMT) fetch() {
	ti := s.chooseFetchThread()
	if ti < 0 {
		return
	}
	t := s.threads[ti]
	for k := 0; k < s.cfg.FetchWidth; k++ {
		if t.qLen == len(t.fetchQ) {
			break
		}
		tail := t.qHead + t.qLen
		if tail >= len(t.fetchQ) {
			tail -= len(t.fetchQ)
		}
		slot := &t.fetchQ[tail]
		t.gen.Next(&slot.uop)
		slot.renameReady = s.cycle + s.cfg.FrontLatency
		t.qLen++
		if slot.uop.Kind == smtwork.UopBranch && slot.uop.Mispredict {
			// Stop fetching this thread until the branch is renamed and
			// resolved (wrong-path suppression).
			t.awaitBranch = true
			break
		}
	}
}

// gated reports whether thread ti exceeds its occupancy share in any
// monitored structure.
func (s *SMT) gated(ti int) bool {
	t := s.threads[ti]
	share := s.share[ti]
	if s.policy.Gate[GateIQ] && float64(t.iq) > share*float64(s.cfg.IQSize) {
		return true
	}
	// LQ and SQ gate separately: a thread hogging one of them (lbm's
	// store-queue appetite, §3.3) must trip the gate even when the other
	// queue is idle.
	if s.policy.Gate[GateLSQ] && (float64(t.lq) > share*float64(s.cfg.LQSize) ||
		float64(t.sq) > share*float64(s.cfg.SQSize)) {
		return true
	}
	if s.policy.Gate[GateROB] && float64(t.robCount) > share*float64(s.cfg.ROBSize) {
		return true
	}
	if s.policy.Gate[GateIRF] && float64(t.intRegs) > share*float64(s.cfg.IRFSize) {
		return true
	}
	return false
}

// DisableThread excludes a thread from fetching entirely, turning the
// pipeline into a single-threaded machine for solo-IPC baselines.
func (s *SMT) DisableThread(ti int) { s.disabled[ti] = true }

// fetchable reports whether thread ti can accept fetch this cycle.
func (s *SMT) fetchable(ti int) bool {
	if s.disabled[ti] {
		return false
	}
	t := s.threads[ti]
	if t.awaitBranch || t.blockedTill > s.cycle {
		return false
	}
	if t.qLen == len(t.fetchQ) {
		return false
	}
	return !s.gated(ti)
}

// chooseFetchThread applies the fetch PG policy: gate, then prioritize.
func (s *SMT) chooseFetchThread() int {
	a, b := s.fetchable(0), s.fetchable(1)
	switch {
	case !a && !b:
		return -1
	case a && !b:
		return 0
	case b && !a:
		return 1
	}
	// Both eligible: apply the priority metric (lower is better).
	switch s.policy.Priority {
	case PriorityIC:
		return argminThread(s.threads[0].iq, s.threads[1].iq, &s.rrNext)
	case PriorityBrC:
		return argminThread(s.threads[0].branches, s.threads[1].branches, &s.rrNext)
	case PriorityLSQC:
		return argminThread(s.threads[0].lq+s.threads[0].sq,
			s.threads[1].lq+s.threads[1].sq, &s.rrNext)
	default: // Round Robin
		s.rrNext ^= 1
		return s.rrNext
	}
}

// argminThread picks the thread with the smaller metric, alternating on
// ties to stay fair.
func argminThread(m0, m1 int, rr *int) int {
	switch {
	case m0 < m1:
		return 0
	case m1 < m0:
		return 1
	default:
		*rr ^= 1
		return *rr
	}
}

// Occupancies returns a debug snapshot "t0: iq=.. rob=.. ..." (tests).
func (s *SMT) Occupancies() string {
	out := ""
	for i, t := range s.threads {
		out += fmt.Sprintf("t%d: iq=%d rob=%d lq=%d sq=%d irf=%d frf=%d br=%d; ",
			i, t.iq, t.robCount, t.lq, t.sq, t.intRegs, t.fpRegs, t.branches)
	}
	return out
}
