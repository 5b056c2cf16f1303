package simsmt

import (
	"fmt"
	"math"

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

// holds counts the entries a uop takes at rename, beyond its ROB and IQ
// entries, and gives back at commit: an LQ or SQ entry, a branch (the
// BrC metric) and an integer or FP rename register.
type holds struct {
	lq, sq, branches, intRegs, fpRegs uint8
}

// kindHolds is each uop kind's holds: ALU ops and loads write an integer
// register, FP ops an FP register.
var kindHolds = [...]holds{
	smtwork.UopALU:    {intRegs: 1},
	smtwork.UopFP:     {fpRegs: 1},
	smtwork.UopLoad:   {lq: 1, intRegs: 1},
	smtwork.UopStore:  {sq: 1},
	smtwork.UopBranch: {branches: 1},
}

// robEntry is an in-flight uop awaiting in-order commit.
type robEntry struct {
	complete int64
	drainAt  int64 // stores: when the SQ entry frees
	holds
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

// gateLimits holds the most entries of each gated structure a thread may
// hold before fetch gates it: floor(share × size), or MaxInt when the
// policy does not gate that structure. For an integer count x, x > y
// holds exactly when x > floor(y), so comparing counts with these limits
// decides as comparing them with share × size would.
type gateLimits struct {
	iq, lq, sq, rob, irf int
}

// SMT is the 2-way SMT pipeline.
type SMT struct {
	cfg     Config
	threads [2]*thread
	policy  Policy
	share   [2]float64 // per-thread structure share (Hill Climbing output)
	limits  [2]gateLimits

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
	s.setLimits()
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
func (s *SMT) SetPolicy(p Policy) {
	s.policy = p
	s.setLimits()
}

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
	s.setLimits()
}

// setLimits recomputes both threads' fetch-gate limits from the policy
// and the shares. LQ and SQ gate separately: a thread hogging one of them
// (lbm's store-queue appetite, §3.3) must trip the gate even when the
// other queue is idle.
func (s *SMT) setLimits() {
	for ti := range s.limits {
		limit := func(gate int, size int) int {
			if !s.policy.Gate[gate] {
				return math.MaxInt
			}
			return int(math.Floor(s.share[ti] * float64(size)))
		}
		s.limits[ti] = gateLimits{
			iq:  limit(GateIQ, s.cfg.IQSize),
			lq:  limit(GateLSQ, s.cfg.LQSize),
			sq:  limit(GateLSQ, s.cfg.SQSize),
			rob: limit(GateROB, s.cfg.ROBSize),
			irf: limit(GateIRF, s.cfg.IRFSize),
		}
	}
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

// RunCycles advances the pipeline n cycles. After a quiet cycle, one
// that changes no pipeline state, it skips to the cycle before the next
// event and accounts the skipped cycles as stepping them would. A skip
// never passes the end of the n cycles, so n calls of RunCycles(1) step
// every cycle and give the same result.
func (s *SMT) RunCycles(n int64) {
	end := s.cycle + n
	for s.cycle < end {
		if !s.stepCycle() {
			s.skipQuiet(end)
		}
	}
}

// OccupancyIntegral returns the cumulative per-cycle sum of thread t's
// shared-structure occupancy (ROB+IQ+LQ+SQ) — the denominator of ARPA's
// resource-usage efficiency.
func (s *SMT) OccupancyIntegral(t int) int64 { return s.occAccum[t] }

// stepCycle advances one cycle: releases, commit, rename, fetch. It
// reports whether the cycle changed pipeline state; a quiet cycle
// changes only the cycle count, the occupancy integrals, the commit
// precedence and the rename accounting.
func (s *SMT) stepCycle() bool {
	s.cycle++
	for i, t := range s.threads {
		s.occAccum[i] += int64(t.robCount + t.iq + t.lq + t.sq)
	}
	// Apply this cycle's structure releases and free its slot for cycle
	// s.cycle+len.
	r := &s.releases[s.cycle&int64(len(s.releases)-1)]
	released := *r != releaseSlot{}
	if released {
		for i, t := range s.threads {
			t.iq -= int(r.iq[i])
			t.sq -= int(r.sq[i])
		}
		*r = releaseSlot{}
	}
	committed := s.commit()
	renamed := s.renameStage()
	fetched := s.fetch()
	return released || committed || renamed || fetched
}

// skipQuiet follows a quiet cycle. Until the next event nothing can
// change: no uop completes at the ROB head, no fetch-queue head becomes
// ready to rename, no front-end redirect ends and no release is due, so
// every cycle before it is quiet too. Gates and shares change only
// between RunCycles calls, and the fetch pointer moves only when a
// fetch happens. skipQuiet jumps to the cycle before that event, or to
// end, and charges the skipped cycles what stepping would.
func (s *SMT) skipQuiet(end int64) {
	next := end + 1 // the first cycle that may not be quiet
	for _, t := range s.threads {
		if t.robCount > 0 {
			next = min(next, t.rob[t.robHead].complete)
		}
		if t.qLen > 0 {
			if r := t.fetchQ[t.qHead].renameReady; r > s.cycle {
				next = min(next, r)
			}
		}
		if t.blockedTill > s.cycle {
			next = min(next, t.blockedTill)
		}
	}
	// The ring holds every pending release, so one ring length of slots
	// covers them all.
	mask := int64(len(s.releases) - 1)
	for c, last := s.cycle+1, min(next-1, s.cycle+mask+1); c <= last; c++ {
		if s.releases[c&mask] != (releaseSlot{}) {
			next = c
			break
		}
	}
	k := next - 1 - s.cycle
	if k <= 0 {
		return
	}
	for i, t := range s.threads {
		s.occAccum[i] += k * int64(t.robCount+t.iq+t.lq+t.sq)
	}
	s.commitRR ^= int(k & 1)
	// renameStage starts from thread cycle&1, so the rename accounting of
	// the skipped cycles alternates between two classifications.
	first := int(s.cycle+1) & 1
	s.rename.charge(s.quietCause(first), (k+1)/2)
	s.rename.charge(s.quietCause(first^1), k/2)
	s.cycle += k
}

// quietCause is the rename classification of a quiet cycle whose rename
// stage starts from thread first: the stall of the first thread whose
// fetch-queue head is ready, since a ready head in a quiet cycle is
// blocked, or stallNone, an idle cycle, when no head is ready.
func (s *SMT) quietCause(first int) stallCause {
	for k := 0; k < 2; k++ {
		ti := first ^ k
		t := s.threads[ti]
		if t.qLen > 0 {
			if f := &t.fetchQ[t.qHead]; f.renameReady <= s.cycle {
				return s.resourceBlock(t, s.threads[ti^1], &f.uop)
			}
		}
	}
	return stallNone
}

// commit retires completed uops in order, alternating thread precedence,
// and reports whether it retired any.
func (s *SMT) commit() bool {
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
			t.lq -= int(e.lq)
			t.branches -= int(e.branches)
			t.intRegs -= int(e.intRegs)
			t.fpRegs -= int(e.fpRegs)
			if e.sq != 0 {
				if e.drainAt <= s.cycle {
					t.sq--
				} else {
					s.releaseAt(e.drainAt).sq[ti]++
				}
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
	return budget < s.cfg.CommitWidth
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
// structure occupancy, classifies the cycle for Fig. 15 and reports
// whether it renamed any uop.
func (s *SMT) renameStage() bool {
	budget := s.cfg.DecodeWidth
	renamed := 0
	cause := stallNone

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

	// A ready head that did not rename was blocked, so a cycle that
	// renamed nothing stalled or, with no head ready, idled.
	if renamed > 0 {
		s.rename.Running++
	} else {
		s.rename.charge(cause, 1)
	}
	return renamed > 0
}

// charge counts n cycles that renamed nothing: stalled on cause, or idle
// when cause is stallNone.
func (r *RenameStats) charge(cause stallCause, n int64) {
	switch cause {
	case stallROB:
		r.StallROB += n
	case stallIQ:
		r.StallIQ += n
	case stallLQ:
		r.StallLQ += n
	case stallSQ:
		r.StallSQ += n
	case stallRF:
		r.StallRF += n
	default:
		r.Idle += n
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
	h := &kindHolds[u.Kind]
	if h.lq != 0 && t.lq+o.lq >= s.cfg.LQSize {
		return stallLQ
	}
	if h.sq != 0 && t.sq+o.sq >= s.cfg.SQSize {
		return stallSQ
	}
	if h.intRegs != 0 && t.intRegs+o.intRegs >= s.cfg.IRFSize {
		return stallRF
	}
	if h.fpRegs != 0 && t.fpRegs+o.fpRegs >= s.cfg.FRFSize {
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

	h := kindHolds[u.Kind]
	t.lq += int(h.lq)
	t.sq += int(h.sq)
	t.branches += int(h.branches)
	t.intRegs += int(h.intRegs)
	t.fpRegs += int(h.fpRegs)
	if u.Kind == smtwork.UopBranch && u.Mispredict {
		// Redirect: fetch resumes after the branch resolves.
		t.blockedTill = complete + s.cfg.MispredictRefill
		t.awaitBranch = false
	}

	t.rob[t.robTail] = robEntry{complete: complete, drainAt: complete + u.DrainLat, holds: h}
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

// fetch picks one thread per the PG policy, fetches up to FetchWidth
// uops and reports whether it fetched any.
func (s *SMT) fetch() bool {
	ti := s.chooseFetchThread()
	if ti < 0 {
		return false
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
	return true
}

// gated reports whether thread ti exceeds its occupancy share in any
// monitored structure.
func (s *SMT) gated(ti int) bool {
	t, l := s.threads[ti], &s.limits[ti]
	return t.iq > l.iq || t.lq > l.lq || t.sq > l.sq || t.robCount > l.rob || t.intRegs > l.irf
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
