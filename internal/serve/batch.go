package serve

import (
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
)

// This file is the /v1/batch execution plane. One request carries many
// step and reward operations; the handler amortizes everything the
// scalar endpoints pay per decision — HTTP framing, body decode, shard
// lookup, response encode — and, for fault-free slab-resident sessions,
// replaces per-session virtual dispatch with the slab kernels
// (core.Slab.StepBatch / RewardBatch) sweeping contiguous agent records.
//
// Semantics are exactly the scalar protocol's. Each operation succeeds
// or fails independently, with the same typed codes the scalar endpoints
// answer (the response is HTTP 200 even when operations inside failed;
// clients switch on per-result error codes). Within one batch, a
// session's operations apply in body order; the kernel plane accepts the
// one hot pattern — an optional reward (closing the open decision)
// followed by an optional step (opening the next) — and demotes anything
// else about a session to the scalar path, so arbitrary batches remain
// correct, just not vectorized.
//
// Locking: operations are sorted by (slab ordinal, slot, body position)
// and processed one slab group at a time, acquiring session locks in
// slot order — a globally consistent order, so concurrent batches cannot
// deadlock — and holding them across the group's two kernel sweeps so
// each session's protocol check and kernel effect form one atomic unit.
// Every session lock taken under a group is released by a deferred
// unlock, keeping a panicking agent from stranding the whole shard.

// notFoundMsg is the canned per-op message for unknown or deleted
// sessions: canned so the kernel path never formats strings.
const notFoundMsg = "no such session"

// Kernel-plane ops sort by (slab ordinal, slot, body position), packed
// into one uint64 — ord in the top 40 bits, slot in 12, body index in 12
// — so the per-batch sort runs on plain integers with no comparator
// calls. MaxBatchOps caps the index at 12 bits and slab chunks hold at
// most 512 slots; a session whose chunk ordinal ever exceeded 40 bits
// (unreachable in practice) simply demotes to the scalar path.
const (
	opIdxBits   = 12
	opSlotBits  = 12
	opOrdShift  = opIdxBits + opSlotBits
	opIdxMask   = 1<<opIdxBits - 1
	maxPackable = 1 << (64 - opOrdShift)
)

func packOpKey(ord uint64, slot, idx int) uint64 {
	return ord<<opOrdShift | uint64(slot)<<opIdxBits | uint64(idx)
}

// runInfo is one kernel-eligible session's validated slice of a batch:
// at most one reward (applied first) and one step, by op index (-1 when
// absent). Built and consumed under the session's lock.
type runInfo struct {
	se   *Session
	rwOp int32
	stOp int32
}

// batchScratch is one request's working memory, pooled so a warm server
// serves /v1/batch without steady-state allocation.
type batchScratch struct {
	body     []byte
	ops      []batchOp
	res      []batchResult
	sess     []*Session
	shardOf  []int32
	counts   []int32
	order    []int32
	korder   []uint64
	direct   []int32
	locked   []*Session
	runs     []runInfo
	kslots   []int32
	krewards []float64
	kruns    []int32
	karms    []int32
	out      []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grown returns s resized to n elements, reusing its backing array when
// it is big enough. Contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readAll reads r to EOF into dst's backing array (appending from
// dst[:0]-style inputs), growing it only when the body outgrows the
// recycled capacity.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// protoResult converts a scalar-path error into a per-op result.
func protoResult(err error) batchResult {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return batchResult{kind: resError, code: pe.Code, msg: pe.Msg}
	}
	return batchResult{kind: resError, code: CodeInternal, msg: err.Error()}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)

	var err error
	sc.body, err = readAll(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return
	}
	sc.ops, err = parseBatch(sc.body, sc.ops[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return
	}

	s.runBatch(sc)

	sc.out = appendBatchResults(sc.out[:0], sc.res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out)
}

// runBatch resolves and executes sc.ops, filling sc.res one result per
// op in body order.
func (s *Server) runBatch(sc *batchScratch) {
	st := s.store
	ops := sc.ops
	n := len(ops)
	sc.res = grown(sc.res, n)
	res := sc.res
	for i := range res {
		res[i] = batchResult{}
	}
	if n == 0 {
		return
	}

	// Resolve sessions shard-grouped: a counting sort by shard index
	// lets each shard's read lock be taken once per batch instead of
	// once per op.
	sc.sess = grown(sc.sess, n)
	sess := sc.sess
	ns := len(st.shards)
	sc.counts = grown(sc.counts, ns)
	counts := sc.counts
	for i := range counts {
		counts[i] = 0
	}
	sc.shardOf = grown(sc.shardOf, n)
	for i := range ops {
		si := shardIndex(st, sc.body[ops[i].idOff:ops[i].idEnd])
		sc.shardOf[i] = int32(si)
		counts[si]++
	}
	sc.order = grown(sc.order, n)
	order := sc.order
	// counts becomes write cursors: after the scatter, counts[si] is the
	// end offset of shard si's bucket.
	cursor := int32(0)
	for i := range counts {
		c := counts[i]
		counts[i] = cursor
		cursor += c
	}
	for i := range ops {
		si := sc.shardOf[i]
		order[counts[si]] = int32(i)
		counts[si]++
	}
	lo := 0
	for si := 0; si < ns; si++ {
		hi := int(counts[si])
		if hi == lo {
			continue
		}
		sh := &st.shards[si]
		sh.mu.RLock()
		for _, oi := range order[lo:hi] {
			op := &ops[oi]
			sess[oi] = sh.m[string(sc.body[op.idOff:op.idEnd])]
		}
		sh.mu.RUnlock()
		lo = hi
	}

	// Partition: kernel-eligible ops sort into slab groups; everything
	// else (unknown ids answered here; fault-wrapped, meta, and fixed
	// sessions) goes to the scalar path.
	sc.korder = sc.korder[:0]
	sc.direct = sc.direct[:0]
	for i := 0; i < n; i++ {
		se := sess[i]
		switch {
		case se == nil:
			res[i] = batchResult{kind: resError, code: CodeNotFound, msg: notFoundMsg}
		case se.kernelOK && se.slabOrd < maxPackable && !ops[i].hasCtx:
			// Context-carrying ops always take the scalar path, so a ctx
			// sent to a non-contextual session gets the same bad_request
			// the scalar endpoint answers instead of being ignored.
			sc.korder = append(sc.korder, packOpKey(se.slabOrd, se.slot, i))
		default:
			sc.direct = append(sc.direct, int32(i))
		}
	}
	slices.Sort(sc.korder)

	for i := 0; i < len(sc.korder); {
		g := i
		ord := sc.korder[i] >> opOrdShift
		for i < len(sc.korder) && sc.korder[i]>>opOrdShift == ord {
			i++
		}
		s.runBatchGroup(sc, sc.korder[g:i])
	}

	// Scalar path, in body order (demotions above arrive out of order).
	slices.Sort(sc.direct)
	for _, oi := range sc.direct {
		op := &ops[oi]
		se := sess[oi]
		if op.kind == opStep {
			var ctxVec []float64
			if op.hasCtx {
				ctxVec = op.ctx[:]
			}
			seq, arm, err := se.StepWithContext(ctxVec)
			if err != nil {
				res[oi] = protoResult(err)
			} else {
				res[oi] = batchResult{kind: resStep, n: seq, arm: int32(arm)}
			}
		} else {
			steps, err := se.Reward(op.seq, op.reward)
			if err != nil {
				res[oi] = protoResult(err)
			} else {
				res[oi] = batchResult{kind: resReward, n: steps}
			}
		}
	}
}

// runBatchGroup executes one slab group: the ops in group all target
// kernel-eligible sessions in the same slab, pre-sorted by packed
// (slot, body position) key.
func (s *Server) runBatchGroup(sc *batchScratch, group []uint64) {
	ops, sess, res := sc.ops, sc.sess, sc.res
	slab := sess[group[0]&opIdxMask].slab

	sc.locked = sc.locked[:0]
	defer func() {
		for _, se := range sc.locked {
			se.mu.Unlock()
		}
	}()

	// Walk slot runs: lock each run's session (slot-ascending, the
	// global order), check the run is the kernel pattern, and demote
	// anything else to the scalar path.
	sc.runs = sc.runs[:0]
	for j := 0; j < len(group); {
		rs := j
		slot := group[j] >> opIdxBits // ord|slot prefix: ord is constant here
		for j < len(group) && group[j]>>opIdxBits == slot {
			j++
		}
		runOps := group[rs:j]
		op0 := int32(runOps[0] & opIdxMask)
		se := sess[op0]
		ok := true
		// A slot run spanning two session pointers means the slot was
		// freed and re-let mid-request; demote, the scalar path
		// re-resolves nothing and answers each op from its own session.
		for _, v := range runOps[1:] {
			if sess[v&opIdxMask] != se {
				ok = false
				break
			}
		}
		rw, st := int32(-1), int32(-1)
		if ok {
			switch {
			case len(runOps) == 1 && ops[op0].kind == opReward:
				rw = op0
			case len(runOps) == 1:
				st = op0
			case len(runOps) == 2 && ops[op0].kind == opReward && ops[runOps[1]&opIdxMask].kind == opStep:
				rw, st = op0, int32(runOps[1]&opIdxMask)
			default:
				ok = false
			}
		}
		if !ok {
			for _, v := range runOps {
				sc.direct = append(sc.direct, int32(v&opIdxMask))
			}
			continue
		}
		se.mu.Lock()
		sc.locked = append(sc.locked, se)
		if se.deleted {
			for _, v := range runOps {
				res[v&opIdxMask] = batchResult{kind: resError, code: CodeNotFound, msg: notFoundMsg}
			}
			continue
		}
		sc.runs = append(sc.runs, runInfo{se: se, rwOp: rw, stOp: st})
	}

	// Reward sweep: validate each run's reward against the protocol,
	// kernel-apply the valid ones, then commit their sequencing state.
	sc.kslots = sc.kslots[:0]
	sc.krewards = sc.krewards[:0]
	sc.kruns = sc.kruns[:0]
	for ri := range sc.runs {
		run := &sc.runs[ri]
		if run.rwOp < 0 {
			continue
		}
		op := &ops[run.rwOp]
		if err := run.se.lockedCheckReward(op.seq); err != nil {
			res[run.rwOp] = protoResult(err)
			continue
		}
		sc.kslots = append(sc.kslots, int32(run.se.slot))
		sc.krewards = append(sc.krewards, op.reward)
		sc.kruns = append(sc.kruns, int32(ri))
	}
	slab.RewardBatch(sc.kslots, sc.krewards)
	for _, ri := range sc.kruns {
		run := &sc.runs[ri]
		steps := run.se.lockedCommitReward()
		res[run.rwOp] = batchResult{kind: resReward, n: steps}
	}

	// Step sweep: checks run against post-reward state, so a session's
	// reward+step pair behaves exactly like the two scalar calls.
	sc.kslots = sc.kslots[:0]
	sc.kruns = sc.kruns[:0]
	for ri := range sc.runs {
		run := &sc.runs[ri]
		if run.stOp < 0 {
			continue
		}
		if err := run.se.lockedCheckStep(); err != nil {
			res[run.stOp] = protoResult(err)
			continue
		}
		sc.kslots = append(sc.kslots, int32(run.se.slot))
		sc.kruns = append(sc.kruns, int32(ri))
	}
	sc.karms = grown(sc.karms, len(sc.kslots))
	slab.StepBatch(sc.kslots, sc.karms)
	for i, ri := range sc.kruns {
		run := &sc.runs[ri]
		arm := sc.karms[i]
		seq := run.se.lockedCommitStep(int(arm))
		res[run.stOp] = batchResult{kind: resStep, n: seq, arm: arm}
	}
}
