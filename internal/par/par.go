// Package par is the experiment harness's parallel engine: a bounded
// worker pool that fans independent simulation runs out across goroutines
// and assembles their results in deterministic input order.
//
// Every simulation run in this repo owns its state (xrand.Rand,
// cpu.Runner, mem.Hier are all constructed per run and never shared), so
// runs are embarrassingly parallel; the only requirement for byte-identical
// output at any worker count is that result assembly ignores completion
// order. Run guarantees that: results[i] always corresponds to jobs[i].
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default pool size: one worker per usable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run applies fn to every job on a pool of at most workers goroutines and
// returns the results in input order (results[i] = fn(jobs[i])).
//
// workers <= 0 selects DefaultWorkers; workers == 1 (or a single job)
// runs inline with no goroutines, so a serial run has no scheduling
// overhead and is byte-identical to a parallel one by construction. fn
// must not share mutable state across jobs.
func Run[J, R any](workers int, jobs []J, fn func(J) R) []R {
	if len(jobs) == 0 {
		return nil
	}
	out := make([]R, len(jobs))
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			out[i] = fn(jobs[i])
		}
		return out
	}
	// Work-stealing via an atomic cursor: jobs vary wildly in cost (a
	// static-arm run vs a 4-core mix), so dynamic assignment beats
	// striding.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = fn(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Do runs the tasks on a pool of at most workers goroutines. Each task
// must write only to state it owns (typically a pre-allocated result
// slot).
func Do(workers int, tasks []func()) {
	Run(workers, tasks, func(t func()) struct{} {
		t()
		return struct{}{}
	})
}

// ---------------------------------------------------------------------
// Hardened variant: per-job errors, panic recovery, cancellation.
//
// Run is the fast path for jobs that cannot fail; a panicking job there
// crashes the process from whichever goroutine hit it, with no job
// attribution. The experiment harness and the CLIs use RunCtx instead: a
// failing or panicking job becomes a *JobError carrying the job index and
// the original error or panic value, the other jobs keep running, and the
// caller renders partial results plus an error appendix rather than a
// bare goroutine trace.

// PanicError is a recovered job panic: the original panic value plus the
// goroutine stack captured at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// JobError attributes a failure to one job of a RunCtx batch.
type JobError struct {
	// Index is the failing job's position in the input slice.
	Index int
	// Err is the job's error; a recovered panic is a *PanicError.
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap implements the errors.Unwrap protocol.
func (e *JobError) Unwrap() error { return e.Err }

// safeCall invokes fn, converting a panic into a *PanicError. A job whose
// ctx is already done does not start and fails with ctx's error.
func safeCall[J, R any](ctx context.Context, fn func(context.Context, J) (R, error), j J) (r R, err error) {
	if err := ctx.Err(); err != nil {
		return r, err
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, j)
}

// RunCtx is Run for fallible, cancellable jobs: it applies fn to every
// job on a pool of at most workers goroutines and returns results and
// errors in input order (errs[i] is nil iff jobs[i] succeeded; otherwise
// it is a *JobError and results[i] is the zero value). A panicking fn is
// recovered on both the serial and pooled paths and reported as a
// *JobError wrapping a *PanicError, so no job can crash the process or
// take down its siblings. Running jobs receive ctx; once it is
// cancelled, jobs that have not started fail fast with ctx's error. The
// ordering and determinism contract of Run is unchanged.
func RunCtx[J, R any](ctx context.Context, workers int, jobs []J, fn func(context.Context, J) (R, error)) (results []R, errs []error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	results = make([]R, len(jobs))
	errs = make([]error, len(jobs))
	tasks := make([]func(), len(jobs))
	for i := range jobs {
		tasks[i] = func() {
			r, err := safeCall(ctx, fn, jobs[i])
			if err != nil {
				errs[i] = &JobError{Index: i, Err: err}
				return
			}
			results[i] = r
		}
	}
	Do(workers, tasks)
	return results, errs
}
