package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"microbandit/internal/par"
)

// ErrorLog collects per-job failures from the experiment engine so
// runners can render partial results and the CLIs can print an error
// appendix instead of dying with a goroutine trace. It is safe for
// concurrent use; Drain returns failures sorted by job index so the
// appendix is deterministic regardless of completion order.
type ErrorLog struct {
	mu    sync.Mutex
	fails []JobFailure
}

// JobFailure is one failed experiment job.
type JobFailure struct {
	// Job is the failing job's index in its experiment's job list.
	Job int
	// Err is the failure; recovered panics are par.PanicErrors wrapped
	// in par.JobErrors.
	Err error
}

// NewErrorLog returns an empty log.
func NewErrorLog() *ErrorLog { return &ErrorLog{} }

// add records one failure (err is a *par.JobError from the engine).
func (l *ErrorLog) add(err error) {
	job := -1
	var je *par.JobError
	if errors.As(err, &je) {
		job = je.Index
	}
	l.mu.Lock()
	l.fails = append(l.fails, JobFailure{Job: job, Err: err})
	l.mu.Unlock()
}

// Len returns the number of recorded failures.
func (l *ErrorLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.fails)
}

// Drain returns the recorded failures sorted by job index and clears the
// log (the report CLI drains once per experiment).
func (l *ErrorLog) Drain() []JobFailure {
	l.mu.Lock()
	out := l.fails
	l.fails = nil
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// RenderFailures formats an error appendix for a drained failure list.
// It returns "" for an empty list. The appendix is one failure per line:
// an error whose text embeds newlines (panic values are arbitrary
// strings) is rendered in its quoted Go form so it cannot masquerade as
// additional appendix entries.
func RenderFailures(fails []JobFailure) string {
	if len(fails) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "error appendix: %d job(s) failed; results above are partial\n", len(fails))
	for _, f := range fails {
		msg := f.Err.Error()
		if strings.ContainsAny(msg, "\n\r") {
			msg = fmt.Sprintf("%q", msg)
		}
		fmt.Fprintf(&b, "  %s\n", msg)
	}
	return b.String()
}
