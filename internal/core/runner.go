package core

import (
	"context"

	"repro/internal/sched"
)

// Runner executes one Scheduler repeatedly while reusing every piece of
// mutable run state: the scratch arena, the result struct, the schedule's
// order slice and assignment map, and the profile used to derive duration
// and energy. After a warm-up run, the steady state allocates nothing
// (with Options.RecordTrace off — traces are per-run history and are
// allocated when requested).
//
// The Result returned by Run/RunContext is owned by the Runner and
// overwritten by the next call; callers that need to keep one must copy it
// (Result.Schedule.Clone for the schedule). A Runner is not safe for
// concurrent use — it is exactly one worker's arena. Create one Runner per
// goroutine; the Scheduler itself stays shared and immutable.
//
// Results are bit-identical to Scheduler.Run's for the same inputs.
type Runner struct {
	s     *Scheduler
	scr   *runScratch
	sched sched.Schedule
	res   Result
}

// NewRunner returns a Runner with a freshly sized arena for s.
func (s *Scheduler) NewRunner() *Runner {
	return &Runner{s: s, scr: s.newScratch()}
}

// Run executes the iterative algorithm, reusing the Runner's storage.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation (see
// Scheduler.RunContext for the semantics).
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	return r.s.run(ctx, r.scr, r.s.initialSequenceInto(r.scr, r.scr.seqA), true, &r.sched, &r.res)
}
