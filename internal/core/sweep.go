package core

import (
	"context"

	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// SweepRunner evaluates one graph + options across many deadlines while
// reusing every deadline-independent artifact: the SchedulerBase (battery
// model resolution, flat matrices, Energy Vector, reachability bitsets,
// pruned candidate lists, lower-bound analysis), one scratch arena, the
// memoized initial sequence (list scheduling by static weights — it does
// not depend on the deadline), and the result storage. A deadline sweep
// through it costs one NewBase plus O(1) setup per deadline, against
// full scheduler construction per deadline when calling New in a loop.
//
// Results are bit-identical to New(graph, deadline, opt) followed by
// Run, for every deadline (see TestSweepRunnerMatchesNew).
//
// Like Runner, a SweepRunner is one worker's arena: the Result returned
// by Run/RunContext is owned by the runner and overwritten by the next
// call, and a SweepRunner is not safe for concurrent use. Mint one per
// goroutine from a shared SchedulerBase (SchedulerBase.SweepRunner);
// the base itself is immutable and safe to share.
type SweepRunner struct {
	base    *SchedulerBase
	scr     *runScratch
	initSeq []int
	sched   sched.Schedule
	res     Result
}

// NewSweepRunner validates the graph and options once and returns a
// runner for sweeping deadlines over them.
func NewSweepRunner(g *taskgraph.Graph, opt Options) (*SweepRunner, error) {
	base, err := NewBase(g, opt)
	if err != nil {
		return nil, err
	}
	return base.SweepRunner(), nil
}

// SweepRunner mints a deadline-sweep runner over the shared base.
func (b *SchedulerBase) SweepRunner() *SweepRunner {
	s := &b.proto
	scr := s.newScratch()
	sr := &SweepRunner{base: b, scr: scr}
	// The initial sequence depends only on the graph and the initial
	// weight rule, never on the deadline — compute it once.
	sr.initSeq = append([]int(nil), s.initialSequenceInto(scr, scr.seqA)...)
	return sr
}

// Base returns the shared deadline-independent scheduler state.
func (sr *SweepRunner) Base() *SchedulerBase { return sr.base }

// Run executes the iterative algorithm for one deadline, reusing the
// runner's storage.
func (sr *SweepRunner) Run(deadline float64) (*Result, error) {
	return sr.RunContext(context.Background(), deadline)
}

// RunContext is Run with cooperative cancellation (see
// Scheduler.RunContext for the semantics).
func (sr *SweepRunner) RunContext(ctx context.Context, deadline float64) (*Result, error) {
	s, err := sr.base.Scheduler(deadline)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, sr.scr, append(sr.scr.seqA[:0], sr.initSeq...), true, &sr.sched, &sr.res)
}
