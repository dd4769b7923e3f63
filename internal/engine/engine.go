// Package engine executes batches of scheduling jobs over a bounded
// worker pool. It is the throughput layer of the reproduction: the
// paper's algorithm schedules one graph against one deadline, while a
// production host receives a stream of independent (graph, deadline,
// strategy) jobs and wants them finished as fast as the cores allow.
//
// Jobs are independent, so the engine fans them out across Workers
// goroutines; results come back in input order with per-job errors —
// one malformed or infeasible job never fails the batch. Inside a
// multi-start job the restarts themselves run concurrently (see
// core.MultiStartOptions.Workers); when a job leaves that fan-out
// unset the engine splits its worker bound between the two levels, so
// total concurrency stays near the bound for any batch shape. Workers
// share nothing mutable: every run in core carries its own scratch
// arena (see internal/core's runScratch), so per-job results are
// bit-identical for every pool size.
//
//battlint:deterministic
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Job is one scheduling request: a graph, a deadline and a strategy.
type Job struct {
	// Name optionally labels the job; it is echoed in the Result.
	Name string
	// Graph is the task graph to schedule (required).
	Graph *taskgraph.Graph
	// Deadline is the completion deadline in minutes (required, > 0).
	Deadline float64
	// Strategy selects the algorithm; "" means StrategyIterative. See
	// Strategies for the accepted names.
	Strategy string
	// Options configures the iterative strategies (the zero value is
	// the paper's configuration) and supplies the battery model used
	// to cost baseline schedules.
	Options core.Options
	// MultiStart configures StrategyMultiStart. A zero Workers shares
	// the engine's bound with the job level (a lone job fans its
	// restarts over the whole pool; a full batch keeps them
	// sequential), so total concurrency never exceeds roughly the
	// engine bound.
	MultiStart core.MultiStartOptions
	// Timeout bounds this job's computation once it starts (0 = none).
	// A job that exceeds it fails with ErrCanceled; jobs that finish in
	// time are unaffected, so Timeout is result-neutral for completed
	// work and excluded from cache keys.
	Timeout time.Duration
}

// Result is the outcome of one Job. Exactly one of Schedule/Err is nil.
type Result struct {
	// Index is the job's position in the input batch.
	Index int
	// Name echoes Job.Name.
	Name string
	// Strategy is the canonical strategy name that ran.
	Strategy string
	// Schedule is the schedule found (nil on error).
	Schedule *sched.Schedule
	// Cost is sigma at completion under the job's battery model, mA·min.
	Cost float64
	// Duration is the schedule completion time, minutes.
	Duration float64
	// Energy is the delivered charge, mA·min.
	Energy float64
	// Iterations is the outer-loop iteration count (iterative
	// strategies only).
	Iterations int
	// Idle is the recovery-rest plan (StrategyWithIdle only).
	Idle *core.IdlePlan
	// Err is the per-job failure, nil on success.
	Err error
}

// Engine runs batches over a bounded worker pool. The zero value is
// ready to use and bounds the pool at GOMAXPROCS.
type Engine struct {
	// Workers bounds concurrent jobs; 0 means GOMAXPROCS(0).
	Workers int
}

// ErrNilGraph is returned for jobs without a graph.
var ErrNilGraph = errors.New("engine: job has a nil graph")

// ErrCanceled marks a job that did not complete because its context was
// canceled or its Timeout fired — whether it never started or was
// aborted mid-search. Match it with errors.Is; the error text carries
// the underlying context error when the job was aborted mid-run, so a
// disconnect ("context canceled") and a timeout ("context deadline
// exceeded") stay distinguishable.
var ErrCanceled = errors.New("engine: job canceled")

// CanceledError wraps a context's cause under ErrCanceled — the one
// shape every layer reports cancellation in, so front ends can rely on
// errors.Is(err, ErrCanceled) and a stable message format.
func CanceledError(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %v", ErrCanceled, cause)
}

// isContextErr reports whether err came from a canceled or expired
// context (directly or wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// workers resolves the pool bound.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunBatch executes every job and returns one Result per job, in input
// order. Job failures (bad strategy, infeasible deadline, nil graph, a
// panicking model) land in Result.Err; RunBatch itself never fails.
func RunBatch(jobs []Job, workers int) []Result {
	e := Engine{Workers: workers}
	return e.RunBatch(jobs)
}

// RunBatchContext is RunBatch with request-scoped cancellation; see
// Engine.RunBatchContext.
func RunBatchContext(ctx context.Context, jobs []Job, workers int) []Result {
	e := Engine{Workers: workers}
	return e.RunBatchContext(ctx, jobs)
}

// RunBatch executes every job over the engine's pool and returns one
// Result per job, in input order.
func (e *Engine) RunBatch(jobs []Job) []Result {
	return e.RunBatchContext(context.Background(), jobs)
}

// RunBatchContext executes the batch until done or ctx is canceled.
// Cancellation is cooperative and prompt: jobs not yet started are
// marked ErrCanceled without running, and in-flight iterative searches
// abort at their next window-evaluation check, also landing on
// ErrCanceled. Jobs that completed before the cancellation keep their
// results, bit-identical to an uncancelled run's — cancellation never
// changes what finished, only how much finishes.
func (e *Engine) RunBatchContext(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	for i := range results {
		// Pre-mark every slot canceled; dispatched jobs overwrite
		// theirs (possibly with the same error, via their own ctx
		// check), so whatever the dispatcher never reached reports
		// ErrCanceled instead of a zero value.
		results[i] = Result{Index: i, Name: jobs[i].Name, Err: ErrCanceled}
	}
	e.RunEachContext(ctx, len(jobs), func(i, restartWorkers int) {
		results[i] = e.runJob(ctx, i, jobs[i], restartWorkers)
	})
	return results
}

// RunEach runs fn(i, restartWorkers) for every i in [0, n) over the
// engine's bounded pool. It owns the pool arithmetic every batch runner
// must agree on — exported so the cached engine (internal/cache) shares
// it instead of copying it:
//
// Multistart jobs that did not pin their own restart fan-out share the
// engine bound with the job level — restartWorkers is bound/workers, so
// a lone job gets the whole pool for its restarts while a full batch
// keeps restarts sequential, and total concurrency stays ~bound instead
// of bound².
func (e *Engine) RunEach(n int, fn func(i, restartWorkers int)) {
	e.RunEachContext(context.Background(), n, fn)
}

// RunEachContext is RunEach with request-scoped cancellation: once ctx
// is done the dispatcher stops handing out indices, so fn never starts
// for the remaining i (the caller decides what an undispatched slot
// means — the batch runners mark it ErrCanceled). Indices already
// dispatched run fn to completion; fn observes the same ctx and is
// expected to cut its own work short.
func (e *Engine) RunEachContext(ctx context.Context, n int, fn func(i, restartWorkers int)) {
	bound := e.workers()
	workers := bound
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	restartWorkers := bound / workers
	if restartWorkers < 1 {
		restartWorkers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i, restartWorkers)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-done:
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// jobStarted, when non-nil, is called by runJob for every job that
// starts, inside its recover scope and once its timeout context is
// armed. It is a test seam for parking, timing out or panicking one job
// mid-batch; production code never sets it.
var jobStarted func(job Job)

// runJob executes one job, converting panics into per-job errors so a
// bug in one job's computation cannot take the batch down, and context
// errors into ErrCanceled so front ends report cancellation distinctly
// from scheduling failures.
func (e *Engine) runJob(ctx context.Context, i int, job Job, restartWorkers int) (res Result) {
	res = Result{Index: i, Name: job.Name}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("engine: job %d panicked: %v", i, r)
			res.Schedule = nil
		}
	}()
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		// Dispatched in the same instant the batch was canceled.
		res.Err = CanceledError(err)
		return res
	}
	if jobStarted != nil {
		jobStarted(job)
	}
	strategy, err := CanonicalStrategy(job.Strategy)
	if err != nil {
		res.Err = err
		return res
	}
	res.Strategy = strategy
	if job.Graph == nil {
		res.Err = ErrNilGraph
		return res
	}
	res.Err = e.execute(ctx, strategy, job, &res, restartWorkers)
	if res.Err != nil {
		if isContextErr(res.Err) {
			res.Err = CanceledError(res.Err)
		}
		res.Schedule = nil
	}
	return res
}
