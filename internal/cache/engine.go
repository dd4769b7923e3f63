package cache

import (
	"context"
	"runtime"

	"repro/internal/engine"
)

// Engine is the cached counterpart of engine.Engine: same worker-pool
// batch execution, same ordering and per-job-error guarantees, but
// every cacheable job is answered through the Cache — a repeat is a
// lookup, and identical jobs in flight at the same time (within one
// batch or across concurrent batches) compute once.
//
// A nil Cache degrades to pass-through execution, so callers can make
// caching a flag without branching.
type Engine struct {
	// Cache holds the results; nil disables caching.
	Cache *Cache
	// Workers bounds concurrent jobs; 0 means GOMAXPROCS(0).
	Workers int
	// Gate, when non-nil, globally bounds concurrent scheduling work
	// across every Run/RunBatch call sharing it — cache hits bypass it.
	// A server handling many requests, each with its own worker pool,
	// uses one shared Gate so total scheduling concurrency stays near
	// the gate's capacity instead of requests × Workers. A gated
	// computation holds exactly one slot and runs its multistart
	// restarts in sequence (overriding Job.MultiStart.Workers, which is
	// result-neutral), so the bound holds through the restart level too.
	Gate chan struct{}
}

// workers resolves the pool bound.
func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes one job through the cache and reports whether it was
// served without computing (stored hit or single-flight dedup). The
// result carries the job's Name and Index 0.
func (e *Engine) Run(job engine.Job) (engine.Result, bool) {
	return e.RunContext(context.Background(), job)
}

// RunContext is Run with request-scoped cancellation: a done ctx stops
// the computation at its next cooperative check (or skips it entirely,
// including the wait for a Gate slot) and yields an engine.ErrCanceled
// result. Cache hits still answer instantly — serving stored bytes
// costs nothing worth canceling.
func (e *Engine) RunContext(ctx context.Context, job engine.Job) (engine.Result, bool) {
	return e.RunKeyedContext(ctx, job, e.key(job))
}

// RunKeyedContext is RunContext for a caller that has already derived
// the job's cache key, so the job is hashed once per request: key must
// be what Key(job) returns — "" for a job Key reports uncacheable.
func (e *Engine) RunKeyedContext(ctx context.Context, job engine.Job, key string) (engine.Result, bool) {
	// Ungated, a lone job may fan its multistart restarts over the whole
	// pool, mirroring engine.RunBatch's bound-splitting for a one-job
	// batch.
	res, hit := e.run(ctx, job, key, e.workers())
	res.Index, res.Name = 0, job.Name
	return res, hit
}

// key is the job's cache key, or "" when the job is uncacheable or
// there is no cache to key into.
func (e *Engine) key(job engine.Job) string {
	if e.Cache == nil {
		return ""
	}
	key, _ := Key(job)
	return key
}

// RunBatch executes every job over the engine's pool and returns one
// result per job in input order, plus a parallel slice reporting which
// were served from cache. Output results are identical to
// engine.RunBatch's for any Workers value and any cache state — the
// pool and its bound-splitting live in engine.RunEach, shared by both.
func (e *Engine) RunBatch(jobs []engine.Job) ([]engine.Result, []bool) {
	return e.RunBatchContext(context.Background(), jobs)
}

// RunBatchContext is RunBatch with request-scoped cancellation,
// inheriting engine.RunBatchContext's contract: jobs the dispatcher
// never reached are marked engine.ErrCanceled without running,
// in-flight computations abort at their next cooperative check, and
// results that completed before the cancellation are bit-identical to
// an uncancelled run's.
func (e *Engine) RunBatchContext(ctx context.Context, jobs []engine.Job) ([]engine.Result, []bool) {
	results := make([]engine.Result, len(jobs))
	hits := make([]bool, len(jobs))
	for i := range results {
		results[i] = engine.Result{Index: i, Name: jobs[i].Name, Err: engine.ErrCanceled}
	}
	pool := engine.Engine{Workers: e.Workers}
	pool.RunEachContext(ctx, len(jobs), func(i, restartWorkers int) {
		res, hit := e.run(ctx, jobs[i], e.key(jobs[i]), restartWorkers)
		res.Index, res.Name = i, jobs[i].Name
		results[i], hits[i] = res, hit
	})
	return results, hits
}

// run executes one job: cache lookup/single-flight under key when the
// job is cacheable, direct engine execution otherwise (key "").
//
// The job's Timeout starts counting here — before the Gate wait and
// before any single-flight join — not just inside the engine. Timeout
// is excluded from the cache key, so a budgeted job can dedup onto a
// budget-free leader's computation; without this wrapping it would wait
// on that flight bounded only by the request context, ignoring its own
// timeout_ms contract.
func (e *Engine) run(ctx context.Context, job engine.Job, key string, restartWorkers int) (engine.Result, bool) {
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
		// The budget now lives in ctx; clear the field so the engine
		// underneath does not arm a second, never-firing timer per job.
		job.Timeout = 0
	}
	if e.Cache == nil {
		return e.compute(ctx, job, restartWorkers), false
	}
	if key == "" {
		e.Cache.bypasses.Add(1)
		return e.compute(ctx, job, restartWorkers), false
	}
	return e.Cache.DoContext(ctx, key, func() engine.Result {
		return e.compute(ctx, job, restartWorkers)
	})
}

// compute runs the job on the uncached engine as a one-job batch,
// pinning the multistart fan-out first so a single-job engine batch
// cannot collapse it to 1.
//
// Under a Gate, the computation blocks for one slot and runs its
// restarts sequentially on it, so total scheduling goroutines stay at
// cap(Gate) instead of requests × restartWorkers; restart fan-out is
// result-neutral (bit-identical for any Workers), so this changes
// wall-clock only. A request canceled while queued for its slot gives
// up with an engine.ErrCanceled result instead of holding its place in
// line.
func (e *Engine) compute(ctx context.Context, job engine.Job, restartWorkers int) engine.Result {
	if e.Gate != nil {
		select {
		case e.Gate <- struct{}{}:
		case <-ctx.Done():
			return engine.Result{Err: engine.CanceledError(ctx.Err())}
		}
		defer func() { <-e.Gate }()
		job.MultiStart.Workers = 1
	} else if job.MultiStart.Workers == 0 {
		job.MultiStart.Workers = restartWorkers
	}
	return engine.RunBatchContext(ctx, []engine.Job{job}, 1)[0]
}
