package core

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/sched"
)

// This file adds multi-start search over randomized initial sequences, an
// engineering extension around the paper's algorithm: the algorithm is
// greedy in its first sequence, and restarts recover some of the gap to
// heavier searches at a controlled cost.

// DefaultRestarts is the restart count used when
// MultiStartOptions.Restarts is zero or negative.
const DefaultRestarts = 8

// MultiStartOptions configures RunMultiStart.
type MultiStartOptions struct {
	// Restarts is the number of additional runs from randomized
	// initial sequences (default DefaultRestarts). The deterministic
	// paper run is always included, so the result can never be worse
	// than Run's.
	Restarts int
	// Seed makes the randomized starts reproducible.
	Seed int64
	// Workers bounds how many restarts run concurrently. 0 or 1 keeps
	// the sequential path; larger values fan the restarts out over
	// goroutines sharing the (read-only during a run) Scheduler and
	// its stateless battery model. Every restart carries its own
	// scratch arena, so workers share no mutable state. The result is
	// bit-identical for every Workers value: the restart weight vectors
	// are pre-drawn from one RNG stream and the winner is reduced over
	// seed index, never completion order.
	Workers int
}

// RunMultiStart runs the paper's algorithm once from its deterministic
// initial sequence and again from `Restarts` random topological orders,
// returning the best result. Randomization perturbs only the initial
// list-scheduling weights; everything downstream is the unmodified
// algorithm.
func RunMultiStart(s *Scheduler, opts MultiStartOptions) (*Result, error) {
	return RunMultiStartContext(context.Background(), s, opts)
}

// RunMultiStartContext is RunMultiStart with cooperative cancellation:
// ctx is checked between restarts (and inside each restart's window
// evaluation), so a multi-start search stops promptly mid-restart once
// the caller gives up. On cancellation it returns ctx.Err() and no
// partial best; a search that completes is bit-identical to
// RunMultiStart's for every Workers value.
func RunMultiStartContext(ctx context.Context, s *Scheduler, opts MultiStartOptions) (*Result, error) {
	if opts.Restarts <= 0 {
		opts.Restarts = DefaultRestarts
	}
	// Pre-draw every restart's weight vector from a single stream so the
	// restart set does not depend on Workers or on goroutine timing.
	rng := rand.New(rand.NewSource(opts.Seed))
	weights := make([][]float64, opts.Restarts)
	for r := range weights {
		w := make([]float64, s.n)
		for i := range w {
			w[i] = rng.Float64()
		}
		weights[r] = w
	}

	if opts.Workers <= 1 {
		best, err := s.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		for _, w := range weights {
			res, err := s.runFromContext(ctx, s.listSchedule(w))
			if err != nil {
				return nil, err
			}
			if res.Cost < best.Cost {
				best = res
			}
		}
		return best, nil
	}

	// Slot 0 is the deterministic run; slot r+1 is restart r. All runs
	// share s, which is immutable while running — every run owns a
	// scratch arena for its mutable state (sequences, best-so-far, the
	// DPF escalation buffers).
	results := make([]*Result, opts.Restarts+1)
	errs := make([]error, opts.Restarts+1)
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	for slot := 0; slot < len(results); slot++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(slot int) {
			defer func() { <-sem; wg.Done() }()
			if slot == 0 {
				results[0], errs[0] = s.RunContext(ctx)
				return
			}
			results[slot], errs[slot] = s.runFromContext(ctx, s.listSchedule(weights[slot-1]))
		}(slot)
	}
	wg.Wait()
	// Cancellation first: once ctx is done some slots hold ctx errors in
	// nondeterministic positions, so report the cancellation itself
	// rather than whichever slot happened to observe it first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Deterministic reduction: first error by slot, else first
	// strict improvement by slot — exactly the sequential loop's
	// selection.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	best := results[0]
	for _, res := range results[1:] {
		if res.Cost < best.Cost {
			best = res
		}
	}
	return best, nil
}

// runFromContext executes the iterative loop starting from an explicit
// initial sequence (dense indices) instead of SequenceDecEnergy's, with
// its own scratch arena and result storage. Restarts record no trace.
func (s *Scheduler) runFromContext(ctx context.Context, initial []int) (*Result, error) {
	scr := s.newScratch()
	return s.run(ctx, scr, append(scr.seqA[:0], initial...), false, new(sched.Schedule), new(Result))
}
