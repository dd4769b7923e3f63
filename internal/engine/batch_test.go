package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// TestBatchMatchesSoloRuns proves batching is result-neutral: a deadline
// sweep over one shared *Graph run as one batch is bit-identical to
// running each job alone in a one-job batch, across strategies and
// worker counts.
func TestBatchMatchesSoloRuns(t *testing.T) {
	g := taskgraph.G3()
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	var jobs []Job
	for i := 0; i <= 10; i++ {
		d := lo + float64(i)/10*(hi-lo)
		jobs = append(jobs,
			Job{Graph: g, Deadline: d, Strategy: StrategyIterative},
			Job{Graph: g, Deadline: d, Strategy: StrategyWithIdle},
			Job{Graph: g, Deadline: d, Strategy: StrategyMultiStart,
				MultiStart: core.MultiStartOptions{Restarts: 2, Seed: 7}},
		)
	}
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		e := Engine{Workers: 1}
		want[i] = e.RunBatch([]Job{j})[0]
	}
	for _, workers := range []int{1, 4} {
		for i, r := range RunBatch(jobs, workers) {
			if (r.Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d job %d: err %v, want %v", workers, i, r.Err, want[i].Err)
			}
			if r.Err != nil {
				continue
			}
			if math.Float64bits(r.Cost) != math.Float64bits(want[i].Cost) ||
				math.Float64bits(r.Duration) != math.Float64bits(want[i].Duration) ||
				math.Float64bits(r.Energy) != math.Float64bits(want[i].Energy) ||
				r.Iterations != want[i].Iterations {
				t.Fatalf("workers=%d job %d (%s d=%g): batch result %v/%v/%v/%d != solo %v/%v/%v/%d",
					workers, i, jobs[i].Strategy, jobs[i].Deadline,
					r.Cost, r.Duration, r.Energy, r.Iterations,
					want[i].Cost, want[i].Duration, want[i].Energy, want[i].Iterations)
			}
		}
	}
}
