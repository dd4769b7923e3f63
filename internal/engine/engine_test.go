package engine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// paperJobs builds the six paper (graph, deadline) cells under the given
// strategy.
func paperJobs(strategy string) []Job {
	var jobs []Job
	for _, d := range taskgraph.G2Deadlines {
		jobs = append(jobs, Job{Name: "g2", Graph: taskgraph.G2(), Deadline: d, Strategy: strategy})
	}
	for _, d := range taskgraph.G3Deadlines {
		jobs = append(jobs, Job{Name: "g3", Graph: taskgraph.G3(), Deadline: d, Strategy: strategy})
	}
	return jobs
}

// TestRunBatchMatchesDirectRuns: batch results must equal running each
// job alone through core, for every worker count.
func TestRunBatchMatchesDirectRuns(t *testing.T) {
	jobs := paperJobs(StrategyIterative)
	want := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		s, err := core.New(j.Graph, j.Deadline, j.Options)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = s.Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		results := RunBatch(jobs, workers)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(jobs))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Index != i || r.Name != jobs[i].Name || r.Strategy != StrategyIterative {
				t.Fatalf("workers=%d job %d: bad echo %+v", workers, i, r)
			}
			if r.Cost != want[i].Cost || r.Duration != want[i].Duration || r.Iterations != want[i].Iterations {
				t.Fatalf("workers=%d job %d: cost/duration/iterations %v/%v/%d, want %v/%v/%d",
					workers, i, r.Cost, r.Duration, r.Iterations, want[i].Cost, want[i].Duration, want[i].Iterations)
			}
			if err := r.Schedule.ValidateDeadline(jobs[i].Graph, jobs[i].Deadline); err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, err)
			}
		}
	}
}

// TestRunBatchAllStrategies: every strategy produces a deadline-legal
// schedule on G3 at the paper deadline.
func TestRunBatchAllStrategies(t *testing.T) {
	g := taskgraph.G3()
	var jobs []Job
	for _, s := range Strategies() {
		jobs = append(jobs, Job{Name: s, Graph: g, Deadline: taskgraph.G3Deadline, Strategy: s})
	}
	for i, r := range RunBatch(jobs, 4) {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Strategy, r.Err)
		}
		if err := r.Schedule.ValidateDeadline(g, taskgraph.G3Deadline); err != nil {
			t.Fatalf("%s: %v", jobs[i].Strategy, err)
		}
		if r.Cost <= 0 || r.Duration <= 0 || r.Energy <= 0 {
			t.Fatalf("%s: non-positive stats %+v", jobs[i].Strategy, r)
		}
		if jobs[i].Strategy == StrategyWithIdle && r.Idle == nil {
			t.Fatalf("withidle: missing idle plan")
		}
	}
}

// TestRunBatchPerJobErrors: a bad job yields an error in its slot and
// leaves the rest of the batch intact.
func TestRunBatchPerJobErrors(t *testing.T) {
	g := taskgraph.G3()
	jobs := []Job{
		{Graph: g, Deadline: taskgraph.G3Deadline},
		{Graph: nil, Deadline: 100},
		{Graph: g, Deadline: 1}, // infeasible
		{Graph: g, Deadline: taskgraph.G3Deadline, Strategy: "no-such-algo"},
		{Graph: g, Deadline: taskgraph.G3Deadline, Strategy: "Multi-Start"}, // alias, case-insensitive
	}
	results := RunBatch(jobs, 3)
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", results[0].Err, results[4].Err)
	}
	if !errors.Is(results[1].Err, ErrNilGraph) {
		t.Fatalf("nil graph: got %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, core.ErrDeadlineInfeasible) {
		t.Fatalf("infeasible: got %v", results[2].Err)
	}
	if results[3].Err == nil || results[3].Schedule != nil {
		t.Fatalf("unknown strategy: got %+v", results[3])
	}
	if results[4].Strategy != StrategyMultiStart {
		t.Fatalf("alias not canonicalized: %q", results[4].Strategy)
	}
}

// TestRunBatchRecoversPanics: a job that panics mid-flight fails only
// itself.
func TestRunBatchRecoversPanics(t *testing.T) {
	setJobStarted(t, func(job Job) {
		if job.Name == "panic" {
			panic("boom")
		}
	})
	g := taskgraph.G3()
	jobs := []Job{
		{Name: "panic", Graph: g, Deadline: taskgraph.G3Deadline},
		{Graph: g, Deadline: taskgraph.G3Deadline},
	}
	results := RunBatch(jobs, 2)
	if results[0].Err == nil {
		t.Fatal("panicking job should fail")
	}
	if results[1].Err != nil {
		t.Fatalf("sibling job failed: %v", results[1].Err)
	}
}

// TestRunBatchEmpty: an empty batch returns an empty, non-nil slice path
// without spinning workers.
func TestRunBatchEmpty(t *testing.T) {
	if got := RunBatch(nil, 8); len(got) != 0 {
		t.Fatalf("want empty, got %d", len(got))
	}
}

// TestCanonicalStrategy covers the alias table and its error path.
func TestCanonicalStrategy(t *testing.T) {
	for in, want := range map[string]string{
		"":            StrategyIterative,
		"  Iterative": StrategyIterative,
		"multi-start": StrategyMultiStart,
		"RVDP":        StrategyRVDP,
		"idle":        StrategyWithIdle,
	} {
		got, err := CanonicalStrategy(in)
		if err != nil || got != want {
			t.Fatalf("CanonicalStrategy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := CanonicalStrategy("exhaustive"); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}
