package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// blocker parks one named job through the engine's jobStarted seam:
// the test learns exactly when that job is mid-flight (started closes)
// and decides when it may proceed into its computation (release).
type blocker struct {
	started chan struct{}
	release chan struct{}
}

func blockJob(t *testing.T, name string) blocker {
	b := blocker{started: make(chan struct{}), release: make(chan struct{})}
	setJobStarted(t, func(job Job) {
		if job.Name == name {
			close(b.started)
			<-b.release
		}
	})
	return b
}

// setJobStarted installs fn as the engine's jobStarted seam for the
// rest of the test.
func setJobStarted(t *testing.T, fn func(Job)) {
	jobStarted = fn
	t.Cleanup(func() { jobStarted = nil })
}

// TestRunBatchContextCancelMidBatch is the cancellation contract in one
// scenario: with one worker, job 0 completes, job 1 is parked after it
// started, and jobs 2+ wait their turn. Canceling then releasing the
// block must (a) return promptly, (b) keep job 0's result bit-identical
// to an uncancelled run's, (c) mark the mid-flight job 1 ErrCanceled,
// and (d) mark every unstarted job ErrCanceled without running it.
func TestRunBatchContextCancelMidBatch(t *testing.T) {
	block := blockJob(t, "mid-flight")
	jobs := []Job{
		{Name: "done", Graph: taskgraph.G2(), Deadline: 75},
		{Name: "mid-flight", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "unstarted-1", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "unstarted-2", Graph: taskgraph.G2(), Deadline: 55},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := Engine{Workers: 1}
	resc := make(chan []Result, 1)
	go func() { resc <- e.RunBatchContext(ctx, jobs) }()

	// Job 1 signals it has started — job 0 is already done (one
	// worker, in dispatch order) and jobs 2+ have not started.
	select {
	case <-block.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	cancel()
	close(block.release)

	var results []Result
	select {
	case results = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("RunBatchContext did not return promptly after cancel")
	}

	// (b) The completed job is exactly what an uncancelled run produces.
	want := RunBatch(jobs[:1], 1)[0]
	if results[0].Err != nil {
		t.Fatalf("completed job reported error %v", results[0].Err)
	}
	if !reflect.DeepEqual(want, results[0]) {
		t.Fatalf("completed job differs from uncancelled run:\nwant %+v\ngot  %+v", want, results[0])
	}

	// (c) and (d): everything else is ErrCanceled, with index and name
	// preserved so wire.Results can still line the batch up.
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, ErrCanceled) {
			t.Fatalf("job %d err = %v, want ErrCanceled", i, results[i].Err)
		}
		if results[i].Schedule != nil {
			t.Fatalf("job %d carries a schedule despite cancellation", i)
		}
		if results[i].Index != i || results[i].Name != jobs[i].Name {
			t.Fatalf("job %d lost its identity: %+v", i, results[i])
		}
	}
}

// TestRunBatchContextLiveCtxIdentical: with a context that never fires,
// RunBatchContext is RunBatch — byte-for-byte, for a mixed batch.
func TestRunBatchContextLiveCtxIdentical(t *testing.T) {
	jobs := []Job{
		{Name: "a", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "ms", Graph: taskgraph.G2(), Deadline: 55, Strategy: "multistart", MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 7}},
		{Name: "rv", Graph: taskgraph.G2(), Deadline: 75, Strategy: "rv-dp"},
		{Name: "bad", Graph: taskgraph.G2(), Deadline: 1},
	}
	want := RunBatch(jobs, 2)
	got := RunBatchContext(context.Background(), jobs, 2)
	for i := range want {
		if !reflect.DeepEqual(describeResult(want[i]), describeResult(got[i])) {
			t.Fatalf("job %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// describeResult normalizes error identity (fresh-but-equal error
// values) for comparison.
func describeResult(r Result) Result {
	if r.Err != nil {
		r.Err = errors.New(r.Err.Error())
	}
	return r
}

// TestJobTimeout: a per-job Timeout aborts only that job — it reports
// ErrCanceled with the deadline cause while the rest of the batch is
// untouched.
func TestJobTimeout(t *testing.T) {
	block := blockJob(t, "slow")
	jobs := []Job{
		{Name: "slow", Graph: taskgraph.G3(), Deadline: 230, Timeout: 20 * time.Millisecond},
		{Name: "fine", Graph: taskgraph.G2(), Deadline: 75},
	}
	e := Engine{Workers: 1}
	resc := make(chan []Result, 1)
	go func() { resc <- e.RunBatchContext(context.Background(), jobs) }()

	select {
	case <-block.started:
	case <-time.After(10 * time.Second):
		t.Fatal("slow job never started")
	}
	// Hold the job well past its 20ms budget, then let it observe the
	// expired context.
	time.Sleep(50 * time.Millisecond)
	close(block.release)

	var results []Result
	select {
	case results = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not finish")
	}
	if !errors.Is(results[0].Err, ErrCanceled) {
		t.Fatalf("timed-out job err = %v, want ErrCanceled", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "deadline") {
		t.Fatalf("timeout error should carry the deadline cause, got %q", results[0].Err)
	}
	if results[1].Err != nil || results[1].Schedule == nil {
		t.Fatalf("untimed job must complete normally: %+v", results[1])
	}
}
