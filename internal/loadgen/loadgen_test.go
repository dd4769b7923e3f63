package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// newTarget stands up a real battschedd handler stack over HTTP — the
// harness is client-shaped, so its tests exercise the wire, not mocks.
func newTarget(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func baseSpec() JobSpec {
	return JobSpec{Fixture: "g3", DeadlineMin: 100, DeadlineMax: 230}
}

// TestRunPoll: a closed-loop poll-mode run against a live server holds
// the serving contract — all jobs done, none lost, none doubled.
func TestRunPoll(t *testing.T) {
	base := newTarget(t, server.Config{})
	spec := baseSpec()
	spec.DupEvery = 5
	spec.Priorities = []PriorityWeight{{0, 3}, {5, 2}, {9, 1}}
	res, err := Run(context.Background(), Config{
		BaseURL:        base,
		Mode:           ModePoll,
		Jobs:           80,
		Concurrency:    16,
		VerifyTerminal: true,
		NewJob:         spec.Job,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Done != 80 || res.Accepted != 80 || res.DoneWithError != 0 {
		t.Fatalf("done=%d accepted=%d doneWithError=%d, want 80/80/0", res.Done, res.Accepted, res.DoneWithError)
	}
	if res.ThroughputJPS <= 0 || res.E2E.Count != 80 || res.Polls == 0 {
		t.Fatalf("missing measurements: jps=%v e2eCount=%d polls=%d", res.ThroughputJPS, res.E2E.Count, res.Polls)
	}
	if res.E2E.P99MS < res.E2E.P50MS || res.E2E.MaxMS < res.E2E.P99MS {
		t.Fatalf("quantiles out of order: %+v", res.E2E)
	}
}

// TestRunStream: stream mode delivers exactly one terminal line per job.
func TestRunStream(t *testing.T) {
	base := newTarget(t, server.Config{})
	spec := baseSpec()
	res, err := Run(context.Background(), Config{
		BaseURL:        base,
		Mode:           ModeStream,
		Jobs:           40,
		Concurrency:    8,
		VerifyTerminal: true,
		NewJob:         spec.Job,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Done != 40 || res.Polls == 0 {
		// Polls > 0: the verify re-poll still runs in stream mode.
		t.Fatalf("done=%d polls=%d, want 40 and >0", res.Done, res.Polls)
	}
}

// TestRunSLOViolation: an unmeetable SLO is reported as a violation,
// not an error — the run itself stays healthy.
func TestRunSLOViolation(t *testing.T) {
	base := newTarget(t, server.Config{})
	spec := baseSpec()
	res, err := Run(context.Background(), Config{
		BaseURL:     base,
		Jobs:        10,
		Concurrency: 4,
		NewJob:      spec.Job,
		SLO:         &SLO{E2EP99: time.Nanosecond, MaxErrorRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "e2e p99") {
		t.Fatalf("violations = %q, want exactly the e2e clause", res.Violations)
	}
}

// TestRunBackpressure: a one-slot queue under a burst rejects with 429;
// with retries disabled the rejections are final, and the accounting
// still closes (attempted = accepted + rejectedFinal + errors).
func TestRunBackpressure(t *testing.T) {
	base := newTarget(t, server.Config{MaxQueued: 1, QueueWorkers: 1, Workers: 1})
	res, err := Run(context.Background(), Config{
		BaseURL:     base,
		Jobs:        24,
		Concurrency: 12,
		NoRetry429:  true,
		NewJob: func(i int) wire.Job {
			// Slow, distinct jobs so the queue actually fills.
			return wire.Job{Fixture: "g3", Deadline: 230, Strategy: "multistart",
				Restarts: 3000, Seed: int64(i + 1)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 || res.RejectedFinal != res.Rejected {
		t.Fatalf("rejected=%d final=%d, want >0 and equal (NoRetry429)", res.Rejected, res.RejectedFinal)
	}
	if got := res.Accepted + res.RejectedFinal + res.Errors; got != res.Attempted {
		t.Fatalf("submission accounting leaks: attempted=%d but accepted+rejectedFinal+errors=%d", res.Attempted, got)
	}
}

// TestRunResilientThroughFaults: with the retrying client underneath,
// a run whose transport periodically resets connections and injects a
// synthesized 503 still completes every job, byte-identically — the
// chaos-mode contract in miniature.
func TestRunResilientThroughFaults(t *testing.T) {
	base := newTarget(t, server.Config{})
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpRoundTrip, Every: 9, Err: syscall.ECONNRESET},
		fault.Rule{Op: fault.OpRoundTrip, Nth: 5, Status: 503})
	spec := baseSpec()
	spec.DupEvery = 4 // duplicate IDs so VerifyBytes has re-observations
	res, err := Run(context.Background(), Config{
		BaseURL:          base,
		Client:           &http.Client{Transport: &fault.Transport{Injector: in}},
		Jobs:             60,
		Concurrency:      12,
		Resilient:        true,
		ResilientBackoff: time.Millisecond,
		VerifyTerminal:   true,
		VerifyBytes:      true,
		NewJob:           spec.Job,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Done != 60 || res.Lost != 0 || res.ByteMismatch != 0 {
		t.Fatalf("done=%d lost=%d byteMismatch=%d, want 60/0/0", res.Done, res.Lost, res.ByteMismatch)
	}
	if in.Injected() == 0 {
		t.Fatal("no faults injected — the chaos leg tested nothing")
	}
	if res.Client == nil || res.Client.Retries == 0 {
		t.Fatalf("client stats = %+v, want retries > 0 (faults were absorbed, not avoided)", res.Client)
	}
}

// TestRunResilientResubmitsOn404: a job the server forgets between
// polls (retention ageout, or a restart that wiped the in-memory queue)
// is resubmitted under its content address instead of being lost. The
// stub answers every poll 404 and every resubmission terminal, so each
// job takes exactly one resubmit.
func TestRunResilientResubmitsOn404(t *testing.T) {
	var polled sync.Map // job id -> a poll has 404'd it
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var job wire.Job
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st := wire.JobStatus{ID: strconv.FormatFloat(job.Deadline, 'g', -1, 64), State: wire.StateQueued}
		if _, resubmit := polled.Load(st.ID); resubmit {
			st.State = wire.StateDone
			st.Result = &wire.Result{Cost: job.Deadline, Order: []int{0}, Assignment: map[int]int{0: 0}}
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusAccepted)
		}
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		polled.Store(r.PathValue("id"), true)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job id"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:          ts.URL,
		Jobs:             8,
		Concurrency:      4,
		Resilient:        true,
		ResilientBackoff: time.Millisecond,
		VerifyTerminal:   true,
		VerifyBytes:      true,
		NewJob:           baseSpec().Job,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Done != int64(res.Jobs) || res.Lost != 0 {
		t.Fatalf("done=%d lost=%d, want %d/0", res.Done, res.Lost, res.Jobs)
	}
	if res.Resubmits < 1 {
		t.Fatalf("resubmits = %d, want >= 1 (every poll answered 404)", res.Resubmits)
	}
}

// TestRunOpenLoop: a paced run cannot finish faster than its arrival
// rate allows.
func TestRunOpenLoop(t *testing.T) {
	base := newTarget(t, server.Config{})
	spec := baseSpec()
	begin := time.Now()
	res, err := Run(context.Background(), Config{
		BaseURL:     base,
		Jobs:        30,
		Concurrency: 8,
		Rate:        200, // 30 jobs at 200/s ≥ 145ms of pacing
		NewJob:      spec.Job,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed < 100*time.Millisecond {
		t.Fatalf("open-loop run finished in %v, faster than the 200/s pace allows", elapsed)
	}
}

// TestRunConfigErrors: unusable configuration is an error, not a run.
func TestRunConfigErrors(t *testing.T) {
	spec := baseSpec()
	cases := []Config{
		{Jobs: 1, Concurrency: 1, NewJob: spec.Job},                                        // no BaseURL
		{BaseURL: "http://x", Jobs: 1, Concurrency: 1},                                     // no NewJob
		{BaseURL: "http://x", Jobs: 0, Concurrency: 1, NewJob: spec.Job},                   // no jobs
		{BaseURL: "http://x", Jobs: 1, Concurrency: 1, NewJob: spec.Job, Mode: Mode("ws")}, // bad mode
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("case %d: config error not reported", i)
		}
	}
}

// TestParsePriorityMix covers the battload flag syntax.
func TestParsePriorityMix(t *testing.T) {
	mix, err := ParsePriorityMix("0:7,5:2,9:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []PriorityWeight{{0, 7}, {5, 2}, {9, 1}}
	if len(mix) != len(want) {
		t.Fatalf("mix = %+v", mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("mix[%d] = %+v, want %+v", i, mix[i], want[i])
		}
	}
	if mix, err = ParsePriorityMix("  "); err != nil || len(mix) != 1 || mix[0] != (PriorityWeight{0, 1}) {
		t.Fatalf("empty mix: %+v, %v", mix, err)
	}
	for _, bad := range []string{"5", "x:1", "5:x", "-1:1", "10:1", "5:0", "5:-2"} {
		if _, err := ParsePriorityMix(bad); err == nil {
			t.Fatalf("mix %q accepted", bad)
		}
	}
}

// TestJobSpecDeterminism: the generator is a pure function of the index
// — the repo's determinism culture extends to load runs.
func TestJobSpecDeterminism(t *testing.T) {
	spec := baseSpec()
	spec.DupEvery = 4
	spec.Priorities = []PriorityWeight{{0, 2}, {9, 1}}
	spec.TTLMS = 60000
	seen := map[float64]bool{}
	for i := 0; i < 64; i++ {
		a, b := spec.Job(i), spec.Job(i)
		if a != b {
			t.Fatalf("Job(%d) not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Deadline < spec.DeadlineMin || a.Deadline > spec.DeadlineMax {
			t.Fatalf("Job(%d) deadline %v outside [%v, %v]", i, a.Deadline, spec.DeadlineMin, spec.DeadlineMax)
		}
		if a.TTLMS != 60000 {
			t.Fatalf("Job(%d) ttl = %d", i, a.TTLMS)
		}
		seen[a.Deadline] = true
	}
	// DupEvery=4: indexes 3,7,11,... repeat their predecessor, so 64
	// submissions carry 48 distinct deadlines.
	if len(seen) != 48 {
		t.Fatalf("distinct deadlines = %d, want 48", len(seen))
	}
	if d3, d2 := spec.Job(3).Deadline, spec.Job(2).Deadline; d3 != d2 {
		t.Fatalf("dup index 3 deadline %v != predecessor %v", d3, d2)
	}
	// Priority mix 2:1 over a cycle of 3.
	if p := [3]int{spec.Job(0).Priority, spec.Job(1).Priority, spec.Job(2).Priority}; p != [3]int{0, 0, 9} {
		t.Fatalf("priority cycle = %v, want [0 0 9]", p)
	}
}
