package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// heldOut is a seed no workload was tuned on; it must produce the same
// workload shapes as the seeds that were.
const heldOut = 424242

// positions lists the warm-up and first timed positions of w.
func positions(w *workload, timed int) []request {
	var out []request
	for pos := 0; pos < w.warmN+timed; pos++ {
		out = append(out, w.next(pos))
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 7)
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		ra, rb, rc := positions(a, 24), positions(b, 24), positions(c, 24)
		differs := false
		for i := range ra {
			if ra[i].path != rb[i].path || !bytes.Equal(ra[i].body, rb[i].body) {
				t.Fatalf("%s position %d: same seed, different request", name, i)
			}
			differs = differs || !bytes.Equal(ra[i].body, rc[i].body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generate identical requests", name)
		}
	}
}

// TestGraphJobMatchesWireEncoding pins the spliced job lines to what
// encoding a wire.Job produces.
func TestGraphJobMatchesWireEncoding(t *testing.T) {
	req := batchBody(3, 1)
	for i, line := range jobLines(req) {
		spec := req.jobs[i].graph.ToSpec("sweep-1")
		want := mustJSON(wire.Job{Graph: &spec, Deadline: req.jobs[i].deadline})
		if !bytes.Equal(line, want) {
			t.Fatalf("line %d:\n got %s\nwant %s", i, line, want)
		}
	}
}

// keyOf decodes one job line the way the server does and returns its
// cache key.
func keyOf(t *testing.T, line []byte) string {
	t.Helper()
	job, err := wire.DecodeJob(line)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := job.ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	key, ok := cache.Key(ej)
	if !ok {
		t.Fatal("job has no cache key")
	}
	return key
}

func TestBatchSweepColdNeverRepeatsAKey(t *testing.T) {
	for _, seed := range []int64{1, heldOut} {
		w, _ := newWorkload("batch-sweep-cold", seed)
		seen := map[string]int{}
		for pos, req := range positions(w, 30) {
			for _, line := range jobLines(req) {
				key := keyOf(t, line)
				if prev, ok := seen[key]; ok {
					t.Fatalf("seed %d: position %d repeats the key of position %d", seed, pos, prev)
				}
				seen[key] = pos
			}
		}
	}
}

func TestAsyncRestartMixIsExact(t *testing.T) {
	for _, seed := range []int64{1, heldOut} {
		plan := newAsyncPlan(seed)
		stored := map[string]bool{}
		for i := 0; i < storedJobs; i++ {
			stored[keyOf(t, mustJSON(plan.storedJob(i)))] = true
		}
		if len(stored) != storedJobs {
			t.Fatalf("seed %d: %d distinct stored keys, want %d", seed, len(stored), storedJobs)
		}
		const windows = 2 * storedJobs / (mixPeriod - 1) // every stored job re-requested twice
		misses := map[string]bool{}
		lastHit := map[int]int{}
		hits := 0
		for win := 0; win < windows; win++ {
			nHit := 0
			for k := 0; k < mixPeriod; k++ {
				pos := win*mixPeriod + k
				req := plan.at(pos)
				ref := req.jobs[0]
				key := keyOf(t, req.body)
				if ref.memo < 0 {
					var job wire.Job
					json.Unmarshal(req.body, &job)
					if job.Strategy != "multistart" || job.Restarts != msRestarts || stored[key] || misses[key] {
						t.Fatalf("seed %d position %d: miss %s is not a new multistart job", seed, pos, req.body)
					}
					misses[key] = true
					continue
				}
				nHit++
				if !stored[key] || keyOf(t, mustJSON(plan.storedJob(ref.memo))) != key {
					t.Fatalf("seed %d position %d: hit does not re-request stored job %d", seed, pos, ref.memo)
				}
				if prev, ok := lastHit[ref.memo]; ok && hits-prev != storedJobs {
					t.Fatalf("seed %d: stored job %d re-requested after %d hits, want %d", seed, ref.memo, hits-prev, storedJobs)
				}
				lastHit[ref.memo] = hits
				hits++
			}
			if nHit != mixPeriod-1 {
				t.Fatalf("seed %d window %d: %d hits, want %d", seed, win, nHit, mixPeriod-1)
			}
		}
	}
}

// TestHeldOutSeedShapes checks a held-out seed builds the same workload
// shapes as the tuning seeds: sizes, job counts and deadline placement.
func TestHeldOutSeedShapes(t *testing.T) {
	inRange := func(g *taskgraph.Graph, d float64) bool {
		lo, hi := g.MinTotalTime(), g.MaxTotalTime()
		return d >= lo+0.1*(hi-lo)-1e-6 && d <= lo+0.9*(hi-lo)+1e-6
	}
	for _, seed := range []int64{1, 2, heldOut} {
		hot := hotCorpus(seed)
		bodies := map[string]bool{}
		for i, req := range hot {
			ref := req.jobs[0]
			if ref.graph.N() != hotN || !inRange(ref.graph, ref.deadline) {
				t.Fatalf("seed %d hot job %d: n=%d deadline %g", seed, i, ref.graph.N(), ref.deadline)
			}
			bodies[string(req.body)] = true
		}
		if len(bodies) != hotGraphs {
			t.Fatalf("seed %d: %d distinct sync-hot bodies, want %d", seed, len(bodies), hotGraphs)
		}
		for k := 0; k < 6; k++ {
			req := batchBody(seed, k)
			if len(req.jobs) != sweepDeadlines {
				t.Fatalf("seed %d body %d: %d jobs", seed, k, len(req.jobs))
			}
			for _, ref := range req.jobs {
				if ref.graph.N() != batchSizes[k%len(batchSizes)] || !inRange(ref.graph, ref.deadline) {
					t.Fatalf("seed %d body %d: n=%d deadline %g", seed, k, ref.graph.N(), ref.deadline)
				}
			}
		}
		plan := newAsyncPlan(seed)
		for i := 0; i < storedJobs; i++ {
			if d := plan.storedJob(i).Deadline; d < deadlineLo || d > deadlineHi {
				t.Fatalf("seed %d stored job %d: deadline %g", seed, i, d)
			}
		}
	}
}
