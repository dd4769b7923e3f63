package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/dvs"
	"repro/internal/loadgen"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// A request is one HTTP request the benchmark sends: the exact body
// bytes the daemon receives plus what the client needs to check the
// answer. The daemon sees only the body.
type request struct {
	path string
	body []byte
	jobs []jobRef
}

// jobRef is one job inside a request, with the graph the client checks
// the returned schedule against.
type jobRef struct {
	graph    *taskgraph.Graph
	deadline float64
	strategy string // canonical strategy name the result must report
	// memo indexes the workload's table of known answers: a job that
	// recurs (a sync-hot working-set graph, a stored async-restart
	// result) must be answered byte-identically every time. -1 for a
	// job that never recurs.
	memo int
}

// Workload shapes. Every number here is part of the benchmark's
// definition: changing one changes what every later run measures.
const (
	hotGraphs = 512 // sync-hot working set, half the default 1024-entry LRU
	hotN      = 20  // sync-hot graph size

	sweepDeadlines = 16 // batch-sweep-cold deadlines per body

	storedJobs       = 2048 // async-restart results stored before timing
	asyncLRU         = 256  // async-restart daemon's -cache
	mixPeriod        = 8    // async-restart: every 8th job is a new multistart job
	msRestarts       = 8    // restarts of each new multistart job
	asyncWarmup      = 64   // async-restart warm-up positions (56 hits, 8 misses)
	deadlineLo       = 100  // async-restart golden-ratio deadline range, minutes
	deadlineHi       = 230
	sigmaSample      = 512 // sync-hot and async-restart jobs in sigma_mean
	batchSigmaBodies = 24  // batch-sweep-cold bodies in sigma_mean (8 per size)
)

// batchSizes are the graph sizes batch-sweep-cold bodies cycle through.
var batchSizes = [3]int{40, 80, 160}

// golden is the fractional golden ratio: its multiples mod 1 spread
// over [0, 1) as evenly as any sequence can.
const golden = 0.6180339887498949

// Stream tags keep each workload's random draws independent.
const (
	tagHot uint64 = iota + 1
	tagHotOrder
	tagBatch
	tagAsync
)

// subSeed derives an independent, reproducible stream seed for item i
// of a tagged stream (SplitMix64 finalizer).
func subSeed(seed int64, tag uint64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + tag*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// forkJoinShape splits n tasks into a source, width branches of depth
// tasks and a sink tail, the G3 layout scaled up.
func forkJoinShape(n int) (width, depth, tail int) {
	switch n {
	case 20:
		return 4, 2, 11
	case 40:
		return 4, 5, 19
	case 80:
		return 6, 6, 43
	case 160:
		return 8, 10, 79
	}
	panic(fmt.Sprintf("perfbench: no fork-join shape for n=%d", n))
}

// forkJoin draws one fork-join graph of n tasks whose design points
// follow the paper's G3 recipe (factors 1, 0.85, 0.68, 0.51, 0.33) over
// random reference workloads.
func forkJoin(rng *rand.Rand, n int) *taskgraph.Graph {
	width, depth, tail := forkJoinShape(n)
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 950, 3, 12))
	if err != nil {
		panic(err)
	}
	g, err := taskgraph.ForkJoin(width, depth, tail, points)
	if err != nil {
		panic(err)
	}
	return g
}

// deadlineAt places a deadline at fraction f of the graph's feasible
// range, quantized so it survives any float formatting round trip.
func deadlineAt(g *taskgraph.Graph, f float64) float64 {
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	return math.Round((lo+f*(hi-lo))*1e6) / 1e6
}

// graphJob renders {"graph":<graph>,"deadline":<d>} — byte-identical to
// json.Marshal(wire.Job{Graph: &spec, Deadline: d}), from a graph
// encoded once and shared by every deadline of a sweep.
func graphJob(dst, graphJSON []byte, deadline float64) []byte {
	dst = append(dst, `{"graph":`...)
	dst = append(dst, graphJSON...)
	dst = append(dst, `,"deadline":`...)
	dst = strconv.AppendFloat(dst, deadline, 'f', -1, 64)
	return append(dst, '}')
}

// specJSON encodes a graph in the wire schema.
func specJSON(g *taskgraph.Graph, name string) []byte {
	b, err := json.Marshal(g.ToSpec(name))
	if err != nil {
		panic(err)
	}
	return b
}

// hotCorpus is sync-hot's working set: hotGraphs distinct inline
// fork-join graphs, one deadline each, as POST /v1/schedule bodies.
func hotCorpus(seed int64) []request {
	start := rand.New(rand.NewSource(subSeed(seed, tagHot, -1))).Float64()
	reqs := make([]request, hotGraphs)
	for i := range reqs {
		rng := rand.New(rand.NewSource(subSeed(seed, tagHot, i)))
		g := forkJoin(rng, hotN)
		// Deadlines cover 10–90% of each graph's feasible range evenly
		// (a golden-ratio walk), so the working set's mean σ hardly
		// depends on the seed.
		d := deadlineAt(g, 0.1+0.8*math.Mod(start+float64(i)*golden, 1))
		reqs[i] = request{
			path: "/v1/schedule",
			body: graphJob(nil, specJSON(g, fmt.Sprintf("hot-%d", i)), d),
			jobs: []jobRef{{graph: g, deadline: d, strategy: "iterative", memo: i}},
		}
	}
	return reqs
}

// hotOrder is the seeded order the timed phase cycles the working set in.
func hotOrder(seed int64) []int {
	return rand.New(rand.NewSource(subSeed(seed, tagHotOrder, 0))).Perm(hotGraphs)
}

// batchBody is batch-sweep-cold body k: one fresh inline fork-join graph
// swept over sweepDeadlines deadlines from 10% to 90% of its feasible
// range, as a POST /v1/batch NDJSON body. Bodies are generated on
// demand — the stream is unbounded and no two bodies share a graph.
func batchBody(seed int64, k int) request {
	rng := rand.New(rand.NewSource(subSeed(seed, tagBatch, k)))
	g := forkJoin(rng, batchSizes[k%len(batchSizes)])
	gj := specJSON(g, fmt.Sprintf("sweep-%d", k))
	req := request{path: "/v1/batch", jobs: make([]jobRef, sweepDeadlines)}
	body := make([]byte, 0, sweepDeadlines*(len(gj)+40))
	for j := range req.jobs {
		d := deadlineAt(g, 0.1+0.8*float64(j)/float64(sweepDeadlines-1))
		body = append(graphJob(body, gj, d), '\n')
		req.jobs[j] = jobRef{graph: g, deadline: d, strategy: "iterative", memo: -1}
	}
	req.body = body
	return req
}

// asyncPlan is async-restart's job sequence: storedJobs g3 fixture jobs
// with golden-ratio deadlines (loadgen.JobSpec) are stored before
// timing; then, of every mixPeriod positions, mixPeriod-1 re-request a
// stored job (a disk hit) and the last submits a new multistart job.
type asyncPlan struct {
	spec   loadgen.JobSpec
	offset int // the seed's window into the golden-ratio walk
	// first is the stored job the timed re-requests start from; they
	// walk the stored jobs in order, so any run of them covers the
	// deadline range evenly and a stored job recurs only after all
	// storedJobs others.
	first int
	g3    *taskgraph.Graph
}

func newAsyncPlan(seed int64) asyncPlan {
	rng := rand.New(rand.NewSource(subSeed(seed, tagAsync, 0)))
	g3, _, err := taskgraph.Fixture("g3")
	if err != nil {
		panic(err)
	}
	return asyncPlan{
		spec:   loadgen.JobSpec{Fixture: "g3", DeadlineMin: deadlineLo, DeadlineMax: deadlineHi},
		offset: rng.Intn(1 << 20),
		first:  rng.Intn(storedJobs),
		g3:     g3,
	}
}

// storedJob is stored result i's job.
func (p asyncPlan) storedJob(i int) wire.Job { return p.spec.Job(p.offset + i) }

// missJob is the m-th new multistart job; its deadline continues the
// golden-ratio walk past the stored window, so it is never stored.
func (p asyncPlan) missJob(m int) wire.Job {
	j := p.spec.Job(p.offset + storedJobs + m)
	j.Strategy, j.Restarts, j.Seed = "multistart", msRestarts, int64(m+1)
	return j
}

// at builds the POST /v1/jobs request for sequence position pos.
func (p asyncPlan) at(pos int) request {
	var (
		job      wire.Job
		stored   = -1
		strategy = "iterative"
	)
	if pos%mixPeriod == mixPeriod-1 {
		job, strategy = p.missJob(pos/mixPeriod), "multistart"
	} else {
		h := pos - pos/mixPeriod // hits before this position
		stored = (p.first + h) % storedJobs
		job = p.storedJob(stored)
	}
	return request{path: "/v1/jobs", body: mustJSON(job), jobs: []jobRef{{
		graph: p.g3, deadline: job.Deadline, strategy: strategy, memo: stored,
	}}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
