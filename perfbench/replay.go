package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/wire"
)

// The traced run replays a workload's requests in process, through the
// same public functions the server calls and in the server's order, and
// records a span around each call. Path spans are the work a request
// waits for; decomposition spans re-run a computed job piece by piece
// (base build, search, σ evaluation) after its request has finished, so
// they never count toward a request's time.
const (
	spRequest = iota // root: one replayed request
	spWireDecode
	spTaskgraphBuild
	spCacheKey
	spCacheLookup
	spCacheInsert
	spStoreGet
	spStorePut
	spEngineCompute
	spWireEncode
	spQueueSubmit
	spQueueWait
	spQueueRun // the queue worker running the job, inside queue.wait
	spEngineBaseBuild
	spCoreRun
	spBatterySigma
	spCoreSweep
	numSpanNames

	firstDecomposition = spEngineBaseBuild
)

var spanNames = [numSpanNames]string{
	"request", "wire.decode", "taskgraph.build", "cache.key", "cache.lookup", "cache.insert",
	"store.get", "store.put", "engine.compute", "wire.encode", "queue.submit", "queue.wait",
	"queue.run", "engine.base_build", "core.run", "battery.sigma", "core.sweep",
}

// span is one recorded call: times are nanoseconds since the tracer
// started; parent is -1 for a root.
type span struct {
	name       int
	id, parent int
	req        int
	start, end int64
}

// tracer keeps spans in memory. When off it records nothing and reads
// no clock, so a replay with it off measures the replay alone.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name, parent, req int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// counters are the layer counts a replay pass observes.
type counters struct {
	memLookups, memHits   atomic.Int64
	diskLookups, diskHits atomic.Int64
	puts                  atomic.Int64
	// engineBases counts the scheduler bases the engine builds: one per
	// distinct graph of each engine batch, and the served path runs
	// every job as a one-job batch.
	engineBases atomic.Int64
}

// computedJob is a timed job the replay computed, kept for the
// decomposition after its request.
type computedJob struct {
	req int
	job engine.Job
	res engine.Result
}

// replay is one pass over a fixed request list against fresh layer
// state.
type replay struct {
	w       *workload
	tr      *tracer
	mem     *cache.Cache
	st      *store.Store // async-restart only
	q       *queue.Queue // async-restart only
	timedAt int          // requests at or after this index are timed
	cnt     counters

	bodyKB float64 // timed request bytes
	jobs   int     // timed jobs

	mu       sync.Mutex // guards computed, appended from pool and queue workers
	computed []computedJob
}

// serve answers one engine job the way cache.Engine does: memory LRU,
// then the disk tier, then a one-job engine batch whose result is
// stored in memory and written through to disk.
func (r *replay) serve(ctx context.Context, ej engine.Job, restartWorkers, parent, req int) engine.Result {
	id := r.tr.begin(spCacheKey, parent, req)
	key, ok := cache.Key(ej)
	r.tr.end(id)
	if !ok {
		return engine.Result{Err: errors.New("job has no cache key")}
	}
	timed := req >= r.timedAt
	id = r.tr.begin(spCacheLookup, parent, req)
	res, hit := r.mem.Get(key)
	r.tr.end(id)
	if timed {
		r.cnt.memLookups.Add(1)
		if hit {
			r.cnt.memHits.Add(1)
		}
	}
	if hit {
		return res
	}
	if r.st != nil {
		id = r.tr.begin(spStoreGet, parent, req)
		res, hit, _ = r.st.Get(key)
		r.tr.end(id)
		if timed {
			r.cnt.diskLookups.Add(1)
			if hit {
				r.cnt.diskHits.Add(1)
			}
		}
		if hit {
			r.insert(key, res, parent, req)
			return res
		}
	}
	id = r.tr.begin(spEngineCompute, parent, req)
	if s, err := engine.CanonicalStrategy(ej.Strategy); err == nil && s == engine.StrategyMultiStart && ej.MultiStart.Workers == 0 {
		ej.MultiStart.Workers = restartWorkers // as cache.Engine pins the fan-out
	}
	res = engine.RunBatchContext(ctx, []engine.Job{ej}, 1)[0]
	r.tr.end(id)
	if timed {
		r.cnt.engineBases.Add(1)
		r.mu.Lock()
		r.computed = append(r.computed, computedJob{req: req, job: ej, res: res})
		r.mu.Unlock()
	}
	res.Index, res.Name = 0, ""
	r.insert(key, res, parent, req)
	if r.st != nil {
		id = r.tr.begin(spStorePut, parent, req)
		r.st.Put(key, res)
		r.tr.end(id)
		if timed {
			r.cnt.puts.Add(1)
		}
	}
	return res
}

func (r *replay) insert(key string, res engine.Result, parent, req int) {
	id := r.tr.begin(spCacheInsert, parent, req)
	r.mem.Do(key, func() engine.Result { return res })
	r.tr.end(id)
}

// decode is the server's decode step for one job line.
func (r *replay) decode(line []byte, parent, req int) (engine.Job, error) {
	id := r.tr.begin(spWireDecode, parent, req)
	job, err := wire.DecodeJob(line)
	r.tr.end(id)
	if err != nil {
		return engine.Job{}, err
	}
	id = r.tr.begin(spTaskgraphBuild, parent, req)
	ej, err := job.ToEngine()
	r.tr.end(id)
	return ej, err
}

func (r *replay) encode(results []wire.Result, parent, req int) error {
	id := r.tr.begin(spWireEncode, parent, req)
	defer r.tr.end(id)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, out := range results {
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}

// one replays request i of the list.
func (r *replay) one(ctx context.Context, i int, req request) error {
	root := r.tr.begin(spRequest, -1, i)
	defer r.tr.end(root)
	if i >= r.timedAt {
		r.bodyKB += float64(len(req.body)) / 1024
		r.jobs += len(req.jobs)
	}
	switch req.path {
	case "/v1/schedule":
		ej, err := r.decode(req.body, root, i)
		if err != nil {
			return err
		}
		res := r.serve(ctx, ej, runtime.GOMAXPROCS(0), root, i)
		return r.encode([]wire.Result{wire.FromEngine(0, res)}, root, i)
	case "/v1/batch":
		lines := jobLines(req)
		jobs := make([]engine.Job, len(lines))
		for k, line := range lines {
			var err error
			if jobs[k], err = r.decode(line, root, i); err != nil {
				return err
			}
		}
		results := make([]wire.Result, len(jobs))
		pool := engine.Engine{}
		pool.RunEachContext(ctx, len(jobs), func(k, restartWorkers int) {
			results[k] = wire.FromEngine(k, r.serve(ctx, jobs[k], restartWorkers, root, i))
		})
		return r.encode(results, root, i)
	case "/v1/jobs":
		ej, err := r.decode(req.body, root, i)
		if err != nil {
			return err
		}
		id := r.tr.begin(spCacheKey, root, i)
		key, _ := cache.Key(ej)
		r.tr.end(id)
		id = r.tr.begin(spQueueSubmit, root, i)
		_, err = r.q.Submit(queue.Submission{ID: key, Run: func(ctx context.Context) engine.Result {
			run := r.tr.begin(spQueueRun, root, i)
			defer r.tr.end(run)
			return r.serve(ctx, ej, runtime.GOMAXPROCS(0), run, i)
		}})
		r.tr.end(id)
		if err != nil {
			return err
		}
		id = r.tr.begin(spQueueWait, root, i)
		snap, _, err := r.q.Wait(ctx, key)
		r.tr.end(id)
		if err != nil {
			return err
		}
		return r.encode([]wire.Result{wire.FromEngine(0, snap.Result)}, root, i)
	}
	return fmt.Errorf("no replay for %s", req.path)
}

// replayList is the fixed request list a traced run replays: the
// warm-up positions, then w.replayN timed positions.
func replayList(w *workload) (list []request, timedAt int) {
	for pos := 0; pos < w.warmN+w.replayN; pos++ {
		list = append(list, w.next(pos))
	}
	return list, w.warmN
}

// pass runs one replay over list with fresh layer state and returns it
// with the pass's wall time (layer set-up excluded).
func (b *bench) pass(w *workload, list []request, timedAt, n int, on bool) (*replay, time.Duration, float64, error) {
	r := &replay{w: w, tr: &tracer{on: on, base: time.Now()}, timedAt: timedAt}
	entries := 0
	var openS float64
	if w.name == "async-restart" {
		entries = asyncLRU
		dir, err := b.lifeDir(1000 + n)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := copyTree(b.popDir(), dir); err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		if r.st, _, err = store.Open(dir, 0); err != nil {
			return nil, 0, 0, err
		}
		openS = time.Since(t0).Seconds()
		r.q = queue.New(queue.Config{Retention: asyncRetention})
		defer r.q.Close()
	}
	r.mem = cache.New(entries)
	ctx := context.Background()
	t0 := time.Now()
	for i, req := range list {
		if err := r.one(ctx, i, req); err != nil {
			return nil, 0, 0, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	return r, time.Since(t0), openS, nil
}

// decompose re-runs each computed timed job piece by piece after the
// pass — the deadline-independent base, the search on it, and σ on the
// result's profile — and, for batch bodies, the whole sweep on one
// shared base. It returns the iteration count and σ mismatches.
func (r *replay) decompose(list []request) (iterations int, mismatches int, err error) {
	ctx := context.Background()
	for _, c := range r.computed {
		id := r.tr.begin(spEngineBaseBuild, -1, c.req)
		base, err := core.NewBase(c.job.Graph, c.job.Options)
		r.tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		id = r.tr.begin(spCoreRun, -1, c.req)
		s, err := base.Scheduler(c.job.Deadline)
		var res *core.Result
		if err == nil {
			if c.job.Strategy == engine.StrategyMultiStart {
				res, err = core.RunMultiStartContext(ctx, s, c.job.MultiStart)
			} else {
				res, err = s.Run()
			}
		}
		r.tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		iterations += res.Iterations
		model, err := c.job.Options.ResolveModel()
		if err != nil {
			return 0, 0, err
		}
		p := res.Schedule.Profile(c.job.Graph)
		id = r.tr.begin(spBatterySigma, -1, c.req)
		sigma := model.ChargeLost(p, p.TotalTime())
		r.tr.end(id)
		if sigma != c.res.Cost || res.Cost != c.res.Cost {
			mismatches++
		}
	}
	if r.w.name != "batch-sweep-cold" {
		return iterations, mismatches, nil
	}
	for i := r.timedAt; i < len(list); i++ {
		first := list[i].jobs[0]
		id := r.tr.begin(spCoreSweep, -1, i)
		sr, err := core.NewSweepRunner(first.graph, core.Options{})
		if err != nil {
			return 0, 0, err
		}
		for _, j := range list[i].jobs {
			if _, err := sr.Run(j.deadline); err != nil {
				return 0, 0, err
			}
		}
		r.tr.end(id)
	}
	return iterations, mismatches, nil
}

// allocKB measures heap bytes allocated by fn, exactly (ReadMemStats
// stops the world, flushing every per-P cache).
func allocKB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024
}

// allocs measures per-job allocation of decode, graph build and the
// search over the first timed requests; none of it is timed.
func allocs(list []request, timedAt int) (decodeKB, buildKB, coreKB float64, err error) {
	const sampleJobs = 48
	var jobs int
	for i := timedAt; i < len(list) && jobs < sampleJobs; i++ {
		for _, line := range jobLines(list[i]) {
			var (
				job wire.Job
				ej  engine.Job
			)
			decodeKB += allocKB(func() { job, err = wire.DecodeJob(line) })
			if err != nil {
				return 0, 0, 0, err
			}
			buildKB += allocKB(func() { ej, err = job.ToEngine() })
			if err != nil {
				return 0, 0, 0, err
			}
			jobs++
			if list[i].jobs[0].memo >= 0 {
				continue // a recurring job is a cache hit: no search on the served path
			}
			base, err := core.NewBase(ej.Graph, ej.Options)
			if err != nil {
				return 0, 0, 0, err
			}
			s, err := base.Scheduler(ej.Deadline)
			if err != nil {
				return 0, 0, 0, err
			}
			coreKB += allocKB(func() {
				if ej.Strategy == engine.StrategyMultiStart {
					_, err = core.RunMultiStartContext(context.Background(), s, ej.MultiStart)
				} else {
					_, err = s.Run()
				}
			})
			if err != nil {
				return 0, 0, 0, err
			}
		}
	}
	return decodeKB / float64(jobs), buildKB / float64(jobs), coreKB / float64(jobs), nil
}

// layerTotals sums span time per name over timed requests, and the time
// path spans cover per timed request (overlaps counted once).
func layerTotals(spans []span, timedAt int) (total [numSpanNames]float64, coveredUS float64, reqs int) {
	byReq := map[int][][2]int64{}
	for _, s := range spans {
		if s.req < timedAt {
			continue
		}
		us := float64(s.end-s.start) / 1e3
		total[s.name] += us
		if s.name == spRequest {
			reqs++
		} else if s.name < firstDecomposition && s.name != spQueueRun {
			byReq[s.req] = append(byReq[s.req], [2]int64{s.start, s.end})
		}
	}
	for _, iv := range byReq {
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64 = 0, iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curE {
				covered += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		covered += curE - curS
		coveredUS += float64(covered) / 1e3
	}
	return total, coveredUS / float64(max(reqs, 1)), reqs
}

// explainTolerance is how much of batch-sweep-cold's untraced request
// time the layer spans may leave unexplained: net/http, body reads and
// the pool's idle tail are the only work outside them.
const explainTolerance = 0.25

// traceRounds is how many times a traced run alternates its untraced
// end-to-end phase with replay passes, so a host whose speed drifts
// during the run slows both sides alike.
const traceRounds = 3

// traced is the --trace 1 run: untraced end-to-end phases give the
// request time the layers must add up to; replays with spans on and off
// in between give the per-layer numbers and the tracing overhead.
func (b *bench) traced(w *workload, rec *record) error {
	budget := time.Duration(b.seconds) * time.Second
	d, setup, err := b.setUp(w, 0)
	if err != nil {
		return err
	}
	defer b.stopDaemon(d)

	list, timedAt := replayList(w)
	var (
		latMS                             []float64
		sent                              int
		onWalls, offWalls, opens, covered []float64
		first                             *replay
		iterations, mismatches            int
	)
	for round := 0; round < traceRounds; round++ {
		t, err := b.drive(w, d, w.warmN+sent, 0, 0, budget/(3*traceRounds))
		if err != nil {
			return err
		}
		sent += len(t.ph.ops)
		latMS = append(latMS, t.latMS...)
		rec.Result.Attempted += t.attempted
		rec.Result.Failed += t.failed
		rec.Problems = append(rec.Problems, t.problems...)

		deadline := time.Now().Add(budget * 2 / (3 * traceRounds))
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			for _, on := range []bool{true, false} {
				r, wall, openS, err := b.pass(w, list, timedAt, len(opens), on)
				if err != nil {
					return err
				}
				opens = append(opens, openS)
				if !on {
					offWalls = append(offWalls, wall.Seconds())
					continue
				}
				onWalls = append(onWalls, wall.Seconds())
				_, c, _ := layerTotals(r.tr.spans, timedAt)
				covered = append(covered, c)
				if first == nil {
					first = r
					if iterations, mismatches, err = r.decompose(list); err != nil {
						return err
					}
				}
			}
		}
	}
	e2eUS := mean(latMS) * 1e3
	coveredUS := mean(covered)
	if mismatches > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d computed jobs' σ differs from the in-process re-run", mismatches))
	}
	decodeKB, buildKB, coreKB, err := allocs(list, timedAt)
	if err != nil {
		return err
	}

	total, _, reqs := layerTotals(first.tr.spans, timedAt)
	jobs := float64(first.jobs)
	perJob := func(name int) float64 { return total[name] / jobs }
	per := func(name int, n int64) float64 {
		if n == 0 {
			return 0
		}
		return total[name] / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := &first.cnt
	computed := int64(len(first.computed))
	selfUS := e2eUS - coveredUS
	explained := coveredUS / e2eUS
	if selfUS < 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("layer spans cover %.1f µs per request, more than the untraced %.1f µs", coveredUS, e2eUS))
	}
	if w.name == "batch-sweep-cold" && explained < 1-explainTolerance {
		rec.Problems = append(rec.Problems, fmt.Sprintf("layer spans explain only %.0f%% of the untraced request time (tolerance %.0f%%)", 100*explained, 100*explainTolerance))
	}
	storeOpen := 0.0
	if w.name == "async-restart" {
		storeOpen = median(opens)
	}
	m := map[string]metric{
		"wire.decode_us_per_job":           {perJob(spWireDecode), "us"},
		"wire.decode_alloc_kb_per_job":     {decodeKB, "KB"},
		"taskgraph.build_us_per_job":       {perJob(spTaskgraphBuild), "us"},
		"taskgraph.build_alloc_kb_per_job": {buildKB, "KB"},
		"wire.encode_us_per_job":           {perJob(spWireEncode), "us"},
		"wire.body_kb_per_job":             {first.bodyKB / jobs, "KB"},
		"cache.key_us_per_job":             {perJob(spCacheKey), "us"},
		"cache.lookup_us_per_hit":          {per(spCacheLookup, c.memHits.Load()), "us"},
		"cache.hit_ratio":                  {ratio(c.memHits.Load(), c.memLookups.Load()), "count"},
		"store.open_s":                     {storeOpen, "s"},
		"store.get_us_per_hit":             {per(spStoreGet, c.diskHits.Load()), "us"},
		"store.hit_ratio":                  {ratio(c.diskHits.Load(), c.diskLookups.Load()), "count"},
		"store.put_us_per_write":           {per(spStorePut, c.puts.Load()), "us"},
		"queue.submit_us_per_job":          {perJob(spQueueSubmit), "us"},
		"queue.wait_us_per_job":            {(total[spQueueWait] - total[spQueueRun]) / jobs, "us"},
		"engine.compute_us_per_job":        {perJob(spEngineCompute), "us"},
		"engine.base_build_us_per_job":     {perJob(spEngineBaseBuild), "us"},
		"engine.base_builds_per_job":       {ratio(c.engineBases.Load(), int64(jobs)), "count"},
		"core.run_us_per_job":              {perJob(spCoreRun), "us"},
		"core.sweep_us_per_job":            {perJob(spCoreSweep), "us"},
		"core.iterations_per_job":          {float64(iterations) / jobs, "count"},
		"core.alloc_kb_per_job":            {coreKB, "KB"},
		"battery.sigma_us_per_eval":        {per(spBatterySigma, computed), "us"},
		"server.self_us_per_req":           {selfUS, "us"},
		"trace.explained_pct":              {100 * explained, "%"},
		"trace.overhead_pct":               {100 * (median(onWalls) - median(offWalls)) / median(offWalls), "%"},
	}
	rec.Result.Metrics = m
	rec.Raw["setup_s"] = setup.Seconds()
	rec.Raw["e2e_us_per_req"] = e2eUS
	rec.Raw["covered_us_per_req"] = covered
	rec.Raw["replayed_requests"] = reqs
	rec.Raw["replay_on_s"] = onWalls
	rec.Raw["replay_off_s"] = offWalls
	rec.Raw["store_open_s"] = opens
	rec.Raw["layer_us_total"] = namedTotals(total)
	return b.writeSpans(w, first.tr.spans)
}

func namedTotals(total [numSpanNames]float64) map[string]float64 {
	out := map[string]float64{}
	for i, v := range total {
		out[spanNames[i]] = v
	}
	return out
}

// writeSpans writes the first traced pass's spans as JSON lines of
// {name, id, parent, req, start_ns, end_ns}.
func (b *bench) writeSpans(w *workload, spans []span) error {
	dir := filepath.Join(b.root, ".bench_build", "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		enc.Encode(struct {
			Name   string `json:"name"`
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Req    int    `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{spanNames[s.name], s.id, s.parent, s.req, s.start, s.end})
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", w.name, b.seed)), buf.Bytes(), 0o666)
}
