// Package server turns the scheduling library into an HTTP service: the
// request-handling layer behind cmd/battschedd. It decodes and validates
// wire.Job requests, executes them through the cache-backed engine —
// whose one gate bounds how many scheduling computations run at once;
// repeat requests answer from memory, identical concurrent requests
// compute once — and encodes wire.Result responses.
//
// Endpoints (full wire schemas and curl examples in docs/API.md):
//
//	POST /v1/schedule   one job in, one result out (JSON)
//	POST /v1/batch      NDJSON job stream in, in-order NDJSON results out
//	GET  /v1/fixtures   the built-in benchmark graph registry
//	GET  /healthz       liveness probe
//	GET  /metrics       request/cache/in-flight counters (JSON)
//
// Everything on the hot path is deterministic, so the service inherits
// the engine's guarantee: a batch's result bytes do not depend on the
// worker count or the cache state.
//
// Scheduling work is request-scoped: each handler passes its request's
// context down through the cached engine into the per-window search, so
// a client that disconnects (or a timeout_ms / Config.RequestTimeout
// budget that expires, or a draining shutdown) stops burning cores
// mid-batch. Jobs that finished before the cancellation keep their
// results — bit-identical to an uncancelled run — and the rest carry
// the "canceled" result code; the /metrics `canceled` counter tallies
// them.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/battery"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/store"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// Request limits and the backoff hint, fixed for every server: a body
// is at most 16 MiB, a batch at most 10000 job lines — bounding the
// work a single request can pin the host with, the same threat the wire
// restart caps close — and every 429 queue-full and 503 draining
// rejection says Retry-After: 1.
const (
	maxBodyBytes = 16 << 20
	maxBatchJobs = 10000
	retryAfter   = "1"
)

// Config sizes a Server. The zero value is production-usable: GOMAXPROCS
// workers and a cache.DefaultMaxEntries LRU.
type Config struct {
	// Workers bounds concurrent scheduling computations, both inside one
	// request (batch fan-out) and across the whole server (the compute
	// gate every sync and async job takes; cache hits skip it); 0 means
	// GOMAXPROCS(0).
	Workers int
	// CacheEntries bounds the result LRU; 0 means
	// cache.DefaultMaxEntries, negative disables caching.
	CacheEntries int
	// CacheStore, when non-nil, is the disk tier layered under the
	// result LRU (cmd/battschedd's -cache-dir flag): memory misses
	// consult it before computing, computed results are written behind
	// (Close drains what is queued), and a server restarted on the same
	// store answers repeated requests from disk with zero recomputation.
	// Ignored when caching is disabled (CacheEntries < 0). The caller
	// opens the store (store.Open) so startup owns the warm-start scan
	// and its logging.
	CacheStore *store.Store
	// RequestTimeout bounds the scheduling work of one request (the
	// whole batch, not per job); 0 means unbounded. When it fires,
	// unfinished jobs in the response carry the "canceled" code while
	// finished ones keep their results — the same behavior a client
	// disconnect triggers. Per-job budgets ride the wire instead
	// (wire.Job.TimeoutMS).
	RequestTimeout time.Duration
	// MaxQueued bounds the async job queue's waiting line; a POST
	// /v1/jobs beyond it is rejected with 429 + Retry-After. 0 means
	// queue.DefaultMaxQueued.
	MaxQueued int
	// QueueWorkers bounds concurrently executing async jobs (each still
	// takes compute through the shared gate, so this mostly overlaps
	// queue bookkeeping and cache hits with computation). 0 means
	// 2×GOMAXPROCS(0).
	QueueWorkers int
	// JobDefaultTTL bounds async jobs that submit no ttl_ms of their
	// own (queue wait + run, from submission); 0 means unbounded.
	JobDefaultTTL time.Duration
	// JobRetention is how long a finished async job stays pollable
	// before it is pruned; 0 means queue.DefaultRetention.
	JobRetention time.Duration
	// DiskBreaker tunes the disk tier's circuit breaker (cmd/battschedd's
	// -disk-breaker-* flags): when the store returns Threshold errors
	// within Window, the cache degrades to memory-only serving until a
	// half-open probe after Probe succeeds. The zero value selects the
	// cache package defaults; Threshold < 0 disables the breaker. Ignored
	// without a CacheStore.
	DiskBreaker cache.BreakerConfig
	// DefaultBattery, when non-nil, is the battery spec applied to jobs
	// that select no battery of their own (neither a "battery" object
	// nor a "beta" shorthand) — cmd/battschedd's -battery flag. It must
	// be valid (New panics otherwise: a daemon misconfiguration should
	// fail at startup, not per request). Jobs that do name a battery
	// keep it; nil preserves the paper's default Rakhmatov
	// configuration.
	DefaultBattery *battery.Spec
	// AccessLog, when non-nil, receives one JSON line per request
	// (method, path, status, bytes, duration).
	AccessLog *log.Logger
}

// Server holds the handlers' shared state; create it with New and mount
// Handler on an http.Server. Call Close when draining so new work is
// refused and running work is canceled instead of stalling the
// shutdown.
type Server struct {
	cfg    Config
	cache  *cache.Cache // nil when caching is disabled
	engine cache.Engine
	// repeats maps /v1/schedule body digests to their cache keys (nil
	// when caching is disabled), so a byte-identical repeat is answered
	// without decoding; see handleSchedule.
	repeats *aliases
	jobs    *queue.Queue
	// life is canceled by Close: the server-lifetime context every
	// request's scheduling context is tied to.
	life      context.Context
	stop      context.CancelFunc
	closeOnce sync.Once
	start     time.Time
	metrics   metrics
}

// metrics are the /metrics counters; all fields are atomics so handlers
// never contend on them.
type metrics struct {
	schedule atomic.Uint64 // POST /v1/schedule requests
	batch    atomic.Uint64 // POST /v1/batch requests
	fixtures atomic.Uint64 // GET /v1/fixtures requests
	health   atomic.Uint64 // GET /healthz requests
	ready    atomic.Uint64 // GET /readyz requests
	metrics  atomic.Uint64 // GET /metrics requests
	jobsAPI  atomic.Uint64 // /v1/jobs* async-API requests, all verbs
	errors   atomic.Uint64 // responses with status >= 400
	rejected atomic.Uint64 // sync requests refused with 503 while draining
	// rejectedQueue counts 429s (and per-line rejections) from the
	// async queue's admission control — deliberately distinct from
	// rejected: a full queue is backpressure, a drain is a lifecycle
	// event.
	rejectedQueue atomic.Uint64
	jobs          atomic.Uint64 // scheduling jobs executed or served from cache
	canceled      atomic.Uint64 // jobs cut short: disconnect, shutdown or timeout
	inFlight      atomic.Int64  // sync requests currently running scheduling work
	// modelKinds counts served jobs per battery-model kind (the
	// /metrics "model_kinds" object), indexed parallel to specKinds
	// and sized from it in New, so a future kind cannot overflow it.
	modelKinds []atomic.Uint64
}

// specKinds fixes the kind→counter index order once at startup (also
// sparing a battery.Kinds() allocation per served job).
var specKinds = battery.Kinds()

// served counts one job the engine answered, sync or async: the job
// total, its battery-model kind, and whether it was cut short.
func (m *metrics) served(job engine.Job, res engine.Result) {
	m.servedKind(kindIndex(job), res)
}

// servedKind is served for a job whose kindIndex is already known.
func (m *metrics) servedKind(kind int, res engine.Result) {
	m.jobs.Add(1)
	if errors.Is(res.Err, engine.ErrCanceled) {
		m.canceled.Add(1)
	}
	if kind >= 0 {
		m.modelKinds[kind].Add(1)
	}
}

// kindIndex is the index of the job's battery-model kind in specKinds,
// or -1 for a kind not listed there.
func kindIndex(job engine.Job) int {
	kind := job.Options.BatterySpec().Kind
	for i, k := range specKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// New builds a server from the config. It panics on an invalid
// Config.DefaultBattery — a misconfigured daemon must fail at startup,
// not answer every request with the same 400.
func New(cfg Config) *Server {
	if cfg.DefaultBattery != nil {
		if err := cfg.DefaultBattery.Validate(); err != nil {
			panic(fmt.Sprintf("server: invalid Config.DefaultBattery: %v", err))
		}
	}
	s := &Server{cfg: cfg, start: time.Now()}
	s.life, s.stop = context.WithCancel(context.Background())
	s.metrics.modelKinds = make([]atomic.Uint64, len(specKinds))
	if cfg.CacheEntries >= 0 {
		s.cache = cache.NewTiered(cfg.CacheEntries, cfg.CacheStore, cfg.DiskBreaker)
		s.repeats = newAliases(s.cache.MaxEntries())
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One computation gate shared by every request, sync or async: it
	// is the server's only bound on scheduling concurrency. Per-request
	// pools give a lone batch full parallelism, while the gate keeps the
	// total at `workers` however many requests land at once (cache hits
	// bypass it).
	s.engine = cache.Engine{
		Cache:   s.cache,
		Workers: cfg.Workers,
		Gate:    make(chan struct{}, workers),
	}
	s.jobs = queue.New(queue.Config{
		MaxQueued:  cfg.MaxQueued,
		Workers:    cfg.QueueWorkers,
		DefaultTTL: cfg.JobDefaultTTL,
		Retention:  cfg.JobRetention,
	})
	return s
}

// Close marks the server as draining: every sync request that arrives
// afterwards gets 503 + Retry-After, and in-flight scheduling work is
// canceled — each running request returns promptly, its unfinished jobs
// marked with the "canceled" code (its finished ones keep their
// results). The async queue drains too: new submissions get the same
// 503, queued jobs abort without running, running ones are canceled,
// and pollers/streamers observe the "aborted" terminal state. Last, the
// cache's write-behind queue is drained, so every result computed
// before Close returns is in the disk tier; a request still finishing
// afterwards writes its result synchronously. Safe to call more than
// once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.stop()
		s.jobs.Close()
		if s.cache != nil {
			s.cache.Close()
		}
	})
}

// requestContext derives the context scheduling work runs under: the
// request's own (canceled when the client disconnects), bounded by
// Config.RequestTimeout when set, and canceled when the server starts
// draining. The returned cancel must be called when the request is
// done.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	var cancel context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	// Close cancels the request through the lifetime context; no
	// goroutine waits on it per request.
	unhook := context.AfterFunc(s.life, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}

// Cache exposes the result cache (nil when disabled), mainly for tests
// and for embedding servers that want to inspect Stats.
func (s *Server) Cache() *cache.Cache { return s.cache }

// Handler returns the routed handler, wrapped with the access logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleJobsBatch)
	mux.HandleFunc("POST /v1/jobs/stream", s.handleJobsBatchStream)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobAbort)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /v1/fixtures", s.handleFixtures)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.accessLog(mux)
}

// errDraining is the answer to work that arrives after Close, sync or
// async.
var errDraining = errors.New("server: shutting down; job not accepted")

// rejectDraining answers a sync request that arrives after Close with
// 503 + Retry-After, counted in `rejected`, and reports whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining() {
		return false
	}
	s.metrics.rejected.Add(1)
	s.writeRetryError(w, http.StatusServiceUnavailable, errDraining)
	return true
}

// handleSchedule runs one job: wire.Job body in, wire.Result body out.
// Decode and validation failures are 400s, scheduling failures
// (infeasible deadline, …) are 422s with the same error envelope, and a
// served result carries an X-Cache: hit|miss header.
//
// A body byte-identical to one served before is answered from its
// SHA-256 alone when its result is still in the memory cache: no
// decode, no graph build, no key hashing. It gets the same bytes, the
// same headers and the same counters as the full path would give it.
// Every other request — a new body, an evicted result, a draining
// server — takes the full path, which records the alias once it has
// served a result that was not canceled.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.metrics.schedule.Add(1)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var digest [sha256.Size]byte
	if s.repeats != nil {
		digest = sha256.Sum256(body)
		if s.serveRepeat(w, digest) {
			return
		}
	}
	_, job, ok := s.parseJob(w, body)
	if !ok || s.rejectDraining(w) {
		return
	}
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	var key string
	if s.repeats != nil {
		key, _ = cache.Key(job)
	}
	res, hit := s.engine.RunKeyedContext(ctx, job, key)
	kind := kindIndex(job)
	s.metrics.servedKind(kind, res)
	if key != "" && !errors.Is(res.Err, engine.ErrCanceled) {
		s.repeats.put(digest, alias{key: key, name: job.Name, kind: kind})
	}
	s.writeResult(w, res, hit)
}

// serveRepeat answers a body whose digest has an alias and whose result
// the memory cache still holds, counting it as the full path counts a
// memory hit, and reports whether it did.
func (s *Server) serveRepeat(w http.ResponseWriter, digest [sha256.Size]byte) bool {
	a, ok := s.repeats.get(digest)
	if !ok || s.draining() {
		return false
	}
	res, ok := s.cache.Get(a.key)
	if !ok {
		return false
	}
	res.Name = a.name
	s.metrics.servedKind(a.kind, res)
	s.writeResult(w, res, true)
	return true
}

// writeResult sends one job's result as /v1/schedule answers it.
func (s *Server) writeResult(w http.ResponseWriter, res engine.Result, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if res.Err != nil {
		s.metrics.errors.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	json.NewEncoder(w).Encode(wire.FromEngine(0, res))
}

// handleBatch streams NDJSON jobs in and NDJSON results out, in input
// order. Per-line failures (parse errors, infeasible jobs) land in that
// line's result; the response itself is always 200 once streaming
// starts — exactly battbatch's contract over HTTP.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batch.Add(1)
	wjobs, jobs, parseErrs, ok := s.decodeBatch(w, r)
	if !ok || s.rejectDraining(w) {
		return
	}
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	ctx, cancel := s.requestContext(r)
	defer cancel()

	// Only the lines that decoded reach the engine; a failed line keeps
	// its slot and wire.Results reports its decode error there.
	run := make([]engine.Job, 0, len(jobs))
	at := make([]int, 0, len(jobs))
	for i := range jobs {
		if parseErrs[i] == nil {
			run = append(run, jobs[i])
			at = append(at, i)
		}
	}
	ran, hits := s.engine.RunBatchContext(ctx, run)
	results := make([]engine.Result, len(jobs))
	hitCount := 0
	for k, i := range at {
		results[i] = ran[k]
		s.metrics.served(jobs[i], ran[k])
		if hits[k] {
			hitCount++
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d/%d", hitCount, len(jobs)))
	enc := json.NewEncoder(w)
	for _, out := range wire.Results(wjobs, results, parseErrs) {
		if err := enc.Encode(out); err != nil {
			return // client went away mid-stream; nothing to salvage
		}
	}
}

// handleFixtures serves the shared built-in graph registry.
func (s *Server) handleFixtures(w http.ResponseWriter, r *http.Request) {
	s.metrics.fixtures.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(taskgraph.FixtureInfos())
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.health.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// draining reports whether Close has been called.
func (s *Server) draining() bool {
	select {
	case <-s.life.Done():
		return true
	default:
		return false
	}
}

// Ready computes the readiness verdict /readyz serves: "draining" once
// Close has been called (stop routing traffic here), "degraded" while
// the disk circuit breaker is not closed (the process serves, memory-
// only), "ok" otherwise — each with per-subsystem detail.
func (s *Server) Ready() wire.Ready {
	rep := wire.Ready{
		Status:     wire.ReadyOK,
		Subsystems: make(map[string]wire.ReadySubsystem),
	}

	disk := wire.ReadySubsystem{Status: wire.ReadyDisabled, Detail: "no disk tier attached"}
	if s.cache != nil && s.cache.HasDisk() {
		switch state := s.cache.DiskBreakerState(); state {
		case "closed":
			disk = wire.ReadySubsystem{Status: wire.ReadyOK}
		default: // open or half-open: the disk is out of rotation
			disk = wire.ReadySubsystem{
				Status: wire.ReadyDegraded,
				Detail: "disk circuit breaker " + state + "; serving memory-only",
			}
			rep.Status = wire.ReadyDegraded
		}
	}
	rep.Subsystems["disk"] = disk

	queueSub := wire.ReadySubsystem{Status: wire.ReadyOK}
	if s.draining() {
		queueSub = wire.ReadySubsystem{Status: wire.ReadyDraining, Detail: "shutdown in progress; queue closed"}
		rep.Status = wire.ReadyDraining
	}
	rep.Subsystems["queue"] = queueSub

	return rep
}

// handleReadyz serves the readiness probe: 200 for ok/degraded (the
// process accepts traffic either way — degraded only means the disk
// tier is bypassed), 503 + Retry-After for draining, so load balancers
// and orchestration pull the instance before its listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.metrics.ready.Add(1)
	rep := s.Ready()
	w.Header().Set("Content-Type", "application/json")
	if rep.Status == wire.ReadyDraining {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(rep)
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      map[string]uint64 `json:"requests"`
	ErrorCount    uint64            `json:"error_responses"`
	// Rejected counts sync requests refused with 503 because the server
	// was draining.
	Rejected uint64 `json:"rejected"`
	// RejectedQueue counts async submissions refused by the queue's
	// admission control (429s and per-line batch rejections).
	RejectedQueue uint64 `json:"rejected_queue"`
	JobsTotal     uint64 `json:"jobs_total"`
	Canceled      uint64 `json:"canceled"`
	// JobsAsync is the async queue's per-state census: queued/running
	// gauges plus cumulative submitted/coalesced/rejected and the
	// done/expired/aborted terminal counters.
	JobsAsync queue.Stats `json:"jobs_async"`
	// ModelKinds counts served jobs per battery-model kind (rakhmatov,
	// ideal, peukert, kibam, calibrated). Kinds never served are
	// omitted.
	ModelKinds map[string]uint64 `json:"model_kinds,omitempty"`
	// InFlight is how many sync requests are running scheduling work.
	InFlight int64        `json:"in_flight"`
	Cache    *cache.Stats `json:"cache,omitempty"`
}

// Metrics snapshots the counters (also what GET /metrics serves).
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests: map[string]uint64{
			"schedule": s.metrics.schedule.Load(),
			"batch":    s.metrics.batch.Load(),
			"jobs":     s.metrics.jobsAPI.Load(),
			"fixtures": s.metrics.fixtures.Load(),
			"healthz":  s.metrics.health.Load(),
			"readyz":   s.metrics.ready.Load(),
			"metrics":  s.metrics.metrics.Load(),
		},
		ErrorCount:    s.metrics.errors.Load(),
		Rejected:      s.metrics.rejected.Load(),
		RejectedQueue: s.metrics.rejectedQueue.Load(),
		JobsTotal:     s.metrics.jobs.Load(),
		Canceled:      s.metrics.canceled.Load(),
		JobsAsync:     s.jobs.Stats(),
		InFlight:      s.metrics.inFlight.Load(),
	}
	kinds := map[string]uint64{}
	for i, kind := range specKinds {
		if n := s.metrics.modelKinds[i].Load(); n > 0 {
			kinds[kind] = n
		}
	}
	if len(kinds) > 0 {
		snap.ModelKinds = kinds
	}
	if s.cache != nil {
		st := s.cache.Stats()
		snap.Cache = &st
	}
	return snap
}

// handleMetrics serves the counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.metrics.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

// readBody reads a size-capped request body. On failure it has written
// the error response — 413 for an over-limit body, 400 otherwise — and
// reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err)
		return nil, false
	}
	return body, true
}

// decodeJob is the single-job intake shared by the sync and async
// routes: read the body, decode and resolve it, apply the default
// battery. On failure it has written the error response (400, or 413
// for an over-limit body) and reports false.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request) (wire.Job, engine.Job, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return wire.Job{}, engine.Job{}, false
	}
	return s.parseJob(w, body)
}

// parseJob is decodeJob for a body already read: a failure is a 400.
func (s *Server) parseJob(w http.ResponseWriter, body []byte) (wire.Job, engine.Job, bool) {
	job, err := wire.DecodeJob(body)
	var ejob engine.Job
	if err == nil {
		ejob, err = job.ToEngine()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return wire.Job{}, engine.Job{}, false
	}
	wire.ApplyDefaultBattery(&ejob, s.cfg.DefaultBattery)
	return job, ejob, true
}

// decodeBatch is the NDJSON intake shared by the sync and async batch
// routes: one slot per non-blank line (wire.DecodeJobs), a line that
// fails to decode keeping its slot and its error, and the default
// battery applied. A batch over maxBatchJobs lines is refused whole
// with 413 before any line is decoded; on that or a body failure it
// has written the error response and reports false.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) ([]wire.Job, []engine.Job, []error, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return nil, nil, nil, false
	}
	if n := jobLines(body); n > maxBatchJobs {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: batch has %d jobs, limit is %d", n, maxBatchJobs))
		return nil, nil, nil, false
	}
	wjobs, jobs, errs := wire.DecodeJobs(body)
	for i := range jobs {
		wire.ApplyDefaultBattery(&jobs[i], s.cfg.DefaultBattery)
	}
	return wjobs, jobs, errs, true
}

// jobLines counts the non-blank lines of an NDJSON body: the slots
// wire.DecodeJobs would return, without decoding any of them.
func jobLines(body []byte) int {
	n := 0
	for line := range bytes.Lines(body) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// writeError sends the JSON error envelope shared by every endpoint.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeRetryError is writeError plus a Retry-After header — the shape
// of every transient rejection (429 queue-full, 503 draining), so
// well-behaved clients know these are back-off-and-retry conditions,
// not failures.
func (s *Server) writeRetryError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, status, err)
}

// statusWriter captures the status code and byte count for access logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush through the access-log wrapper — without it the stream
// endpoints would silently stop streaming whenever access logs are on.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// accessLog wraps next with one structured (JSON) log line per request.
func (s *Server) accessLog(next http.Handler) http.Handler {
	if s.cfg.AccessLog == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		next.ServeHTTP(sw, r)
		line, _ := json.Marshal(map[string]any{
			"time":        begin.UTC().Format(time.RFC3339Nano),
			"method":      r.Method,
			"path":        r.URL.Path,
			"status":      sw.status,
			"bytes":       sw.bytes,
			"duration_ms": float64(time.Since(begin).Microseconds()) / 1000,
			"remote":      r.RemoteAddr,
		})
		s.cfg.AccessLog.Println(string(line))
	})
}
