// Command battschedd is the scheduling daemon: a long-running HTTP
// server over the battery-aware scheduling engine with a
// content-addressed result cache, so a stream of repeated (graph,
// deadline, strategy) requests answers from memory instead of re-running
// the iterative search.
//
// Usage:
//
//	battschedd [-addr :8347] [-workers 0] [-cache 1024] [-timeout 0] [-battery spec] [-quiet]
//	           [-cache-dir ""] [-cache-disk-max-bytes 1073741824]
//	           [-disk-breaker-threshold 0] [-disk-breaker-window 0] [-disk-breaker-probe 0]
//	           [-queue 0] [-queue-workers 0] [-job-ttl 0] [-job-retention 0]
//
//	curl -s localhost:8347/v1/schedule -d '{"fixture":"g3","deadline":230}'
//	curl -s localhost:8347/v1/batch --data-binary @jobs.ndjson
//	curl -s localhost:8347/v1/jobs -d '{"fixture":"g3","deadline":230,"priority":5}'
//	curl -s localhost:8347/v1/jobs/<id>
//	curl -sN localhost:8347/v1/jobs/<id>/stream
//	curl -s localhost:8347/v1/fixtures
//	curl -s localhost:8347/metrics
//
// `-workers` is the daemon's one bound on scheduling computation: every
// job, sync or async, takes a slot of a shared compute gate before it
// runs (cache hits skip it), and a lone batch fans out over all of
// them.
//
// The async endpoints (POST /v1/jobs and friends) queue work behind an
// admission-controlled priority queue instead of holding the connection
// open: `-queue` bounds the backlog (excess submissions get 429 +
// Retry-After), `-queue-workers` bounds concurrently executing jobs,
// `-job-ttl` default-bounds a job's whole lifetime and `-job-retention`
// keeps finished jobs pollable. On shutdown the queue drains cleanly:
// queued jobs abort without running, running ones cancel, and pollers
// observe the "aborted" terminal state.
//
// `-cache-dir` makes the result cache survive restarts: computed
// results are written, behind their responses, to a crash-safe,
// content-addressed store of one file per cache key under that
// directory (a SIGINT or SIGTERM drains what is still queued; bounded by
// `-cache-disk-max-bytes`, oldest evicted first), and a daemon
// restarted on the same directory warm starts from it — the same
// requests answer byte-identical from disk with zero recomputation.
// Startup logs the warm-start scan (entries, bytes, corrupt files
// skipped, orphaned temp files swept); torn or corrupt entries are
// discarded, never served.
//
// When the disk tier starts failing (a pulled volume, a full or
// read-only filesystem), the daemon degrades instead of dying: a
// circuit breaker counts disk errors and, past
// `-disk-breaker-threshold` errors within `-disk-breaker-window`,
// stops touching the disk and serves memory-only. Every
// `-disk-breaker-probe` it lets one operation through; a success
// re-closes the breaker and disk writes resume. GET /readyz reports
// ok while healthy, degraded (still 200 — the process serves) while
// the breaker is open, and draining (503 + Retry-After) during
// shutdown; /metrics exposes the breaker state and trip count.
//
// Endpoints, wire schemas and curl walk-throughs are documented in
// docs/API.md; request bodies are exactly battbatch's NDJSON job lines,
// including the per-job "battery" model spec. `-battery
// kind=...,param=...` sets the daemon-wide default battery applied to
// jobs that select none (kinds: rakhmatov, ideal, peukert, kibam,
// calibrated). The daemon writes one structured (JSON) access-log line
// per request to stderr (suppress with -quiet).
//
// Scheduling work is request-scoped: a client that disconnects cancels
// its in-flight batch instead of leaving the server to compute an
// answer nobody will read. `-timeout` bounds every request's scheduling
// time server-side (clients can bound individual jobs with the
// timeout_ms wire field). On SIGINT or SIGTERM the daemon answers new
// requests with 503 + Retry-After, cancels running batches — their
// unfinished jobs return the "canceled" code — and exits once the (now
// fast) drain completes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/battery"
	"repro/internal/cache"
	"repro/internal/server"
	"repro/internal/store"
)

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before the process exits anyway.
const shutdownGrace = 10 * time.Second

func main() {
	var (
		addr      = flag.String("addr", ":8347", "listen address")
		workers   = flag.Int("workers", 0, "concurrent scheduling computations, daemon-wide and per request (0 = GOMAXPROCS)")
		cacheSize = flag.Int("cache", 1024, "result cache entries (0 disables caching)")
		cacheDir  = flag.String("cache-dir", "", "directory for the disk-backed result store (empty = memory-only cache)")
		cacheDisk = flag.Int64("cache-disk-max-bytes", store.DefaultMaxBytes, "disk store byte budget, oldest entries evicted first (<0 = unbounded)")
		timeout   = flag.Duration("timeout", 0, "per-request scheduling time budget, e.g. 30s (0 = unbounded)")
		batt      = flag.String("battery", "", "default battery spec for jobs without one, e.g. kibam,capacity=40000,c=0.5,rate=0.1")
		quiet     = flag.Bool("quiet", false, "suppress per-request access logs")

		maxQueued    = flag.Int("queue", 0, "async job queue capacity; full submits get 429 (0 = 4096)")
		queueWorkers = flag.Int("queue-workers", 0, "concurrently executing async jobs (0 = 2*GOMAXPROCS)")
		jobTTL       = flag.Duration("job-ttl", 0, "default async job lifetime incl. queue wait, e.g. 5m (0 = unbounded)")
		jobRetention = flag.Duration("job-retention", 0, "how long finished async jobs stay pollable (0 = 5m)")

		breakThr = flag.Int("disk-breaker-threshold", 0, "disk errors within the window that trip the breaker to memory-only (0 = default 5, negative disables)")
		breakWin = flag.Duration("disk-breaker-window", 0, "sliding window the threshold counts over (0 = default 30s)")
		breakPrb = flag.Duration("disk-breaker-probe", 0, "how long an open breaker waits before half-open probing the disk (0 = default 10s)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", 0)
	var defaultBattery *battery.Spec
	if *batt != "" {
		spec, err := battery.ParseSpec(*batt)
		if err != nil {
			logger.Fatalf("battschedd: -battery: %v", err)
		}
		defaultBattery = &spec
	}
	cfg := server.Config{
		Workers: *workers,
		// The flag follows battbatch's convention (0 = caching off);
		// Config uses 0 = default, negative = off.
		CacheEntries:   *cacheSize,
		RequestTimeout: *timeout,
		DefaultBattery: defaultBattery,
		MaxQueued:      *maxQueued,
		QueueWorkers:   *queueWorkers,
		JobDefaultTTL:  *jobTTL,
		JobRetention:   *jobRetention,
		DiskBreaker: cache.BreakerConfig{
			Threshold: *breakThr,
			Window:    *breakWin,
			Probe:     *breakPrb,
		},
	}
	if *cacheSize == 0 {
		cfg.CacheEntries = -1
	}
	if *cacheDir != "" {
		if *cacheSize == 0 {
			// A disk tier under a disabled cache would never be read or
			// written; refuse the contradiction at startup.
			logger.Fatalf("battschedd: -cache-dir requires caching enabled (-cache > 0)")
		}
		st, rep, err := store.Open(*cacheDir, *cacheDisk)
		if err != nil {
			logger.Fatalf("battschedd: -cache-dir: %v", err)
		}
		logger.Printf("battschedd: warm start from %s: %d entries (%d bytes), %d corrupt skipped, %d tmp swept, %d evicted over budget",
			*cacheDir, rep.Entries, rep.Bytes, rep.Corrupt, rep.TmpSwept, rep.Evicted)
		cfg.CacheStore = st
	}
	if !*quiet {
		cfg.AccessLog = logger
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("battschedd: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger.Printf("battschedd: listening on %s", l.Addr())
	if err := serve(ctx, l, server.New(cfg), logger); err != nil {
		logger.Fatalf("battschedd: %v", err)
	}
}

// serve runs the HTTP server on l until it fails or ctx is cancelled,
// then drains for up to shutdownGrace. The drain is fast by
// construction: s.Close answers every new request with 503 +
// Retry-After and cancels in-flight scheduling work, so running batches
// return promptly with their unfinished jobs marked canceled instead of
// computing to the end. It returns nil on a clean shutdown.
func serve(ctx context.Context, l net.Listener, s *server.Server, logger *log.Logger) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	logger.Printf("battschedd: shutting down (draining up to %s)", shutdownGrace)
	s.Close()
	//battlint:allow ctxflow ctx is already cancelled here; deriving the drain deadline from it would skip the drain
	drainCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
