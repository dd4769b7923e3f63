// Command battload load-tests a battschedd's async job API and proves
// (or disproves) its serving SLOs: a fleet of virtual clients submits
// scheduling jobs, consumes results by polling or streaming, and the
// run reports latency histograms (p50/p95/p99 for submit, poll and
// end-to-end), throughput, and the contract verification that makes
// "handles N concurrent clients" a tested claim — zero lost jobs, zero
// double completions, with admission-control rejections accounted
// separately from failures.
//
// Usage:
//
//	battload [-addr http://127.0.0.1:8347 | -self] [-mode poll|stream]
//	         [-n 1000] [-c 64] [-rate 0]
//	         [-fixture g3] [-deadline-min 100] [-deadline-max 230]
//	         [-priorities 0:7,5:2,9:1] [-dup-every 0] [-ttl 0] [-timeout 0]
//	         [-resilient] [-verify-bytes]
//	         [-self-faults schedule] [-self-store dir] [-min-faults 0]
//	         [-self-breaker-threshold 0] [-self-breaker-window 0] [-self-breaker-probe 0]
//	         [-slo-e2e-p99 0] [-slo-submit-p99 0] [-slo-poll-p99 0]
//	         [-slo-error-rate -1] [-assert] [-o report.json] [-cpuprofile cpu.pprof]
//
// Examples:
//
//	# Self-contained SLO smoke (starts an in-process battschedd):
//	battload -self -n 300 -c 64 -slo-e2e-p99 10s -slo-error-rate 0 -assert
//
//	# Chaos run: deterministic disk faults under the store, the breaker
//	# cycling, the resilient client in front, zero loss asserted:
//	battload -self -resilient -n 800 -c 32 \
//	    -self-faults "write:every=1:eio,read:every=2:eio" \
//	    -self-breaker-threshold 100 -self-breaker-probe 20ms \
//	    -min-faults 100 -assert
//
// -resilient submits and polls through internal/client (capped backoff
// with deterministic jitter, Retry-After floors) instead of raw HTTP,
// and resubmits a job the server answers 404 for after a restart; the
// report then carries the client's own attempt/retry ledger.
// -self-faults installs a deterministic fault schedule (see
// internal/fault) under -self's disk store and the run logs the chaos
// ledger — faults injected per op, disk errors, breaker state and
// trips; with -assert, -min-faults turns "the chaos leg actually ran"
// into a checked claim.
//
// The human-readable summary goes to stderr; -o writes the full JSON
// report. battload checks the serving contract and SLOs; perfbench/ is
// the repository's serving benchmark. Exit status: 0 clean, 1 when
// -assert is set and the SLO was violated or the serving contract broke
// (lost or double-completed jobs — contract breaks fail even without SLO
// flags), 2 for unusable flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr = flag.String("addr", "http://127.0.0.1:8347", "base URL of the battschedd under test")
		self = flag.Bool("self", false, "start an in-process battschedd and test that (ignores -addr)")

		mode = flag.String("mode", "poll", "result consumption: poll | stream")
		n    = flag.Int("n", 1000, "total submissions")
		c    = flag.Int("c", 64, "concurrent virtual clients")
		rate = flag.Float64("rate", 0, "open-loop target arrival rate per second (0 = closed loop)")

		fixture  = flag.String("fixture", "g3", "built-in graph every job schedules")
		dmin     = flag.Float64("deadline-min", 100, "deadline spread lower bound (minutes)")
		dmax     = flag.Float64("deadline-max", 230, "deadline spread upper bound (minutes)")
		priomix  = flag.String("priorities", "", "weighted priority mix, e.g. 0:7,5:2,9:1 (default all 0)")
		dupEvery = flag.Int("dup-every", 0, "every k-th submission duplicates its predecessor (exercises coalescing; 0 = never)")
		ttl      = flag.Duration("ttl", 0, "per-job ttl_ms (0 = server default)")
		timeout  = flag.Duration("timeout", 0, "per-job timeout_ms (0 = unbounded)")

		pollInterval = flag.Duration("poll-interval", 2*time.Millisecond, "first poll delay (backs off 1.5x to 25x this)")
		noRetry      = flag.Bool("no-retry", false, "treat 429/503 as final instead of backing off and resubmitting")
		verify       = flag.Bool("verify", true, "confirm each terminal state with one extra poll (double-completion check)")
		runTimeout   = flag.Duration("run-timeout", 0, "bound the whole run (0 = until done or signal)")

		sloSubmit  = flag.Duration("slo-submit-p99", 0, "SLO: accepted-submission p99 (0 = unchecked)")
		sloPoll    = flag.Duration("slo-poll-p99", 0, "SLO: status-poll p99 (0 = unchecked)")
		sloE2E     = flag.Duration("slo-e2e-p99", 0, "SLO: submit-to-done p99 (0 = unchecked)")
		sloErrRate = flag.Float64("slo-error-rate", -1, "SLO: max error fraction of attempts (negative = unchecked)")
		assert     = flag.Bool("assert", false, "exit 1 on SLO violation or contract break")

		out = flag.String("o", "", "write the full JSON report here")

		selfQueue   = flag.Int("self-queue", 0, "with -self: queue capacity (0 = default)")
		selfWorkers = flag.Int("self-queue-workers", 0, "with -self: queue worker count (0 = default)")

		resilient   = flag.Bool("resilient", false, "drive the run through internal/client's retrying client (absorbs restarts and backpressure)")
		verifyBytes = flag.Bool("verify-bytes", true, "record result bytes per job ID and count divergent re-observations")

		selfFaults   = flag.String("self-faults", "", "with -self: deterministic disk-fault schedule for the store, e.g. write:every=5:eio (see internal/fault)")
		selfStore    = flag.String("self-store", "", "with -self: disk store directory (default: a temp dir; required for -self-faults to matter)")
		selfBreakThr = flag.Int("self-breaker-threshold", 0, "with -self: disk breaker error threshold (0 = default)")
		selfBreakWin = flag.Duration("self-breaker-window", 0, "with -self: disk breaker error window (0 = default)")
		selfBreakPrb = flag.Duration("self-breaker-probe", 0, "with -self: disk breaker half-open probe interval (0 = default)")
		minFaults    = flag.Int("min-faults", 0, "with -assert: fail unless at least this many faults were injected (proves the chaos leg ran)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run (submission through completion) here; with -self it profiles server + scheduler together, the input scripts/pgo.sh feeds to profile-guided builds")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", 0)

	mix, err := loadgen.ParsePriorityMix(*priomix)
	if err != nil {
		logger.Println("battload:", err)
		os.Exit(2)
	}
	if *n <= 0 {
		logger.Printf("battload: -n must be positive, got %d", *n)
		os.Exit(2)
	}
	if *c <= 0 {
		logger.Printf("battload: -c must be positive, got %d", *c)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}

	base := *addr
	var srv *server.Server
	var injector *fault.Injector
	if *selfFaults != "" && !*self {
		logger.Println("battload: -self-faults requires -self")
		os.Exit(2)
	}
	if *self {
		scfg := server.Config{
			MaxQueued:    *selfQueue,
			QueueWorkers: *selfWorkers,
			DiskBreaker: cache.BreakerConfig{
				Threshold: *selfBreakThr,
				Window:    *selfBreakWin,
				Probe:     *selfBreakPrb,
			},
		}
		if *selfFaults != "" || *selfStore != "" {
			rules, err := fault.ParseRules(*selfFaults)
			if err != nil {
				logger.Println("battload:", err)
				os.Exit(2)
			}
			dir := *selfStore
			if dir == "" {
				var err error
				if dir, err = os.MkdirTemp("", "battload-chaos-*"); err != nil {
					logger.Fatalln("battload:", err)
				}
				defer os.RemoveAll(dir)
			}
			injector = fault.NewInjector(fault.OS, rules...)
			st, rep, err := store.OpenFS(dir, 0, injector)
			if err != nil {
				logger.Fatalln("battload:", err)
			}
			scfg.CacheStore = st
			logger.Printf("battload: disk store at %s (%d entries warm, %d tmp swept), fault schedule %q",
				dir, rep.Entries, rep.TmpSwept, *selfFaults)
		}
		srv = server.New(scfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			logger.Fatalln("battload:", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(l)
		defer func() {
			srv.Close()
			hs.Close()
		}()
		base = "http://" + l.Addr().String()
		logger.Printf("battload: in-process battschedd on %s", base)
	}

	spec := loadgen.JobSpec{
		Fixture:     *fixture,
		DeadlineMin: *dmin,
		DeadlineMax: *dmax,
		DupEvery:    *dupEvery,
		Priorities:  mix,
		TTLMS:       ttl.Milliseconds(),
		TimeoutMS:   timeout.Milliseconds(),
	}
	cfg := loadgen.Config{
		BaseURL:        base,
		Mode:           loadgen.Mode(*mode),
		Jobs:           *n,
		Concurrency:    *c,
		Rate:           *rate,
		PollInterval:   *pollInterval,
		NoRetry429:     *noRetry,
		VerifyTerminal: *verify,
		VerifyBytes:    *verifyBytes,
		Resilient:      *resilient,
		NewJob:         spec.Job,
		SLO: &loadgen.SLO{
			SubmitP99:    *sloSubmit,
			PollP99:      *sloPoll,
			E2EP99:       *sloE2E,
			MaxErrorRate: *sloErrRate,
		},
	}

	// The profile brackets exactly the load phase — no flag parsing or
	// server bring-up noise — and is stopped explicitly (not deferred)
	// because the assert path exits through os.Exit.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			logger.Fatalln("battload:", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Fatalln("battload:", err)
		}
		defer f.Close()
	}
	res, err := loadgen.Run(ctx, cfg)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		logger.Printf("battload: wrote CPU profile to %s", *cpuprofile)
	}
	if err != nil {
		logger.Fatalln("battload:", err)
	}

	failed := false
	logger.Println(summarize(res))
	if verr := res.Verify(); verr != nil {
		logger.Println("battload: CONTRACT VIOLATION:", verr)
		failed = true
	}
	for _, v := range res.Violations {
		logger.Println("battload: SLO VIOLATION:", v)
		failed = true
	}

	// The chaos ledger: how many faults actually fired, and what the
	// breaker did about them. A chaos run whose schedule never fired
	// proves nothing, so -min-faults (with -assert) turns "the faults
	// ran" into a checked claim.
	var chaos map[string]any
	if injector != nil {
		chaos = map[string]any{
			"schedule":     *selfFaults,
			"injected":     injector.Injected(),
			"injected_ops": injector.InjectedByOp(),
		}
		m := srv.Metrics()
		if m.Cache != nil {
			chaos["disk_errors"] = m.Cache.DiskErrors
			chaos["disk_breaker_state"] = m.Cache.DiskBreakerState
			chaos["disk_breaker_open"] = m.Cache.DiskBreakerOpen
			chaos["disk_skipped"] = m.Cache.DiskSkipped
		}
		logger.Printf("battload: chaos: %d fault(s) injected (%v); disk breaker %v (tripped %v, skipped %v disk ops)",
			injector.Injected(), chaos["injected_ops"], chaos["disk_breaker_state"], chaos["disk_breaker_open"], chaos["disk_skipped"])
		if *minFaults > 0 && injector.Injected() < uint64(*minFaults) {
			logger.Printf("battload: CHAOS UNDERRUN: %d fault(s) injected, want >= %d", injector.Injected(), *minFaults)
			failed = true
		}
	} else if *minFaults > 0 {
		logger.Println("battload: -min-faults set but no fault schedule is active")
		failed = true
	}

	if *out != "" {
		doc := map[string]any{"results": []*loadgen.Result{res}}
		if chaos != nil {
			doc["chaos"] = chaos
		}
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			logger.Fatalln("battload:", err)
		}
		logger.Printf("battload: wrote %s", *out)
	}
	if failed && *assert {
		os.Exit(1)
	}
}

// summarize renders one result as the stderr progress line.
func summarize(r *loadgen.Result) string {
	return fmt.Sprintf(
		"battload: mode=%s c=%d jobs=%d: done=%d (err-results %d) expired=%d aborted=%d lost=%d dup=%d rejected429=%d errors=%d | e2e p50/p95/p99 = %.1f/%.1f/%.1fms | poll p99 %.1fms (%d polls) | %.0f jobs/s in %.1fs",
		r.Mode, r.Concurrency, r.Jobs, r.Done, r.DoneWithError, r.Expired, r.Aborted,
		r.Lost, r.DoubleTerminal, r.Rejected, r.Errors,
		r.E2E.P50MS, r.E2E.P95MS, r.E2E.P99MS, r.Poll.P99MS, r.Polls,
		r.ThroughputJPS, r.DurationMS/1000)
}
