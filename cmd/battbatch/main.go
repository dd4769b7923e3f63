// Command battbatch schedules a stream of jobs — one JSON object per
// line (NDJSON) — over a bounded worker pool and writes one JSON result
// line per job, in input order. It is the bulk front end to the batch
// engine: heavy traffic goes through here, one process, all cores. The
// battschedd daemon serves the same wire schema over HTTP (see
// docs/API.md).
//
// Usage:
//
//	battbatch [-in jobs.ndjson] [-out results.ndjson] [-workers 8] [-cache 0] [-timeout 0]
//	echo '{"fixture":"g3","deadline":230,"strategy":"multistart"}' | battbatch
//
// A job line looks like:
//
//	{"name":"j1","fixture":"g2","deadline":75,"strategy":"iterative"}
//	{"name":"j2","graph":{"tasks":[...]},"deadline":40,"strategy":"rv-dp","beta":0.273}
//	{"name":"j3","fixture":"g3","deadline":230,"strategy":"multistart","restarts":16,"seed":7}
//
// `fixture` (g2 | g3) and `graph` (the taskgen/battsched JSON schema,
// inline) are mutually exclusive. Strategies: iterative (default),
// multistart, withidle, rv-dp, chowdhury, all-fastest, lowest-power.
// A `battery` object selects the cost model declaratively per job
// (kinds: rakhmatov, ideal, peukert, kibam, calibrated — docs/API.md
// has the parameter reference); `-battery kind=...,param=...` sets a
// default spec for the lines that carry neither `battery` nor `beta`.
// Jobs are validated at decode time: NaN/Inf or non-positive deadlines,
// negative currents, invalid battery parameters and unknown fields are
// rejected with an error naming the field, before any scheduling work
// starts.
//
// A result line echoes index/name/strategy and carries either the
// schedule (order, assignment, cost, duration, energy) or an "error"
// string; a malformed or infeasible job never aborts the batch. Output
// is byte-deterministic for a fixed input, whatever -workers is.
// `-cache n` deduplicates repeated jobs within the batch through an
// n-entry result cache (0 disables it; the output bytes are identical
// either way, only wall-clock time changes).
//
// The batch is cancelable: SIGINT (Ctrl-C) stops the scheduling work
// mid-batch instead of letting it run to the end — every line still gets
// a result, with unfinished jobs carrying the "canceled" error code and
// finished ones their normal (bit-identical) payloads. `-timeout`
// bounds the whole batch the same way; a per-job "timeout_ms" field
// bounds a single line.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"repro/internal/battery"
	"repro/internal/cache"
	"repro/internal/wire"
)

// run reads NDJSON jobs from r, schedules them over `workers` goroutines
// (through a cacheEntries-bounded result cache when cacheEntries > 0)
// and writes NDJSON results to w, stopping early — but still writing
// every result line — when ctx is canceled. defaultBattery, when
// non-nil, applies to jobs that select no battery of their own (no
// "battery" object, no "beta"). It returns the number of failed jobs
// (canceled ones included).
func run(ctx context.Context, r io.Reader, w io.Writer, workers, cacheEntries int, defaultBattery *battery.Spec) (failed int, err error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("reading jobs: %w", err)
	}
	// One output slot per non-blank input line; a line that fails to
	// decode keeps its slot and reports its own error (see
	// wire.DecodeJobs).
	wjobs, jobs, parseErrs := wire.DecodeJobs(body)
	for i := range jobs {
		wire.ApplyDefaultBattery(&jobs[i], defaultBattery)
	}

	ce := cache.Engine{Workers: workers}
	if cacheEntries > 0 {
		ce.Cache = cache.New(cacheEntries)
	}
	results, _ := ce.RunBatchContext(ctx, jobs)
	enc := json.NewEncoder(w)
	for i, out := range wire.Results(wjobs, results, parseErrs) {
		if out.Error != "" {
			failed++
		}
		if err := enc.Encode(out); err != nil {
			return failed, fmt.Errorf("writing result %d: %w", i, err)
		}
	}
	return failed, nil
}

func main() {
	var (
		in           = flag.String("in", "", "jobs NDJSON file (default stdin)")
		out          = flag.String("out", "", "results NDJSON file (default stdout)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache", 0, "dedupe repeated jobs through an n-entry result cache (0 = off)")
		timeout      = flag.Duration("timeout", 0, "whole-batch time budget, e.g. 30s (0 = unbounded)")
		batt         = flag.String("battery", "", "default battery spec for jobs without one, e.g. kibam,capacity=40000,c=0.5,rate=0.1")
	)
	flag.Parse()
	var defaultBattery *battery.Spec
	if *batt != "" {
		spec, err := battery.ParseSpec(*batt)
		if err != nil {
			fatal(err)
		}
		defaultBattery = &spec
	}

	// SIGINT cancels the running batch (results written so far are kept,
	// the rest report the canceled code); a second SIGINT kills the
	// process via the restored default handler — AfterFunc unregisters
	// the diversion the moment the first signal lands, NotifyContext
	// alone would swallow every subsequent one until main returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	failed, err := run(ctx, r, bw, *workers, *cacheEntries, defaultBattery)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "battbatch: %d job(s) failed (see \"error\" fields)\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "battbatch:", err)
	os.Exit(1)
}
