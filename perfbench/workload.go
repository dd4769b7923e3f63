package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/wire"
)

// workload is one traffic mix: the request sequence (warm-up positions
// first, timed positions after), the daemon configuration it runs
// against, and the check that the daemon took the path the workload
// exists to measure.
type workload struct {
	name    string
	clients int
	// tail is the latency percentile the workload is judged on, and so
	// the one that must have minTail samples beyond it in every run.
	tail    float64
	warmN   int // warm-up positions, part of set-up
	sigmaN  int // first timed positions whose jobs make sigma_mean
	keepN   int // first timed positions recomputed in process
	replayN int // timed positions a traced replay covers
	next    func(pos int) request
	memo    *memo

	// args configures the daemon for one life; dir is that life's
	// private scratch directory.
	args func(dir string) []string
	// prepare builds untimed inputs once per invocation; nil for none.
	prepare func(b *bench) error
	// fresh readies dir before a daemon life; nil for nothing to do.
	fresh func(b *bench, dir string) error
	// shape checks the daemon's counters over the timed phase.
	shape func(before, after serverMetrics, ph phase) error
}

// asyncRetention is async-restart's -job-retention. A stored job recurs
// after every other stored job has been re-requested — over a second
// at 2000 jobs/s — so a repeat finds its retained entry pruned unless
// the daemon gets more than four times faster.
const asyncRetention = 300 * time.Millisecond

var workloadNames = []string{"sync-hot", "batch-sweep-cold", "async-restart"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "sync-hot":
		return syncHot(seed), nil
	case "batch-sweep-cold":
		return batchSweepCold(seed), nil
	case "async-restart":
		return asyncRestart(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// syncHot: one client re-requests a working set that fits the default
// LRU, so every timed request is a memory hit and no scheduling runs.
func syncHot(seed int64) *workload {
	corpus, order := hotCorpus(seed), hotOrder(seed)
	return &workload{
		name:    "sync-hot",
		clients: 1,
		tail:    0.99,
		warmN:   hotGraphs, // one pass fills the LRU
		sigmaN:  hotGraphs, // the first timed cycle serves each graph once
		keepN:   16,
		replayN: 4 * hotGraphs,
		next: func(pos int) request {
			if pos < hotGraphs {
				return corpus[pos]
			}
			return corpus[order[(pos-hotGraphs)%hotGraphs]]
		},
		memo: newMemo(hotGraphs),
		args: func(string) []string { return nil },
		shape: func(before, after serverMetrics, ph phase) error {
			if after.Cache == nil || before.Cache == nil {
				return errNoCache
			}
			if n := after.Cache.Misses - before.Cache.Misses; n != 0 {
				return fmt.Errorf("sync-hot: %d timed jobs missed the cache", n)
			}
			return nil
		},
	}
}

// batchSweepCold: one client sends deadline sweeps over graphs the
// daemon has never seen, so every job computes.
func batchSweepCold(seed int64) *workload {
	const warmBodies = 6 // two of each size
	return &workload{
		name:    "batch-sweep-cold",
		clients: 1,
		// Fewer, larger requests: a run holds a few hundred, too few
		// for p99.
		tail:    0.90,
		warmN:   warmBodies,
		sigmaN:  batchSigmaBodies,
		keepN:   len(batchSizes),
		replayN: 4 * len(batchSizes),
		next:    func(pos int) request { return batchBody(seed, pos) },
		memo:    newMemo(0),
		args:    func(string) []string { return nil },
		shape: func(before, after serverMetrics, ph phase) error {
			if after.Cache == nil || before.Cache == nil {
				return errNoCache
			}
			hits := after.Cache.Hits - before.Cache.Hits + after.Cache.Dedups - before.Cache.Dedups
			if hits != 0 {
				return fmt.Errorf("batch-sweep-cold: %d timed jobs were served from cache", hits)
			}
			return nil
		},
	}
}

// asyncRestart: two clients submit async jobs to a daemon restarted on
// a disk store of storedJobs results with a small LRU; 7 of every 8
// jobs are disk hits, the 8th a new multistart job written through.
func asyncRestart(seed int64) *workload {
	plan := newAsyncPlan(seed)
	w := &workload{
		name:    "async-restart",
		clients: 2,
		tail:    0.99,
		warmN:   asyncWarmup,
		sigmaN:  sigmaSample,
		keepN:   16,
		replayN: sigmaSample,
		next:    plan.at,
		memo:    newMemo(storedJobs),
	}
	w.args = func(dir string) []string {
		// A finished job stays pollable for asyncRetention: long enough
		// for its stream read, shorter than the time before the
		// sequence re-requests the same stored job, so a repeat is a
		// disk hit, not a retained-job answer.
		return []string{"-cache-dir", dir, "-cache", strconv.Itoa(asyncLRU), "-job-retention", asyncRetention.String()}
	}
	w.prepare = func(b *bench) error { return b.populate(plan, w.memo) }
	w.fresh = func(b *bench, dir string) error { return copyTree(b.popDir(), dir) }
	w.shape = func(before, after serverMetrics, ph phase) error {
		if after.Cache == nil || before.Cache == nil {
			return errNoCache
		}
		var hits uint64
		for _, o := range ph.ops {
			if o.pos%mixPeriod != mixPeriod-1 {
				hits++
			}
		}
		if got := after.Cache.DiskHits - before.Cache.DiskHits; got != hits {
			return fmt.Errorf("async-restart: %d disk hits for %d re-requested stored jobs", got, hits)
		}
		if n := after.JobsAsync.Coalesced - before.JobsAsync.Coalesced; n != 0 {
			return fmt.Errorf("async-restart: %d jobs answered from queue retention instead of the store", n)
		}
		return nil
	}
	return w
}

func (b *bench) popDir() string { return filepath.Join(b.work, "population") }

// populate is the first daemon life of async-restart: it computes and
// stores every stored job under the population directory, and records
// each answer as the stream line later disk hits must repeat.
func (b *bench) populate(plan asyncPlan, m *memo) error {
	d, err := startDaemon(b.daemonBin, "-cache-dir", b.popDir(), "-cache", strconv.Itoa(asyncLRU), "-quiet")
	if err != nil {
		return err
	}
	defer d.stop()
	defer b.hc.CloseIdleConnections()
	if err := d.waitReady(b.hc); err != nil {
		return err
	}
	c := &client{hc: b.hc, base: d.base}
	const chunk = 256
	for lo := 0; lo < storedJobs; lo += chunk {
		req := request{path: "/v1/batch"}
		for i := lo; i < lo+chunk; i++ {
			job := plan.storedJob(i)
			req.body = append(append(req.body, mustJSON(job)...), '\n')
			req.jobs = append(req.jobs, jobRef{graph: plan.g3, deadline: job.Deadline, strategy: "iterative", memo: -1})
		}
		lines, err := c.send(req)
		if err != nil {
			return fmt.Errorf("populating the store: %w", err)
		}
		for j, ref := range req.jobs {
			cost, err := checkResult(ref, lines[j])
			if err != nil {
				return fmt.Errorf("populating stored job %d: %w", lo+j, err)
			}
			// A stream line is the same result at index 0.
			var res wire.Result
			if err := json.Unmarshal(lines[j], &res); err != nil {
				return err
			}
			res.Index = 0
			m.lines[lo+j], m.costs[lo+j] = append(mustJSON(res), '\n'), cost
		}
	}
	return nil
}

// lifeDir returns a fresh private directory for daemon life i.
func (b *bench) lifeDir(i int) (string, error) {
	dir := filepath.Join(b.work, "life-"+strconv.Itoa(i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// setUp starts one daemon life and brings it to the first timed
// request: exec, /readyz ok (after the store warm scan, when there is
// one) and the fixed warm-up pass. It returns the daemon and how long
// that took; preparing the life's directory is not counted.
func (b *bench) setUp(w *workload, life int) (*daemon, time.Duration, error) {
	dir, err := b.lifeDir(life)
	if err != nil {
		return nil, 0, err
	}
	if w.fresh != nil {
		if err := w.fresh(b, dir); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	d, err := startDaemon(b.daemonBin, w.args(dir)...)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitReady(b.hc); err != nil {
		d.stop()
		return nil, 0, err
	}
	if err := warm(&client{hc: b.hc, base: d.base}, w.memo, w.next, w.warmN); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("%w (daemon: %s)", err, d.lastLines())
	}
	return d, time.Since(t0), nil
}

// stopDaemon ends a life: idle keep-alive connections are closed first
// so the daemon's drain does not wait on them.
func (b *bench) stopDaemon(d *daemon) {
	b.hc.CloseIdleConnections()
	d.stop()
}
