// Command perfbench is the repository's serving benchmark. It runs a
// real battschedd as a separate process, drives it over loopback HTTP
// with a seeded workload, checks every answer, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload sync-hot --seed 1 --seconds 30 --trace 0
//
// Workloads (all closed loop):
//
//	sync-hot          1 client, POST /v1/schedule over 512 cached graphs
//	batch-sweep-cold  1 client, POST /v1/batch deadline sweeps over new graphs
//	async-restart     2 clients, POST /v1/jobs + stream against a restarted
//	                  daemon whose disk store holds 2048 results
//
// With --trace 0 it reports end-to-end metrics from the daemon; with
// --trace 1 it replays the same inputs through the layers' public
// functions in process, records spans, and reports per-layer metrics.
// BENCHMARK.json at the repository root lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// bench is one invocation's shared state.
type bench struct {
	root      string // checkout root
	daemonBin string
	work      string // this invocation's scratch directory
	seed      int64
	seconds   int
	hc        *http.Client
}

// setupLives is how many times each run sets the daemon up; setup_s is
// their median.
const setupLives = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, kept so medians and quartiles
// can be recomputed from the raw values.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	Problems []string       `json:"problems,omitempty"`
	Raw      map[string]any `json:"raw"`
	Result   result         `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sync-hot | batch-sweep-cold | async-restart")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "seconds one run measures")
		trace   = flag.Int("trace", 0, "1 = traced per-layer replay, 0 = end-to-end run")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("daemon", "", "battschedd binary")
		work    = flag.String("work", "", "scratch directory (default <root>/.bench_build/perfbench/work)")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -seconds >= 1 and -trace 0|1 (run it through perfbench/run.sh)")
		os.Exit(2)
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "perfbench", "work")
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{
		root:      *root,
		daemonBin: *bin,
		work:      filepath.Join(*work, strconv.Itoa(os.Getpid())),
		seed:      *seed,
		seconds:   *seconds,
		hc:        newHTTPClient(),
	}
	rec, err := b.run(w, *trace == 1)
	os.RemoveAll(b.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := b.save(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: the run record was not saved:", err)
	}
	meta, err := json.Marshal(map[string]any{"machine": rec.Machine})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
}

// run performs one benchmark run of w.
func (b *bench) run(w *workload, traced bool) (*record, error) {
	if err := os.MkdirAll(b.work, 0o777); err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Seed: b.seed, Seconds: b.seconds, Trace: traced, Raw: map[string]any{}}
	stat0 := readCPUStat()
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
	}
	var err error
	if traced {
		err = b.traced(w, rec)
	} else {
		err = b.endToEnd(w, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Machine = b.machine(stealPct(stat0, readCPUStat()))
	if traced {
		rec.Result.Metrics["host.steal_pct"] = metric{rec.Machine.StealPct, "%"}
	}
	for name, m := range rec.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run with failed checks leaves a metric unmeasured;
			// JSON has no NaN, so it reads 0 and the run is incorrect.
			rec.Problems = append(rec.Problems, name+" was not measured")
			rec.Result.Metrics[name] = metric{0, m.Unit}
		}
	}
	rec.Result.Correct = len(rec.Problems) == 0
	return rec, nil
}

// timed is one daemon life's timed phase with the daemon-side readings
// around it.
type timed struct {
	ph        phase
	peakRSS   int64
	stealPct  float64 // over the whole phase
	attempted int
	failed    int
	problems  []string
	windows   []hostWindow

	// Over the quiet windows only (see quietWindows): their length, and
	// the daemon CPU, done jobs and latencies of requests started in them.
	quiet    time.Duration
	cpu      time.Duration
	doneJobs int
	latMS    []float64 // sorted
}

// drive runs a timed phase on a set-up daemon for dur, from sequence
// position first (see runPhase for minPositions and keep).
func (b *bench) drive(w *workload, d *daemon, first, minPositions, keep int, dur time.Duration) (*timed, error) {
	c := &client{hc: b.hc, base: d.base}
	before, err := c.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	stat0 := readCPUStat()
	start := time.Now()
	stop := make(chan struct{})
	windows := make(chan []hostWindow, 1)
	go func() { windows <- watchHost(d, start, stop) }()
	ph := runPhase(c, w.memo, w.next, first, minPositions, keep, w.clients, start, dur)
	close(stop)
	t := &timed{ph: ph, windows: <-windows}
	stat1 := readCPUStat()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	t.stealPct = stealPct(stat0, stat1)
	if len(t.windows) == 0 { // a phase shorter than one window
		t.windows = []hostWindow{{to: ph.wall, stealPct: t.stealPct, daemonCPU: cpu1 - cpu0}}
	}
	quiet := quietWindows(t.windows)
	for _, q := range quiet {
		t.quiet += q.to - q.from
		t.cpu += q.daemonCPU
	}
	if t.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	after, err := c.metrics()
	if err != nil {
		return nil, err
	}
	for _, o := range ph.ops {
		t.attempted++
		if o.err != nil {
			t.failed++
			if t.failed <= 3 {
				t.problems = append(t.problems, o.err.Error())
			}
			continue
		}
		if within(quiet, o.start) {
			t.doneJobs += o.jobs
			t.latMS = append(t.latMS, float64(o.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(t.latMS)
	if err := w.shape(before, after, ph); err != nil {
		t.problems = append(t.problems, err.Error())
	}
	return t, nil
}

// endToEnd is the untraced run: several set-ups, then one timed phase
// on the last daemon life.
func (b *bench) endToEnd(w *workload, rec *record) error {
	var (
		setups []float64
		d      *daemon
	)
	for life := 0; life < setupLives; life++ {
		var (
			took time.Duration
			err  error
		)
		d, took, err = b.setUp(w, life)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if life < setupLives-1 {
			b.stopDaemon(d)
		}
	}
	t, err := b.drive(w, d, w.warmN, w.sigmaN, w.keepN, time.Duration(b.seconds)*time.Second)
	b.stopDaemon(d)
	if err != nil {
		return err
	}
	rec.Problems = append(rec.Problems, t.problems...)
	if err := checkSample(t.ph.sample); err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
	if len(t.ph.sample) < w.keepN {
		rec.Problems = append(rec.Problems, fmt.Sprintf("only %d of %d sampled requests succeeded", len(t.ph.sample), w.keepN))
	}

	sigma, err := sigmaMean(w, t.ph)
	if err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
	m := map[string]metric{
		"setup_s":               {median(setups), "s"},
		"throughput_jobs_s":     {float64(t.doneJobs) / t.quiet.Seconds(), "1/s"},
		"daemon_cpu_us_per_job": {float64(t.cpu.Microseconds()) / float64(max(t.doneJobs, 1)), "us"},
		"rss_peak_mb":           {float64(t.peakRSS) / (1 << 20), "MB"},
		"sigma_mean":            {sigma, "mA.min"},
		"success_rate":          {1 - float64(t.failed)/float64(max(t.attempted, 1)), "fraction"},
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v, _ := percentile(t.latMS, p.q)
		m[p.name] = metric{v, "ms"}
	}
	if err := tailProblem(t.latMS, w.tail); err != nil {
		rec.Problems = append(rec.Problems, err.Error())
	}
	rec.Result.Attempted, rec.Result.Failed, rec.Result.Metrics = t.attempted, t.failed, m
	rec.Raw["setup_s"] = setups
	rec.Raw["wall_s"] = t.ph.wall.Seconds()
	rec.Raw["quiet_done_jobs"] = t.doneJobs
	rec.Raw["quiet_daemon_cpu_s"] = t.cpu.Seconds()
	rec.Raw["timed_steal_pct"] = t.stealPct
	rec.Raw["quiet_s"] = t.quiet.Seconds()
	rec.Raw["op_start_s"], rec.Raw["op_latency_ms"], rec.Raw["op_jobs"] = opTimeline(t.ph)
	var wins [][4]float64
	for _, hw := range t.windows {
		wins = append(wins, [4]float64{hw.from.Seconds(), hw.to.Seconds(), hw.stealPct, hw.daemonCPU.Seconds()})
	}
	rec.Raw["windows_from_to_steal_cpu"] = wins
	return nil
}

// sigmaMean is the mean cost σ of the jobs at the first w.sigmaN timed
// positions — a fixed job set per seed, so it moves only if schedules do.
func sigmaMean(w *workload, ph phase) (float64, error) {
	var (
		costs []float64
		seen  int
	)
	for _, o := range ph.ops {
		if o.pos >= w.warmN+w.sigmaN {
			break
		}
		if o.err != nil {
			return math.NaN(), fmt.Errorf("sigma_mean: position %d failed", o.pos)
		}
		seen++
		costs = append(costs, o.costs...)
	}
	if seen != w.sigmaN {
		return math.NaN(), fmt.Errorf("sigma_mean: %d of %d positions ran", seen, w.sigmaN)
	}
	return mean(costs), nil
}

// opTimeline lists every timed request's start, latency and job count
// in sequence order (failed requests have latency -1).
func opTimeline(ph phase) (start, latMS []float64, jobs []int) {
	for _, o := range ph.ops {
		start = append(start, o.start.Seconds())
		l := float64(o.lat) / float64(time.Millisecond)
		if o.err != nil {
			l = -1
		}
		latMS = append(latMS, l)
		jobs = append(jobs, o.jobs)
	}
	return start, latMS, jobs
}

// save writes the run record under .bench_build/perfbench/runs.
func (b *bench) save(rec *record) error {
	dir := filepath.Join(b.root, ".bench_build", "perfbench", "runs")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	mode := "e2e"
	if rec.Trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%d.json", rec.Workload, rec.Seed, mode, time.Now().UnixNano())
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o666)
}

// machine is the shape a run measured on.
type machine struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	StealPct   float64 `json:"steal_pct"`
}

func (b *bench) machine(steal float64) machine {
	return machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     sourceID(b.root),
		Seed:       b.seed,
		StealPct:   steal,
	}
}
