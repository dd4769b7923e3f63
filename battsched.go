// Package battsched is a from-scratch Go reproduction of "An Iterative
// Algorithm for Battery-Aware Task Scheduling on Portable Computing
// Platforms" (Jawad Khan & Ranga Vemuri, DATE 2005).
//
// The library schedules an application — a precedence task graph whose
// tasks each offer several design points (voltage/frequency settings on a
// DVS processor, or alternative FPGA bitstreams) — onto a battery-powered
// platform so that a deadline is met and the battery charge drawn, as
// estimated by the Rakhmatov–Vrudhula analytical battery model, is as
// small as possible.
//
// # Quick start
//
//	var b battsched.Builder
//	b.AddTask(1, "decode", battsched.DesignPoint{Current: 500, Time: 2.0},
//	    battsched.DesignPoint{Current: 120, Time: 4.5})
//	b.AddTask(2, "render", battsched.DesignPoint{Current: 700, Time: 1.5},
//	    battsched.DesignPoint{Current: 160, Time: 3.5})
//	b.AddEdge(1, 2)
//	g, err := b.Build()
//	// handle err
//	res, err := battsched.Run(g, 7.0, battsched.Options{})
//	// res.Schedule, res.Cost (mA·min), res.Duration …
//
// The paper's two benchmark graphs are available as G2() (robotic arm
// controller case study) and G3() (15-task fork-join illustrative
// example); cmd/paperrepro regenerates every table of the paper's
// evaluation from them.
//
// Beyond single runs, RunBatch fans independent jobs over a worker pool,
// and RunCached/RunBatchCached put a content-addressed result cache in
// front of the engine for repeated-request workloads; cmd/battschedd
// serves the same engine and cache over HTTP (see ARCHITECTURE.md and
// docs/API.md).
//
// This facade re-exports the stable surface of the internal packages;
// units everywhere are milliamperes, minutes and mA·min.
package battsched

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/battery"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

//go:generate go run ./cmd/taskgen -fixture g2 -o testdata/g2.json
//go:generate go run ./cmd/taskgen -fixture g3 -o testdata/g3.json

// Graph is an immutable task graph; build one with Builder.
type Graph = taskgraph.Graph

// Builder accumulates tasks and precedence edges and validates them into a
// Graph.
type Builder = taskgraph.Builder

// Task is one node of the graph.
type Task = taskgraph.Task

// DesignPoint is one implementation option of a task: average platform
// current (mA) and execution time (minutes).
type DesignPoint = taskgraph.DesignPoint

// Spec is the JSON interchange form of a graph (see Graph.ToSpec,
// taskgraph.ReadJSON).
type Spec = taskgraph.Spec

// Schedule is a sequential task order plus one design point per task.
type Schedule = sched.Schedule

// Stats summarizes a schedule under a battery model and deadline.
type Stats = sched.Stats

// Options configures the iterative scheduler; the zero value reproduces
// the paper's configuration.
type Options = core.Options

// Result is the scheduler outcome: the best schedule, its battery cost
// sigma (mA·min), duration, energy and the iteration trace.
type Result = core.Result

// Trace is the per-iteration run history (Options.RecordTrace).
type Trace = core.Trace

// Scheduler runs the paper's algorithm for one graph and deadline; most
// callers only need Run.
type Scheduler = core.Scheduler

// Runner executes one Scheduler repeatedly while reusing all mutable run
// state — after a warm-up run the steady state performs zero heap
// allocations (tracing off). Create one per goroutine with
// Scheduler.NewRunner; the returned Result is owned by the Runner and
// overwritten by its next run.
type Runner = core.Runner

// SweepRunner evaluates one graph + options across many deadlines while
// reusing everything that does not depend on the deadline (battery model
// resolution, matrices, candidate pruning, the initial sequence and the
// scratch arena). A deadline sweep through it costs one construction
// plus O(1) setup per deadline; each result is bit-identical to
// Run(g, deadline, opt)'s. Like Runner it is a single goroutine's arena,
// and its returned Result is overwritten by the next call.
type SweepRunner = core.SweepRunner

// NewSweepRunner validates the graph and options once and returns a
// runner for sweeping deadlines over them.
func NewSweepRunner(g *Graph, opt Options) (*SweepRunner, error) {
	return core.NewSweepRunner(g, opt)
}

// MaxApprox bounds Options.Approx, the documented approximation mode's
// per-decision suitability tolerance (0 = exact mode, the default).
const MaxApprox = core.MaxApprox

// ErrDeadlineInfeasible is returned when even the all-fastest assignment
// misses the deadline.
var ErrDeadlineInfeasible = core.ErrDeadlineInfeasible

// ErrCanceled marks a batch job cut short by its context or timeout —
// whether it never started or was aborted mid-search. Match it with
// errors.Is on BatchResult.Err.
var ErrCanceled = engine.ErrCanceled

// BatteryModel estimates the apparent charge a discharge profile draws.
type BatteryModel = battery.Model

// BatterySpec is the declarative, serializable battery-model selection:
// a kind plus that kind's validated parameters. Unlike a BatteryModel
// value, a spec can travel over the wire (the jobs' "battery" JSON
// object), be parsed from a -battery CLI flag (ParseBatterySpec), and
// be hashed into the result cache key — spec-based jobs are fully
// cacheable. Set it on Options.Battery; the zero Options (or
// DefaultBatterySpec) reproduces the paper's Rakhmatov configuration
// bit-identically.
type BatterySpec = battery.Spec

// The accepted BatterySpec kinds.
const (
	BatteryKindRakhmatov  = battery.KindRakhmatov
	BatteryKindIdeal      = battery.KindIdeal
	BatteryKindPeukert    = battery.KindPeukert
	BatteryKindKiBaM      = battery.KindKiBaM
	BatteryKindCalibrated = battery.KindCalibrated
)

// DefaultBatterySpec returns the paper's battery configuration
// (Rakhmatov, beta 0.273, ten series terms) as a spec.
func DefaultBatterySpec() BatterySpec { return battery.DefaultSpec() }

// ParseBatterySpec parses the -battery CLI flag syntax (for example
// "kibam,capacity=40000,c=0.5,rate=0.1") into a validated BatterySpec.
func ParseBatterySpec(flag string) (BatterySpec, error) { return battery.ParseSpec(flag) }

// BatterySpecKinds returns the accepted spec kinds, in display order.
func BatterySpecKinds() []string { return battery.Kinds() }

// Profile is a piecewise-constant discharge profile.
type Profile = battery.Profile

// Interval is one constant-current segment of a Profile.
type Interval = battery.Interval

// Rakhmatov is the Rakhmatov–Vrudhula analytical battery model (the
// paper's Equation 1).
type Rakhmatov = battery.Rakhmatov

// Ideal is the linear coulomb-counting battery model.
type Ideal = battery.Ideal

// Peukert is the Peukert's-law battery model.
type Peukert = battery.Peukert

// KiBaM is the kinetic (two-well) battery model.
type KiBaM = battery.KiBaM

// SVGOptions controls Profile.WriteSVG chart rendering.
type SVGOptions = battery.SVGOptions

// DefaultBeta is the paper's diffusion parameter (0.273 min^-1/2).
const DefaultBeta = battery.DefaultBeta

// New prepares a Scheduler; see Run for the one-shot form.
func New(g *Graph, deadline float64, opt Options) (*Scheduler, error) {
	return core.New(g, deadline, opt)
}

// Run schedules the graph against the deadline with the paper's iterative
// algorithm and returns the best schedule found.
func Run(g *Graph, deadline float64, opt Options) (*Result, error) {
	s, err := core.New(g, deadline, opt)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunContext is Run with cooperative cancellation: the iterative search
// checks ctx between iterations, windows and sequence positions, so it
// stops promptly — returning ctx.Err() — once the caller gives up. A
// run that completes is bit-identical to Run's.
func RunContext(ctx context.Context, g *Graph, deadline float64, opt Options) (*Result, error) {
	s, err := core.New(g, deadline, opt)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// RunBaselineRV runs the comparison algorithm of the paper's reference
// [1]: exact minimum-energy design-point selection under the deadline (a
// dynamic program) followed by Equation-5 greedy sequencing.
func RunBaselineRV(g *Graph, deadline float64) (*Schedule, error) {
	return baseline.RakhmatovSchedule(g, deadline)
}

// RunBaselineChowdhury runs the reference-[7]-style heuristic: all tasks
// start fastest, then are scaled down as far as the slack allows starting
// from the last task. A nil order uses the graph's deterministic
// topological order.
func RunBaselineChowdhury(g *Graph, deadline float64, order []int) (*Schedule, error) {
	return baseline.ChowdhurySchedule(g, deadline, order)
}

// NewRakhmatov returns the paper's battery model with the given beta and
// ten series terms.
func NewRakhmatov(beta float64) Rakhmatov { return battery.NewRakhmatov(beta) }

// NewKiBaM returns a kinetic battery model with the given capacity
// (mA·min), available-well fraction c in (0,1] and rate constant k
// (1/min).
func NewKiBaM(capacity, c, k float64) KiBaM { return battery.NewKiBaM(capacity, c, k) }

// NewPeukert returns a Peukert's-law model with exponent k >= 1 and
// reference current in mA.
func NewPeukert(exponent, refCurrent float64) Peukert {
	return battery.NewPeukert(exponent, refCurrent)
}

// Observation is one measured constant-current discharge (current in mA,
// lifetime in minutes), used to calibrate the battery model.
type Observation = battery.Observation

// FitRakhmatov estimates the Rakhmatov model's (capacity, beta) from
// constant-current lifetime measurements — the calibration step that turns
// datasheet numbers into scheduler parameters.
func FitRakhmatov(obs []Observation) (alpha, beta float64, err error) {
	return battery.FitRakhmatov(obs)
}

// IdlePlan is a slack-as-rest assignment produced by RunWithIdle.
type IdlePlan = core.IdlePlan

// MultiStartOptions configures RunMultiStart.
type MultiStartOptions = core.MultiStartOptions

// RunMultiStart runs the algorithm from its deterministic initial sequence
// plus several seeded random topological orders and returns the best
// result found (never worse than Run's).
func RunMultiStart(g *Graph, deadline float64, opt Options, ms MultiStartOptions) (*Result, error) {
	s, err := core.New(g, deadline, opt)
	if err != nil {
		return nil, err
	}
	return core.RunMultiStart(s, ms)
}

// RunMultiStartContext is RunMultiStart with cooperative cancellation:
// ctx is checked between restarts and inside each restart's search, and
// a completed search is bit-identical to RunMultiStart's.
func RunMultiStartContext(ctx context.Context, g *Graph, deadline float64, opt Options, ms MultiStartOptions) (*Result, error) {
	s, err := core.New(g, deadline, opt)
	if err != nil {
		return nil, err
	}
	return core.RunMultiStartContext(ctx, s, ms)
}

// BatchJob is one request of a batch: a graph, a deadline and a strategy
// name (iterative, multistart, withidle, rv-dp, chowdhury, all-fastest,
// lowest-power; empty means iterative).
type BatchJob = engine.Job

// BatchResult is the outcome of one BatchJob, with a per-job Err instead
// of a batch-wide failure.
type BatchResult = engine.Result

// BatchEngine executes batches of scheduling jobs over a bounded worker
// pool; the zero value bounds the pool at GOMAXPROCS.
type BatchEngine = engine.Engine

// BatchStrategies returns the canonical strategy names RunBatch accepts.
func BatchStrategies() []string { return engine.Strategies() }

// RunBatch schedules every job over a pool of `workers` goroutines
// (0 means GOMAXPROCS) and returns one result per job, in input order.
// Failures land in BatchResult.Err; RunBatch itself never fails, and its
// output is byte-deterministic for a fixed batch regardless of workers.
func RunBatch(jobs []BatchJob, workers int) []BatchResult {
	return engine.RunBatch(jobs, workers)
}

// RunBatchContext is RunBatch with request-scoped cancellation: once
// ctx is done, jobs not yet started are marked ErrCanceled without
// running, in-flight iterative searches abort at their next cooperative
// check, and jobs that completed first keep results bit-identical to an
// uncancelled run's. Per-job budgets go in BatchJob.Timeout.
func RunBatchContext(ctx context.Context, jobs []BatchJob, workers int) []BatchResult {
	return engine.RunBatchContext(ctx, jobs, workers)
}

// Cache is a bounded, concurrency-safe LRU of scheduling results keyed
// by a canonical content hash of (graph, deadline, strategy, options,
// multi-start config), with single-flight deduplication: identical
// concurrent requests compute once. Create one with NewCache and share
// it across RunCached/RunBatchCached calls (and goroutines) — that
// sharing is the point.
type Cache = cache.Cache

// CacheStats is a point-in-time snapshot of a Cache's hit/miss/dedup/
// eviction counters.
type CacheStats = cache.Stats

// NewCache returns an empty result cache bounded at maxEntries (0 means
// a 1024-entry default).
func NewCache(maxEntries int) *Cache { return cache.New(maxEntries) }

// RunCached is Run behind a result cache: a repeated (graph, deadline,
// options) triple answers from memory, and identical concurrent calls
// compute once. Results are deep copies, so callers may mutate them
// freely. A nil cache or Options.RecordTrace (the trace is not cached)
// falls back to a plain Run; every battery spec is cacheable.
func RunCached(c *Cache, g *Graph, deadline float64, opt Options) (*Result, error) {
	if c == nil || opt.RecordTrace {
		return Run(g, deadline, opt)
	}
	ce := cache.Engine{Cache: c, Workers: 1}
	res, _ := ce.Run(engine.Job{Graph: g, Deadline: deadline, Options: opt})
	if res.Err != nil {
		return nil, res.Err
	}
	return &Result{
		Schedule:   res.Schedule,
		Cost:       res.Cost,
		Duration:   res.Duration,
		Energy:     res.Energy,
		Iterations: res.Iterations,
	}, nil
}

// RunBatchCached is RunBatch behind a result cache: repeated jobs —
// within the batch or across batches sharing the cache — are answered
// from memory, and identical jobs in flight at the same time compute
// once. The results are identical to RunBatch's for any workers value
// and any cache state.
func RunBatchCached(c *Cache, jobs []BatchJob, workers int) []BatchResult {
	ce := cache.Engine{Cache: c, Workers: workers}
	results, _ := ce.RunBatch(jobs)
	return results
}

// RunBatchCachedContext is RunBatchCached with request-scoped
// cancellation. A canceled caller detaches from any single-flight
// computation it was waiting on without poisoning it for other waiters,
// and a computation aborted by cancellation is never stored — the cache
// only ever holds results of completed, deterministic runs.
func RunBatchCachedContext(ctx context.Context, c *Cache, jobs []BatchJob, workers int) []BatchResult {
	ce := cache.Engine{Cache: c, Workers: workers}
	results, _ := ce.RunBatchContext(ctx, jobs)
	return results
}

// RunWithIdle runs the iterative algorithm and then spends the remaining
// deadline slack as interior rest periods where the battery model rewards
// them (an extension of the paper exploiting its Section 3 recovery
// effect).
func RunWithIdle(g *Graph, deadline float64, opt Options) (*Result, *IdlePlan, error) {
	return core.RunWithIdle(g, deadline, opt)
}

// Lifetime returns the earliest time sigma(t) reaches capacity alpha, and
// whether the battery dies within the profile.
func Lifetime(m BatteryModel, p Profile, alpha float64) (float64, bool) {
	return battery.Lifetime(m, p, alpha, battery.LifetimeOptions{})
}

// G2 returns the paper's robotic arm controller case-study graph
// (Figure 5): 9 tasks, 4 design points each.
func G2() *Graph { return taskgraph.G2() }

// G2Deadlines are the deadlines the paper evaluates G2 at (55, 75, 95).
func G2Deadlines() []float64 { return append([]float64(nil), taskgraph.G2Deadlines...) }

// G3 returns the paper's illustrative fork-join graph (Table 1): 15
// tasks, 5 design points each.
func G3() *Graph { return taskgraph.G3() }

// G3Deadline is the deadline of the paper's illustrative run (230 min).
const G3Deadline = taskgraph.G3Deadline

// G3Deadlines are the deadlines Table 4 evaluates G3 at (100, 150, 230).
func G3Deadlines() []float64 { return append([]float64(nil), taskgraph.G3Deadlines...) }

// Platform describes a simulated portable platform (processing element,
// peripheral base current, battery model and capacity).
type Platform = sim.Platform

// CPU is a simulated DVS processor with optional level-switch overhead.
type CPU = sim.CPU

// FPGA is a simulated FPGA with per-task bitstream reconfiguration
// overhead.
type FPGA = sim.FPGA

// SimResult is the outcome of simulating a schedule on a Platform.
type SimResult = sim.Result

// Simulate executes a schedule on the platform, tracking the battery and
// detecting mid-run death.
func Simulate(p Platform, g *Graph, s *Schedule) (*SimResult, error) {
	return sim.Run(p, g, s)
}

// MissionCycles runs the schedule back to back on a finite battery and
// returns how many complete runs fit before the battery dies, and when it
// dies.
func MissionCycles(p Platform, g *Graph, s *Schedule, maxRuns int) (int, float64, error) {
	return sim.LifetimeUnderRepetition(p, g, s, maxRuns)
}

// SimulateProfile drives the platform's battery with an arbitrary
// discharge profile (for example an idle-padded one from
// IdlePlan.Apply) and reports completion or mid-run death.
func SimulateProfile(p Platform, profile Profile) (*SimResult, error) {
	return sim.RunProfile(p, profile)
}
