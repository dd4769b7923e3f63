// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus scaling and ablation benches for the design choices
// ARCHITECTURE.md describes. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigureN target reproduces the computation
// behind that exhibit; correctness of the regenerated values is asserted
// by the unit tests (internal/core, internal/baseline, internal/battery);
// ARCHITECTURE.md, "Reading the paper", says where they depart from the
// paper's printed numbers.
package battsched_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	battsched "repro"
	"repro/internal/baseline"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

// BenchmarkTable1Fixture measures building the G3 fixture (Table 1): the
// cost of graph construction and validation.
func BenchmarkTable1Fixture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := taskgraph.G3()
		if g.N() != 15 {
			b.Fatal("bad fixture")
		}
	}
}

// BenchmarkTable2G3Iterations regenerates Table 2: the full iterative run
// on G3 at deadline 230 with tracing (sequences + assignments per
// iteration).
func BenchmarkTable2G3Iterations(b *testing.B) {
	g := taskgraph.G3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.New(g, taskgraph.G3Deadline, core.Options{RecordTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3WindowSweep regenerates Table 3's core work: full window
// sweeps (4 windows each) over G3 through a reusing Runner — the
// scheduler's steady-state serving shape. After the warm-up run the loop
// body is allocation-free (0 allocs/op; pinned by
// core.TestRunnerSteadyStateZeroAlloc).
func BenchmarkTable3WindowSweep(b *testing.B) {
	g := taskgraph.G3()
	s, err := core.New(g, taskgraph.G3Deadline, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := s.NewRunner()
	if _, err := r.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Comparison regenerates Table 4: ours vs. the
// reference-[1] baseline on both graphs across all six deadlines.
func BenchmarkTable4Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4BaselineDP isolates the baseline's dynamic program on G3
// at the loosest deadline (the dominant baseline cost).
func BenchmarkTable4BaselineDP(b *testing.B) {
	g := taskgraph.G3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MinEnergyAssignment(g, 230); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4DPF measures the DPF escalation machinery: one
// chooseDesignPoints pass per window on G3 (the paper's Figure 4 procedure
// is its inner loop). Exercised via a full single-window run.
func BenchmarkFigure4DPF(b *testing.B) {
	g := taskgraph.G3()
	s, err := core.New(g, taskgraph.G3Deadline, core.Options{Windows: core.WindowFirstFeasible, DisableResequencing: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5G2CaseStudy schedules the robotic arm controller at its
// middle deadline (the Section 5 case study).
func BenchmarkFigure5G2CaseStudy(b *testing.B) {
	g := taskgraph.G2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.New(g, 75, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatterySigma measures one Equation-1 evaluation on a
// 15-interval profile (the scheduler's innermost cost call).
func BenchmarkBatterySigma(b *testing.B) {
	g := taskgraph.G3()
	res, err := battsched.Run(g, 230, battsched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := res.Schedule.Profile(g)
	T := p.TotalTime()
	m := battery.NewRakhmatov(battery.DefaultBeta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ChargeLost(p, T) <= 0 {
			b.Fatal("bad sigma")
		}
	}
}

// BenchmarkBatteryLifetime measures the first-crossing lifetime solver.
func BenchmarkBatteryLifetime(b *testing.B) {
	p := battery.Profile{
		{Current: 600, Duration: 10}, {Current: 0, Duration: 20},
		{Current: 400, Duration: 15}, {Current: 100, Duration: 30},
	}
	m := battery.NewRakhmatov(battery.DefaultBeta)
	alpha := m.ChargeLost(p, p.TotalTime()) * 0.8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, died := battery.Lifetime(m, p, alpha, battery.LifetimeOptions{}); !died {
			b.Fatal("should die")
		}
	}
}

// BenchmarkScalingTasks sweeps the scheduler over growing synthetic
// fork-join graphs (the paper's target shape) to expose the algorithm's
// polynomial scaling in n. The upper sizes (n = 160..1000) are an order
// of magnitude past the paper's instances; they exist to keep the
// trajectory-replay + bound-skip design honest as n grows (scripts/
// bench_compare.sh gates regressions against the committed snapshots).
func BenchmarkScalingTasks(b *testing.B) {
	for _, n := range []int{10, 20, 40, 80, 160, 320, 640, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, deadline := scalingGraph(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.New(g, deadline, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scalingGraph builds BenchmarkScalingTasks' n-task fork-join graph and
// its deadline, 60% of the way from the fastest to the slowest
// schedule.
func scalingGraph(b *testing.B, n int) (*taskgraph.Graph, float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 900, 2, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.ForkJoin(4, (n-6)/4, 5, points)
	if err != nil {
		b.Fatal(err)
	}
	return g, g.MinTotalTime() + 0.6*(g.MaxTotalTime()-g.MinTotalTime())
}

// BenchmarkApprox prices Options.Approx, the approximation mode: the
// scaling graphs at n >= 320 under exact mode (eps=0) and two
// tolerances. It reports the schedule's battery cost as "sigma", so
// the time saved can be read next to the cost given up.
func BenchmarkApprox(b *testing.B) {
	for _, n := range []int{320, 1000} {
		g, deadline := scalingGraph(b, n)
		for _, eps := range []float64{0, 0.5, 2} {
			b.Run(fmt.Sprintf("n=%d/eps=%g", n, eps), func(b *testing.B) {
				var res *core.Result
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := core.New(g, deadline, core.Options{Approx: eps})
					if err != nil {
						b.Fatal(err)
					}
					if res, err = s.Run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Cost, "sigma")
			})
		}
	}
}

// BenchmarkDeadlineSweep measures the cross-deadline reuse path: one
// n=80 benchmark graph evaluated at 16 deadlines spanning the feasible
// range, once by constructing a fresh scheduler per deadline (the
// pre-SweepRunner idiom) and once through a SweepRunner sharing the
// deadline-independent construction, scratch arena and initial sequence.
// The per-op unit is one full 16-deadline sweep.
func BenchmarkDeadlineSweep(b *testing.B) {
	const n = 80
	rng := rand.New(rand.NewSource(int64(n)))
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	points, err := recipe.PointsFunc(dvs.RandomRefs(rng, n, 300, 900, 2, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.ForkJoin(4, (n-6)/4, 5, points)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := g.MinTotalTime(), g.MaxTotalTime()
	deadlines := make([]float64, 16)
	for i := range deadlines {
		deadlines[i] = lo + (0.1+0.8*float64(i)/15)*(hi-lo)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range deadlines {
				s, err := core.New(g, d, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sweeprunner", func(b *testing.B) {
		sr, err := core.NewSweepRunner(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range deadlines {
				if _, err := sr.Run(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkScalingPoints sweeps the design-point count m at fixed n.
func BenchmarkScalingPoints(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(m)))
			factors := make([]float64, m)
			for j := range factors {
				factors[j] = 1 - float64(j)/float64(m)*0.66
			}
			recipe := dvs.Recipe{Factors: factors, Rule: dvs.TimeReversedLinear}
			points, err := recipe.PointsFunc(dvs.RandomRefs(rng, 15, 300, 900, 2, 8))
			if err != nil {
				b.Fatal(err)
			}
			g, err := taskgraph.ForkJoin(4, 2, 6, points)
			if err != nil {
				b.Fatal(err)
			}
			deadline := g.MinTotalTime() + 0.6*(g.MaxTotalTime()-g.MinTotalTime())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.New(g, deadline, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benches: the cost of each design choice the paper asserts.

func benchOption(b *testing.B, opt core.Options) {
	g := taskgraph.G3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.New(g, taskgraph.G3Deadline, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFull is the paper's full configuration (reference
// point for the other ablations).
func BenchmarkAblationFull(b *testing.B) { benchOption(b, core.Options{}) }

// BenchmarkAblationNoResequencing drops the Equation-4 resequencing loop.
func BenchmarkAblationNoResequencing(b *testing.B) {
	benchOption(b, core.Options{DisableResequencing: true})
}

// BenchmarkAblationSingleWindow evaluates only the narrowest feasible
// window instead of sweeping.
func BenchmarkAblationSingleWindow(b *testing.B) {
	benchOption(b, core.Options{Windows: core.WindowFirstFeasible})
}

// BenchmarkAblationNoDPF drops the DPF term (the costliest factor).
func BenchmarkAblationNoDPF(b *testing.B) {
	benchOption(b, core.Options{Factors: core.AllFactors &^ core.FactorDPF})
}

// BenchmarkAblationAvgEnergyOrder uses the paper's literal "average
// energy" initial ordering.
func BenchmarkAblationAvgEnergyOrder(b *testing.B) {
	benchOption(b, core.Options{InitialOrder: core.WeightAvgEnergy})
}

// BenchmarkExhaustiveOracle measures the branch-and-bound oracle on a
// 6-task instance (the validation workhorse).
func BenchmarkExhaustiveOracle(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	points := func(i int) []taskgraph.DesignPoint {
		base := float64(rng.Intn(500) + 100)
		tb := float64(rng.Intn(30)+5) / 10
		return []taskgraph.DesignPoint{
			{Current: base, Time: tb},
			{Current: base / 4, Time: tb * 1.8},
			{Current: base / 16, Time: tb * 3},
		}
	}
	g, err := taskgraph.Random(rng, 6, 0.35, points)
	if err != nil {
		b.Fatal(err)
	}
	deadline := g.MinTotalTime() + 0.5*(g.MaxTotalTime()-g.MinTotalTime())
	m := battery.NewRakhmatov(battery.DefaultBeta)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Optimal(g, deadline, m, baseline.OptimalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealing measures the simulated-annealing comparator at its
// default budget on G2 (the search the paper deems too heavy on-device).
func BenchmarkAnnealing(b *testing.B) {
	g := taskgraph.G2()
	m := battery.NewRakhmatov(battery.DefaultBeta)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Anneal(g, 75, m, baseline.AnnealOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStart measures the 8-restart multi-start search on G3.
func BenchmarkMultiStart(b *testing.B) {
	g := taskgraph.G3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.New(g, taskgraph.G3Deadline, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunMultiStart(s, core.MultiStartOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStartParallel compares sequential multi-start against
// the concurrent restart fan-out on G3 (results are bit-identical; this
// measures the wall-clock effect — near-linear until restarts < cores).
func BenchmarkMultiStartParallel(b *testing.B) {
	g := taskgraph.G3()
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := core.New(g, taskgraph.G3Deadline, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunMultiStart(s, core.MultiStartOptions{Restarts: 32, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch pushes a 24-job batch (the six paper graph×deadline
// cells under four strategies) through the engine at several pool sizes.
func BenchmarkBatch(b *testing.B) {
	var jobs []engine.Job
	for _, strategy := range []string{"iterative", "multistart", "withidle", "rv-dp"} {
		for _, d := range taskgraph.G2Deadlines {
			jobs = append(jobs, engine.Job{Graph: taskgraph.G2(), Deadline: d, Strategy: strategy,
				MultiStart: core.MultiStartOptions{Restarts: 8, Seed: 1, Workers: 1}})
		}
		for _, d := range taskgraph.G3Deadlines {
			jobs = append(jobs, engine.Job{Graph: taskgraph.G3(), Deadline: d, Strategy: strategy,
				MultiStart: core.MultiStartOptions{Restarts: 8, Seed: 1, Workers: 1}})
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range engine.RunBatch(jobs, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkIdleOptimization measures the recovery-rest placement pass.
func BenchmarkIdleOptimization(b *testing.B) {
	g := taskgraph.G3()
	deadline := g.MaxTotalTime() * 1.2
	res, err := battsched.Run(g, deadline, battsched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := battery.NewRakhmatov(battery.DefaultBeta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeIdle(g, res.Schedule, deadline, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatteryFit measures Rakhmatov calibration from five
// observations (grid scan + golden refinement).
func BenchmarkBatteryFit(b *testing.B) {
	m := battery.NewRakhmatov(0.273)
	var obs []battery.Observation
	for _, i := range []float64{50, 100, 200, 400, 800} {
		l, err := battery.ConstantLoadLifetime(m, i, 40000)
		if err != nil {
			b.Fatal(err)
		}
		obs = append(obs, battery.Observation{Current: i, Lifetime: l})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := battery.FitRakhmatov(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticSuite measures one small synthetic-suite cell batch.
func BenchmarkSyntheticSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.SyntheticSuite(experiments.SyntheticConfig{
			Seed: int64(i), Instances: 2, Tasks: 10, Points: 3, SlackLevels: []float64{0.3},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedRun compares a cold scheduling run against a cache
// hit on the same request — the amortization the battschedd serving
// path is built on. The cached case is a canonical-hash lookup plus a
// result deep-copy, so it runs orders of magnitude (well over 10x)
// faster than the cold iterative search it replaces.
func BenchmarkCachedRun(b *testing.B) {
	g := battsched.G3()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh cache each iteration: every run computes.
			c := battsched.NewCache(4)
			if _, err := battsched.RunCached(c, g, 230, battsched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := battsched.NewCache(4)
		if _, err := battsched.RunCached(c, g, 230, battsched.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := battsched.RunCached(c, g, 230, battsched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		if st := c.Stats(); st.Hits == 0 || st.Misses != 1 {
			b.Fatalf("benchmark did not hit the cache: %+v", st)
		}
	})
}

// BenchmarkSimulation measures one simulated platform run of a 15-task
// schedule with battery-death checking.
func BenchmarkSimulation(b *testing.B) {
	g := taskgraph.G3()
	res, err := battsched.Run(g, 230, battsched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plat := sim.Platform{Capacity: 1e9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(plat, g, res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}
