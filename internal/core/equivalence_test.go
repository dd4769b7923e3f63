package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/taskgraph"
)

// The equivalence suite proves the acceptance criterion of the scratch-arena
// rebuild: the optimized hot path (choose.go, scheduler.go, parallel.go)
// produces Results bit-identical to the straightforward reference
// evaluators (reference.go) on every paper fixture at every paper deadline
// and on seeded random graphs — cost, duration and energy compared as raw
// float64 bits, order, assignment and iteration count compared exactly.

// requireSameResult fails the test unless a and b are bit-identical.
func requireSameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if math.Float64bits(ref.Cost) != math.Float64bits(got.Cost) {
		t.Fatalf("%s: cost %v (bits %x) != reference %v (bits %x)",
			label, got.Cost, math.Float64bits(got.Cost), ref.Cost, math.Float64bits(ref.Cost))
	}
	if math.Float64bits(ref.Duration) != math.Float64bits(got.Duration) {
		t.Fatalf("%s: duration %v != reference %v", label, got.Duration, ref.Duration)
	}
	if math.Float64bits(ref.Energy) != math.Float64bits(got.Energy) {
		t.Fatalf("%s: energy %v != reference %v", label, got.Energy, ref.Energy)
	}
	if ref.Iterations != got.Iterations {
		t.Fatalf("%s: iterations %d != reference %d", label, got.Iterations, ref.Iterations)
	}
	if len(ref.Schedule.Order) != len(got.Schedule.Order) {
		t.Fatalf("%s: order length %d != reference %d", label, len(got.Schedule.Order), len(ref.Schedule.Order))
	}
	for k := range ref.Schedule.Order {
		if ref.Schedule.Order[k] != got.Schedule.Order[k] {
			t.Fatalf("%s: order %v != reference %v", label, got.Schedule.Order, ref.Schedule.Order)
		}
	}
	if len(ref.Schedule.Assignment) != len(got.Schedule.Assignment) {
		t.Fatalf("%s: assignment size %d != reference %d", label, len(got.Schedule.Assignment), len(ref.Schedule.Assignment))
	}
	for id, j := range ref.Schedule.Assignment {
		if got.Schedule.Assignment[id] != j {
			t.Fatalf("%s: task %d assigned %d, reference %d", label, id, got.Schedule.Assignment[id], j)
		}
	}
}

// equivalenceVariants are the option sets the fixture sweep runs under —
// the paper configuration plus every knob that routes through a different
// arm of the hot path.
func equivalenceVariants() map[string]Options {
	return map[string]Options{
		"default":         {},
		"first-feasible":  {Windows: WindowFirstFeasible},
		"full-only":       {Windows: WindowFullOnly},
		"no-reseq":        {DisableResequencing: true},
		"dpf-absolute":    {DPFColumns: DPFAbsolute},
		"avg-energy-init": {InitialOrder: WeightAvgEnergy},
		"no-dpf":          {Factors: AllFactors &^ FactorDPF},
		"dpf-only":        {Factors: FactorDPF},
	}
}

// TestEquivalenceFixtures sweeps both paper graphs across all their paper
// deadlines and every option variant.
func TestEquivalenceFixtures(t *testing.T) {
	cases := []struct {
		name      string
		graph     *taskgraph.Graph
		deadlines []float64
	}{
		{"G2", taskgraph.G2(), taskgraph.G2Deadlines},
		{"G3", taskgraph.G3(), taskgraph.G3Deadlines},
	}
	for _, c := range cases {
		for _, d := range c.deadlines {
			for name, opt := range equivalenceVariants() {
				label := fmt.Sprintf("%s/d=%g/%s", c.name, d, name)
				s := mustScheduler(t, c.graph, d, opt)
				ref, err := s.refRunContext(context.Background())
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatalf("%s: optimized: %v", label, err)
				}
				requireSameResult(t, label, ref, got)
			}
		}
	}
}

// randomEquivGraph builds a seeded random DAG with n tasks, m design
// points per task and random currents/times shaped like the paper's data.
func randomEquivGraph(t *testing.T, rng *rand.Rand, n, m int) *taskgraph.Graph {
	t.Helper()
	points := func(int) []taskgraph.DesignPoint {
		base := float64(rng.Intn(600)+100) / (1 + rng.Float64())
		tb := float64(rng.Intn(40)+5) / 10
		pts := make([]taskgraph.DesignPoint, m)
		for j := 0; j < m; j++ {
			f := 1 + float64(j)*(0.5+rng.Float64())
			pts[j] = taskgraph.DesignPoint{Current: base / f, Time: tb * f}
		}
		return pts
	}
	g, err := taskgraph.Random(rng, n, 0.15+0.5*rng.Float64(), points)
	if err != nil {
		t.Fatalf("random graph: %v", err)
	}
	return g
}

// TestEquivalenceRandomGraphs runs the old-vs-new comparison over 60
// seeded random instances at three slack levels each.
func TestEquivalenceRandomGraphs(t *testing.T) {
	variants := equivalenceVariants()
	variantNames := []string{"default", "first-feasible", "no-reseq", "dpf-absolute", "avg-energy-init", "parallel"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(21) // 4..24 tasks
		m := 2 + rng.Intn(4)  // 2..5 design points
		g := randomEquivGraph(t, rng, n, m)
		for _, slack := range []float64{0.15, 0.5, 0.9} {
			d := g.MinTotalTime() + slack*(g.MaxTotalTime()-g.MinTotalTime())
			// The default configuration everywhere, plus one rotating
			// non-default variant per seed so every arm sees random
			// inputs too.
			names := []string{"default", variantNames[int(seed)%len(variantNames)]}
			for _, name := range names {
				label := fmt.Sprintf("seed=%d/n=%d/m=%d/slack=%g/%s", seed, n, m, slack, name)
				s := mustScheduler(t, g, d, variants[name])
				ref, err := s.refRunContext(context.Background())
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatalf("%s: optimized: %v", label, err)
				}
				requireSameResult(t, label, ref, got)
			}
		}
	}
}

// TestEquivalenceRunFrom checks the explicit-initial-sequence entry point
// (the multi-start restart path) against its reference on randomized
// initial orders.
func TestEquivalenceRunFrom(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(t, rng, 6+rng.Intn(12), 3)
		d := g.MinTotalTime() + 0.5*(g.MaxTotalTime()-g.MinTotalTime())
		s := mustScheduler(t, g, d, Options{})
		for restart := 0; restart < 4; restart++ {
			w := make([]float64, s.n)
			for i := range w {
				w[i] = rng.Float64()
			}
			initial := s.listSchedule(w)
			label := fmt.Sprintf("seed=%d/restart=%d", seed, restart)
			ref, err := s.refRunFrom(context.Background(), initial)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := s.runFromContext(context.Background(), initial)
			if err != nil {
				t.Fatalf("%s: optimized: %v", label, err)
			}
			requireSameResult(t, label, ref, got)
		}
	}
}

// TestEquivalenceRunner checks that the storage-reusing Runner matches
// Scheduler.Run bit-for-bit, including on its second and later runs (the
// steady state the zero-alloc benchmark measures).
func TestEquivalenceRunner(t *testing.T) {
	for _, c := range []struct {
		name  string
		graph *taskgraph.Graph
		d     float64
	}{
		{"G2", taskgraph.G2(), 75},
		{"G3", taskgraph.G3(), taskgraph.G3Deadline},
	} {
		s := mustScheduler(t, c.graph, c.d, Options{})
		want, err := s.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		r := s.NewRunner()
		for pass := 1; pass <= 3; pass++ {
			got, err := r.Run()
			if err != nil {
				t.Fatalf("%s: Runner pass %d: %v", c.name, pass, err)
			}
			requireSameResult(t, fmt.Sprintf("%s/pass=%d", c.name, pass), want, got)
		}
	}
}

// TestEquivalenceTrace checks the traced run (the Tables 2/3 machinery)
// stays identical window for window.
func TestEquivalenceTrace(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{RecordTrace: true})
	ref, err := s.refRunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "G3 traced", ref, got)
	if ref.Trace.String() != got.Trace.String() {
		t.Fatalf("trace mismatch:\nreference:\n%s\noptimized:\n%s", ref.Trace, got.Trace)
	}
}

// TestListScheduleHeapTieBreak proves the heap-based list scheduler emits
// exactly the reference scan's order — larger weight first, ties to the
// smaller task ID — including under heavy ties, where a heap that leaked
// its internal layout would diverge.
func TestListScheduleHeapTieBreak(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(t, rng, 5+rng.Intn(20), 3)
		s := mustScheduler(t, g, g.MaxTotalTime(), Options{})
		weights := make([]float64, s.n)
		// Draw from a tiny value set so most comparisons tie.
		vals := []float64{0, 1, 1, 2}
		for i := range weights {
			weights[i] = vals[rng.Intn(len(vals))]
		}
		want := s.refListSchedule(weights)
		got := s.listSchedule(weights)
		if len(want) != len(got) {
			t.Fatalf("seed %d: length %d != %d", seed, len(got), len(want))
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("seed %d: heap order %v != reference %v (weights %v)", seed, got, want, weights)
			}
		}
	}
	// And the all-equal-weights case: emission must follow ready order by
	// ascending task ID exactly.
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	flat := make([]float64, s.n)
	want := s.refListSchedule(flat)
	got := s.listSchedule(flat)
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("flat weights: heap order %v != reference %v", got, want)
		}
	}
}

// TestWeightedSequenceBitsets checks the reachability-bitset Equation-4
// weights against the reference reachable-slice walk.
func TestWeightedSequenceBitsets(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(t, rng, 4+rng.Intn(30), 3)
		s := mustScheduler(t, g, g.MaxTotalTime(), Options{})
		assign := make([]int, s.n)
		for i := range assign {
			assign[i] = rng.Intn(s.m)
		}
		want := s.refWeightedSequence(assign)
		scr := s.newScratch()
		got := s.weightedSequenceInto(assign, scr, scr.seqA)
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("seed %d: bitset order %v != reference %v", seed, got, want)
			}
		}
	}
}
