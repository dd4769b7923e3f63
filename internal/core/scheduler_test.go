package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/taskgraph"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func seqEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func mustScheduler(t *testing.T, g *taskgraph.Graph, d float64, opt Options) *Scheduler {
	t.Helper()
	s, err := New(g, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInitialSequenceMatchesPaperS1 pins the paper's first sequence for G3
// exactly (Table 2, S1). This is what fixes the "average energy vs average
// current" ambiguity: only average current reproduces it.
func TestInitialSequenceMatchesPaperS1(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{})
	want := []int{1, 4, 5, 7, 3, 2, 6, 8, 10, 9, 13, 12, 11, 14, 15}
	if got := s.InitialSequence(); !seqEqual(got, want) {
		t.Fatalf("S1 = %v\nwant %v", got, want)
	}
	// And average energy does NOT reproduce it (it ranks T2 before T4).
	se := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{InitialOrder: WeightAvgEnergy})
	if got := se.InitialSequence(); seqEqual(got, want) {
		t.Fatal("avg-energy weight unexpectedly reproduced S1 — anchor lost")
	}
}

// TestG3Window45MatchesPaper pins iteration 1's narrowest window against
// Table 3: windows evaluated are exactly 4:5, 3:5, 2:5, 1:5, and window
// 4:5 yields sigma = 16353 mA·min at duration 228.3 min.
func TestG3Window45MatchesPaper(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{RecordTrace: true})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Iterations) == 0 {
		t.Fatal("no iterations traced")
	}
	it := res.Trace.Iterations[0]
	if len(it.Windows) != 4 {
		t.Fatalf("iteration 1 evaluated %d windows, want 4 (paper Table 3)", len(it.Windows))
	}
	wantStarts := []int{4, 3, 2, 1}
	for k, w := range it.Windows {
		if w.WindowStart != wantStarts[k] {
			t.Fatalf("window order = %v", it.Windows)
		}
	}
	w45 := it.Windows[0]
	if !w45.Feasible {
		t.Fatal("window 4:5 must be feasible")
	}
	if !almost(w45.Cost, 16353, 1.0) {
		t.Errorf("window 4:5 sigma = %.2f, want 16353 ± 1 (Table 3)", w45.Cost)
	}
	if !almost(w45.Duration, 228.3, 1e-6) {
		t.Errorf("window 4:5 duration = %.4f, want 228.3 (Table 3)", w45.Duration)
	}
}

// TestG3FinalResultShape checks the end-to-end run against the paper's
// Table 3 bottom line: final sigma 13737 at 229.8 min after 4 iterations.
// Individual wide-window cells differ from the paper's (its Fig. 2
// pseudocode is ambiguous; see ARCHITECTURE.md, "Reading the paper"), so
// we assert the shape: monotone improvement, termination, and a final
// cost within 2% of the paper's.
func TestG3FinalResultShape(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{RecordTrace: true})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateDeadline(s.Graph(), taskgraph.G3Deadline); err != nil {
		t.Fatalf("result schedule invalid: %v", err)
	}
	if res.Cost > 13737*1.02 {
		t.Errorf("final sigma %.1f more than 2%% above the paper's 13737", res.Cost)
	}
	if res.Cost < 13135 {
		// The paper's best has delivered charge 13135; sigma can
		// never be below delivered charge for any feasible schedule
		// close to this one, so this catches cost-function bugs.
		t.Errorf("final sigma %.1f is implausibly low", res.Cost)
	}
	// Iteration costs must be non-increasing until the terminating one.
	iters := res.Trace.Iterations
	for k := 1; k < len(iters)-1; k++ {
		if iters[k].IterationCost > iters[k-1].IterationCost {
			t.Errorf("iteration %d cost rose: %.1f -> %.1f", k+1, iters[k-1].IterationCost, iters[k].IterationCost)
		}
	}
	// The loop stops because the last iteration failed to improve.
	if len(iters) >= 2 {
		last, prev := iters[len(iters)-1], iters[len(iters)-2]
		if last.IterationCost < prev.IterationCost {
			t.Error("run terminated while still improving")
		}
	}
}

// TestWeightedSequenceMatchesPaperS2w drives Equation 4 with the paper's
// printed iteration-2 state (Table 2: sequence S2 and its design points)
// and expects the printed S2w exactly.
func TestWeightedSequenceMatchesPaperS2w(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{})
	// S2 = T1,T3,T2,T4,T5,T6,T7,T8,T10,T9,T13,T12,T11,T14,T15 with
	// DPs   P5,P1,P2,P5,P5,P5,P5,P5,P5, P5,P5, P5, P5, P5, P5.
	assign := map[int]int{
		1: 4, 3: 0, 2: 1, 4: 4, 5: 4, 6: 4, 7: 4, 8: 4,
		10: 4, 9: 4, 13: 4, 12: 4, 11: 4, 14: 4, 15: 4,
	}
	got, err := s.WeightedSequence(assign)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14, 15}
	if !seqEqual(got, want) {
		t.Fatalf("S2w = %v\nwant  %v", got, want)
	}
}

// TestWeightedSequenceMatchesPaperS3w does the same for iteration 3's
// printed state, which also pins the convergence of the paper's run: the
// weighted sequence of S3's assignment equals S4 = S4w.
func TestWeightedSequenceMatchesPaperS3w(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{})
	// S3 = T1,T3,T2,T4,T5,T6,T7,T8,T9,T10,T13,T11,T12,T14,T15 with
	// DPs   P5,P5,P1,P5,P5,P5,P4,P5,P4,P5, P5, P5, P5, P5, P5.
	assign := map[int]int{
		1: 4, 3: 4, 2: 0, 4: 4, 5: 4, 6: 4, 7: 3, 8: 4,
		9: 3, 10: 4, 13: 4, 11: 4, 12: 4, 14: 4, 15: 4,
	}
	got, err := s.WeightedSequence(assign)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 5, 7, 3, 6, 8, 9, 10, 13, 11, 12, 14, 15}
	if !seqEqual(got, want) {
		t.Fatalf("S3w = %v\nwant  %v", got, want)
	}
}

// TestCostOfPaperSchedules pins CalculateBatteryCost against every sigma
// the paper prints alongside a full schedule: S1/min (16353 @ 228.3),
// S2/min (14725 @ 229.2) and S3=S4/min (13737 @ 229.8).
func TestCostOfPaperSchedules(t *testing.T) {
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{})
	cases := []struct {
		name  string
		order []int
		dps   []int // 1-based design points, positional
		sigma float64
		dur   float64
	}{
		{
			"S1-win45", []int{1, 4, 5, 7, 3, 2, 6, 8, 10, 9, 13, 12, 11, 14, 15},
			[]int{5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5}, 16353, 228.3,
		},
		{
			"S2-win15", []int{1, 3, 2, 4, 5, 6, 7, 8, 10, 9, 13, 12, 11, 14, 15},
			[]int{5, 1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 14725, 229.2,
		},
		{
			"S3-win15", []int{1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 13, 11, 12, 14, 15},
			[]int{5, 5, 1, 5, 5, 5, 4, 5, 4, 5, 5, 5, 5, 5, 5}, 13737, 229.8,
		},
		{
			"S4-win15", []int{1, 2, 4, 5, 7, 3, 6, 8, 9, 10, 13, 11, 12, 14, 15},
			[]int{5, 1, 5, 5, 4, 5, 5, 5, 4, 5, 5, 5, 5, 5, 5}, 13737, 229.8,
		},
	}
	g := s.Graph()
	for _, tc := range cases {
		assign := make(map[int]int, len(tc.order))
		var dur float64
		for k, id := range tc.order {
			assign[id] = tc.dps[k] - 1
			dur += g.Task(id).Points[tc.dps[k]-1].Time
		}
		if !almost(dur, tc.dur, 1e-6) {
			t.Errorf("%s: duration %.4f, want %.1f", tc.name, dur, tc.dur)
		}
		got, err := s.CostOf(tc.order, assign)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, tc.sigma, 1.0) {
			t.Errorf("%s: sigma %.2f, want %.0f ± 1", tc.name, got, tc.sigma)
		}
	}
}

func TestNewValidation(t *testing.T) {
	g := taskgraph.G3()
	if _, err := New(nil, 100, Options{}); err == nil {
		t.Error("nil graph should error")
	}
	for _, d := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := New(g, d, Options{}); err == nil {
			t.Errorf("deadline %g should error", d)
		}
	}
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 1, Time: 1})
	b.AddTask(2, "", taskgraph.DesignPoint{Current: 2, Time: 1}, taskgraph.DesignPoint{Current: 1, Time: 2})
	nonUniform := b.MustBuild()
	if _, err := New(nonUniform, 100, Options{}); err == nil {
		t.Error("non-uniform point counts should error")
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, g.MinTotalTime()-1, Options{})
	if _, err := s.Run(); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("want ErrDeadlineInfeasible, got %v", err)
	}
}

func TestTightestFeasibleDeadline(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, g.MinTotalTime(), Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatalf("deadline == fastest time must be schedulable: %v", err)
	}
	if !almost(res.Duration, g.MinTotalTime(), 1e-9) {
		t.Fatalf("duration %.4f, want %.4f", res.Duration, g.MinTotalTime())
	}
	for id, j := range res.Schedule.Assignment {
		if j != 0 {
			t.Fatalf("task %d not at fastest point under the tightest deadline", id)
		}
	}
}

func TestSingleTaskGraph(t *testing.T) {
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 100, Time: 2}, taskgraph.DesignPoint{Current: 10, Time: 6})
	g := b.MustBuild()
	// Loose deadline: lowest-power point.
	s := mustScheduler(t, g, 10, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Assignment[1] != 1 {
		t.Fatalf("single task should use its lowest-power point, got %d", res.Schedule.Assignment[1])
	}
	// Tight deadline: must fall back to the fast point.
	s2 := mustScheduler(t, g, 3, Options{})
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Schedule.Assignment[1] != 0 {
		t.Fatalf("single task under tight deadline should use the fast point, got %d", res2.Schedule.Assignment[1])
	}
}

func TestSinglePointPerTask(t *testing.T) {
	// m == 1 degenerates the window machinery; the only assignment must
	// come back when feasible.
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 50, Time: 1})
	b.AddTask(2, "", taskgraph.DesignPoint{Current: 70, Time: 2})
	b.AddEdge(1, 2)
	g := b.MustBuild()
	s := mustScheduler(t, g, 4, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 3 {
		t.Fatalf("duration = %g", res.Duration)
	}
	s2 := mustScheduler(t, g, 2, Options{})
	if _, err := s2.Run(); !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("want infeasible, got %v", err)
	}
}

// TestDeadlineFeasibilityProperty property-tests the headline contract:
// for random graphs and any deadline at or above the fastest completion
// time, Run returns a precedence-legal schedule meeting the deadline.
func TestDeadlineFeasibilityProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 2
		m := int(mRaw%4) + 2
		pointsFor := func(i int) []taskgraph.DesignPoint {
			base := rng.Float64()*400 + 50
			tbase := rng.Float64()*5 + 0.5
			pts := make([]taskgraph.DesignPoint, m)
			for j := 0; j < m; j++ {
				f := 1 + float64(j)*0.7
				pts[j] = taskgraph.DesignPoint{Current: base / (f * f), Time: tbase * f}
			}
			return pts
		}
		g, err := taskgraph.Random(rng, n, 0.3, pointsFor)
		if err != nil {
			return false
		}
		slack := 1 + float64(slackRaw%200)/100 // 1.0x .. 3.0x fastest time
		deadline := g.MinTotalTime() * slack
		s, err := New(g, deadline, Options{})
		if err != nil {
			return false
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		return res.Schedule.ValidateDeadline(g, deadline) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestLooserDeadlineNeverHurts: more slack can only reduce (or keep) the
// best cost the heuristic finds on the paper's graphs.
func TestLooserDeadlineNeverHurts(t *testing.T) {
	for _, tc := range []struct {
		g  *taskgraph.Graph
		ds []float64
	}{
		{taskgraph.G2(), taskgraph.G2Deadlines},
		{taskgraph.G3(), taskgraph.G3Deadlines},
	} {
		prev := math.Inf(1)
		for k := len(tc.ds) - 1; k >= 0; k-- { // tightest last
			s := mustScheduler(t, tc.g, tc.ds[k], Options{})
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if k < len(tc.ds)-1 && res.Cost < prev {
				t.Errorf("deadline %g gave lower cost %f than looser deadline's %f",
					tc.ds[k], res.Cost, prev)
			}
			prev = res.Cost
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	g := taskgraph.G3()
	a := mustScheduler(t, g, 230, Options{})
	b := mustScheduler(t, g, 230, Options{})
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cost != rb.Cost || !seqEqual(ra.Schedule.Order, rb.Schedule.Order) {
		t.Fatal("two identical runs disagreed")
	}
}

func TestResultFieldsConsistent(t *testing.T) {
	g := taskgraph.G2()
	s := mustScheduler(t, g, 75, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Duration, res.Schedule.Duration(g), 1e-9) {
		t.Errorf("Duration %.6f != schedule duration %.6f", res.Duration, res.Schedule.Duration(g))
	}
	if !almost(res.Energy, res.Schedule.Energy(g), 1e-9) {
		t.Errorf("Energy %.6f != schedule energy %.6f", res.Energy, res.Schedule.Energy(g))
	}
	if got := res.Schedule.Cost(g, s.Model()); !almost(got, res.Cost, 1e-9) {
		t.Errorf("Cost %.6f != schedule cost %.6f", res.Cost, got)
	}
	if res.Cost < res.Energy {
		t.Errorf("sigma %.1f below delivered charge %.1f", res.Cost, res.Energy)
	}
	if res.Iterations < 1 {
		t.Error("Iterations must be at least 1")
	}
}

func TestCostOfValidation(t *testing.T) {
	s := mustScheduler(t, taskgraph.G2(), 75, Options{})
	if _, err := s.CostOf([]int{1, 2}, map[int]int{1: 0}); err == nil {
		t.Error("short order should error")
	}
	full := taskgraph.G2().TopoOrder()
	if _, err := s.CostOf(full, map[int]int{1: 0}); err == nil {
		t.Error("missing assignment should error")
	}
	assign := make(map[int]int)
	for _, id := range full {
		assign[id] = 9
	}
	if _, err := s.CostOf(full, assign); err == nil {
		t.Error("out-of-range assignment should error")
	}
	bad := append([]int(nil), full...)
	bad[0] = 99
	for _, id := range full {
		assign[id] = 0
	}
	if _, err := s.CostOf(bad, assign); err == nil {
		t.Error("unknown task should error")
	}
}

func TestOptionStrings(t *testing.T) {
	for _, s := range []string{
		WeightAvgCurrent.String(), WeightAvgEnergy.String(), InitialWeight(9).String(),
		WindowSweepAll.String(), WindowFirstFeasible.String(), WindowFullOnly.String(), WindowPolicy(9).String(),
		DPFWindowRelative.String(), DPFAbsolute.String(), DPFColumnRule(9).String(),
	} {
		if s == "" {
			t.Fatal("stringers must be non-empty")
		}
	}
	if !AllFactors.Has(FactorCIF) || FactorSR.Has(FactorCR) {
		t.Fatal("FactorSet.Has wrong")
	}
}
