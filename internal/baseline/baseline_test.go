package baseline

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/battery"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func model() battery.Model { return battery.NewRakhmatov(0.273) }

// TestBaselineMatchesPaperTable4G3 pins the reference-[1] baseline against
// the paper's own Table 4 row for G3: sigma = 68120, 48650 and 22686
// mA·min at deadlines 100, 150 and 230. These reproduce exactly, which
// cross-validates the DP, the Equation-5 sequencing AND the battery model
// in one shot.
func TestBaselineMatchesPaperTable4G3(t *testing.T) {
	g := taskgraph.G3()
	want := map[float64]float64{100: 68120, 150: 48650, 230: 22686}
	for d, sigma := range want {
		s, err := RakhmatovSchedule(g, d)
		if err != nil {
			t.Fatalf("deadline %g: %v", d, err)
		}
		if err := s.ValidateDeadline(g, d); err != nil {
			t.Fatalf("deadline %g: %v", d, err)
		}
		got := s.Cost(g, model())
		if !almost(got, sigma, 1.0) {
			t.Errorf("deadline %g: sigma %.2f, want %.0f ± 1 (Table 4)", d, got, sigma)
		}
	}
}

// TestMinEnergyAssignmentOptimal cross-checks the DP against brute force
// over all m^n assignments on small instances.
func TestMinEnergyAssignmentOptimal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2
		m := rng.Intn(3) + 2
		points := func(i int) []taskgraph.DesignPoint {
			base := float64(rng.Intn(400) + 50)
			tb := float64(rng.Intn(40)+5) / 10
			pts := make([]taskgraph.DesignPoint, m)
			for j := 0; j < m; j++ {
				f := 1 + 0.6*float64(j)
				pts[j] = taskgraph.DesignPoint{Current: base / (f * f * f), Time: math.Round(tb*f*10) / 10}
			}
			return pts
		}
		g, err := taskgraph.Random(rng, n, 0.4, points)
		if err != nil {
			return false
		}
		deadline := g.MinTotalTime() + (g.MaxTotalTime()-g.MinTotalTime())*rng.Float64()
		deadline = math.Round(deadline*10) / 10
		if deadline < g.MinTotalTime() {
			deadline = g.MinTotalTime()
		}
		assign, err := MinEnergyAssignment(g, deadline)
		if err != nil {
			return false
		}
		// DP result must be feasible.
		var dur, en float64
		for _, id := range g.TaskIDs() {
			p := g.Task(id).Points[assign[id]]
			dur += p.Time
			en += p.Energy()
		}
		if dur > deadline+1e-6 {
			return false
		}
		// Brute force.
		ids := g.TaskIDs()
		bestE := math.Inf(1)
		var walk func(k int, dur, en float64)
		walk = func(k int, dur, en float64) {
			if dur > deadline+1e-9 {
				return
			}
			if k == len(ids) {
				if en < bestE {
					bestE = en
				}
				return
			}
			for _, p := range g.Task(ids[k]).Points {
				walk(k+1, dur+p.Time, en+p.Energy())
			}
		}
		walk(0, 0, 0)
		return almost(en, bestE, 1e-6*math.Max(1, bestE))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinEnergyAssignmentInfeasible(t *testing.T) {
	g := taskgraph.G3()
	if _, err := MinEnergyAssignment(g, g.MinTotalTime()-1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := MinEnergyAssignment(g, 0); err == nil {
		t.Fatal("zero deadline should error")
	}
}

func TestMinEnergyLooseDeadlineAllSlowest(t *testing.T) {
	g := taskgraph.G3()
	assign, err := MinEnergyAssignment(g, g.MaxTotalTime()+10)
	if err != nil {
		t.Fatal(err)
	}
	for id, j := range assign {
		if j != 4 {
			t.Fatalf("task %d not at lowest-power point under a loose deadline", id)
		}
	}
}

func TestEq5SequenceValid(t *testing.T) {
	g := taskgraph.G3()
	assign, err := MinEnergyAssignment(g, 230)
	if err != nil {
		t.Fatal(err)
	}
	order, err := Eq5Sequence(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopoOrder(order) {
		t.Fatalf("Eq5 order not topological: %v", order)
	}
	if _, err := Eq5Sequence(g, map[int]int{1: 0}); err == nil {
		t.Fatal("incomplete assignment should error")
	}
	if _, err := Eq5Sequence(g, map[int]int{1: 99}); err == nil {
		t.Fatal("out-of-range assignment should error")
	}
}

// TestEq5WeightSemantics pins w(v) = max{I_v, MeanI(G_v)} on a crafted
// graph: a low-current root whose subtree mean is high must outrank a
// middling independent task.
func TestEq5WeightSemantics(t *testing.T) {
	var b taskgraph.Builder
	one := func(c float64) taskgraph.DesignPoint { return taskgraph.DesignPoint{Current: c, Time: 1} }
	b.AddTask(1, "", one(10))  // root of a hot subtree
	b.AddTask(2, "", one(990)) // hot child
	b.AddTask(3, "", one(400)) // independent middling task
	b.AddEdge(1, 2)
	g := b.MustBuild()
	order, err := Eq5Sequence(g, map[int]int{1: 0, 2: 0, 3: 0})
	if err != nil {
		t.Fatal(err)
	}
	// w(1) = max(10, (10+990)/2) = 500 > w(3) = 400, so 1 runs first;
	// then w(2) = 990 > 400.
	want := []int{1, 2, 3}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("Eq5 order = %v, want %v", order, want)
		}
	}
}

func TestChowdhury(t *testing.T) {
	g := taskgraph.G3()
	s, err := ChowdhurySchedule(g, 230, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(g, 230); err != nil {
		t.Fatal(err)
	}
	// Later tasks get slack first: the last task must be as slow as
	// possible given the budget.
	last := s.Order[len(s.Order)-1]
	if s.Assignment[last] == 0 && s.Duration(g) < 230-g.Task(last).Points[1].Time {
		t.Error("last task left fast despite available slack")
	}
	if _, err := ChowdhurySchedule(g, g.MinTotalTime()-1, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := ChowdhurySchedule(g, 230, []int{1, 2}); err == nil {
		t.Fatal("bad order should error")
	}
	// At a deadline equal to the slowest completion time every task is
	// at its lowest-power point.
	s2, err := ChowdhurySchedule(g, g.MaxTotalTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, j := range s2.Assignment {
		if j != 4 {
			t.Fatalf("task %d not fully scaled down", id)
		}
	}
}

func TestAllFastest(t *testing.T) {
	g := taskgraph.G2()
	s, err := AllFastest(g, 55)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(g, 55); err != nil {
		t.Fatal(err)
	}
	for id, j := range s.Assignment {
		if j != 0 {
			t.Fatalf("task %d not at fastest point", id)
		}
	}
	if _, err := AllFastest(g, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestLowestPowerFeasible(t *testing.T) {
	g := taskgraph.G3()
	for _, d := range []float64{100, 150, 230, 258} {
		s, err := LowestPowerFeasible(g, d)
		if err != nil {
			t.Fatalf("deadline %g: %v", d, err)
		}
		if err := s.ValidateDeadline(g, d); err != nil {
			t.Fatalf("deadline %g: %v", d, err)
		}
	}
	// Loose deadline: everything at lowest power.
	s, _ := LowestPowerFeasible(g, g.MaxTotalTime())
	for id, j := range s.Assignment {
		if j != 4 {
			t.Fatalf("task %d unnecessarily fast", id)
		}
	}
	if _, err := LowestPowerFeasible(g, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestOptimalSmallChain(t *testing.T) {
	// 2 tasks × 2 points: enumerate by hand.
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 100, Time: 1}, taskgraph.DesignPoint{Current: 20, Time: 2})
	b.AddTask(2, "", taskgraph.DesignPoint{Current: 80, Time: 1}, taskgraph.DesignPoint{Current: 15, Time: 2})
	b.AddEdge(1, 2)
	g := b.MustBuild()
	m := model()
	s, cost, err := Optimal(g, 3, m, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(g, 3); err != nil {
		t.Fatal(err)
	}
	// Enumerate all four assignments (order is forced by the chain).
	best := math.Inf(1)
	for j1 := 0; j1 < 2; j1++ {
		for j2 := 0; j2 < 2; j2++ {
			c := &sched.Schedule{Order: []int{1, 2}, Assignment: map[int]int{1: j1, 2: j2}}
			if c.Duration(g) > 3 {
				continue
			}
			if got := c.Cost(g, m); got < best {
				best = got
			}
		}
	}
	if !almost(cost, best, 1e-9) {
		t.Fatalf("Optimal cost %f, brute force %f", cost, best)
	}
}

// TestOptimalBeatsHeuristics: on a small random instance the oracle must
// lower-bound every heuristic.
func TestOptimalBeatsHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
		t.Fatal(err)
	}
	deadline := math.Round((g.MinTotalTime()+0.55*(g.MaxTotalTime()-g.MinTotalTime()))*10) / 10
	m := model()
	_, opt, err := Optimal(g, deadline, m, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() (*sched.Schedule, error){
		"rakhmatov": func() (*sched.Schedule, error) { return RakhmatovSchedule(g, deadline) },
		"chowdhury": func() (*sched.Schedule, error) { return ChowdhurySchedule(g, deadline, nil) },
		"allfast":   func() (*sched.Schedule, error) { return AllFastest(g, deadline) },
		"lowpower":  func() (*sched.Schedule, error) { return LowestPowerFeasible(g, deadline) },
	} {
		s, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := s.Cost(g, m); c < opt-1e-6 {
			t.Fatalf("%s cost %f beats the 'optimal' %f — oracle broken", name, c, opt)
		}
	}
}

func TestOptimalGuards(t *testing.T) {
	g := taskgraph.G3()
	if _, _, err := Optimal(g, 230, model(), OptimalOptions{}); err == nil {
		t.Fatal("15-task exhaustive search should be rejected by default")
	}
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 1, Time: 5})
	small := b.MustBuild()
	if _, _, err := Optimal(small, 1, model(), OptimalOptions{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestAnneal(t *testing.T) {
	g := taskgraph.G2()
	m := model()
	s, cost, err := Anneal(g, 75, m, AnnealOptions{Seed: 1, Iterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(g, 75); err != nil {
		t.Fatal(err)
	}
	if !almost(cost, s.Cost(g, m), 1e-6) {
		t.Fatalf("reported cost %f != schedule cost %f", cost, s.Cost(g, m))
	}
	// Must not be worse than its own feasible starting point.
	start, _ := LowestPowerFeasible(g, 75)
	if cost > start.Cost(g, m)+1e-6 {
		t.Fatalf("annealing worsened the start: %f vs %f", cost, start.Cost(g, m))
	}
	// Deterministic under a fixed seed.
	s2, cost2, err := Anneal(g, 75, m, AnnealOptions{Seed: 1, Iterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != cost || s2.String() != s.String() {
		t.Fatal("annealing not deterministic for a fixed seed")
	}
	if _, _, err := Anneal(g, 1, m, AnnealOptions{Seed: 1}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestCountTopoOrders(t *testing.T) {
	var b taskgraph.Builder
	one := taskgraph.DesignPoint{Current: 1, Time: 1}
	b.AddTask(1, "", one).AddTask(2, "", one).AddTask(3, "", one)
	b.AddEdge(1, 2).AddEdge(2, 3)
	chain := b.MustBuild()
	if got := CountTopoOrders(chain, 100); got != 1 {
		t.Fatalf("chain orders = %d", got)
	}
	var b2 taskgraph.Builder
	b2.AddTask(1, "", one).AddTask(2, "", one).AddTask(3, "", one)
	free := b2.MustBuild()
	if got := CountTopoOrders(free, 100); got != 6 {
		t.Fatalf("3 free tasks orders = %d, want 6", got)
	}
	if got := CountTopoOrders(free, 4); got != 4 {
		t.Fatalf("limit not honored: %d", got)
	}
}

func TestTimeScale(t *testing.T) {
	g := taskgraph.G3()
	if got := timeScale(g, 230, 1000); got != 10 {
		t.Fatalf("G3 time scale = %d, want 10 (0.1-minute grid)", got)
	}
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 1, Time: 2})
	ints := b.MustBuild()
	if got := timeScale(ints, 10, 1000); got != 1 {
		t.Fatalf("integer time scale = %d, want 1", got)
	}
}
