package core

import (
	"testing"

	"repro/internal/taskgraph"
)

// TestDeepChainNoBlowup: a 300-task chain must schedule quickly and
// correctly (the DPF escalation is O(n·m) per tagged point; this guards
// against accidental exponential behavior).
func TestDeepChainNoBlowup(t *testing.T) {
	n := 300
	g, err := taskgraph.Chain(n, func(i int) []taskgraph.DesignPoint {
		base := float64(i%9+1) * 50
		return []taskgraph.DesignPoint{
			{Current: base * 8, Time: 1},
			{Current: base * 2, Time: 2},
			{Current: base, Time: 3},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := g.MinTotalTime() + 0.5*(g.MaxTotalTime()-g.MinTotalTime())
	s := mustScheduler(t, g, deadline, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateDeadline(g, deadline); err != nil {
		t.Fatal(err)
	}
}

// TestExtremeMagnitudes: currents spanning six orders of magnitude and
// sub-millisecond durations must not break normalization or feasibility.
func TestExtremeMagnitudes(t *testing.T) {
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 1e6, Time: 1e-3}, taskgraph.DesignPoint{Current: 1, Time: 2e-3})
	b.AddTask(2, "", taskgraph.DesignPoint{Current: 5e5, Time: 5e-3}, taskgraph.DesignPoint{Current: 0.5, Time: 9e-3})
	b.AddTask(3, "", taskgraph.DesignPoint{Current: 100, Time: 4e-3}, taskgraph.DesignPoint{Current: 0.1, Time: 8e-3})
	b.AddEdge(1, 2).AddEdge(2, 3)
	g := b.MustBuild()
	deadline := g.MinTotalTime() + 0.5*(g.MaxTotalTime()-g.MinTotalTime())
	s := mustScheduler(t, g, deadline, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateDeadline(g, deadline); err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 || res.Cost != res.Cost { // NaN guard
		t.Fatalf("cost = %v", res.Cost)
	}
}

// TestZeroCurrentDesignPoints: a task whose lowest-power point draws zero
// current (e.g. gated-off accelerator) is legal and must not divide by
// zero anywhere.
func TestZeroCurrentDesignPoints(t *testing.T) {
	var b taskgraph.Builder
	b.AddTask(1, "", taskgraph.DesignPoint{Current: 100, Time: 1}, taskgraph.DesignPoint{Current: 0, Time: 3})
	b.AddTask(2, "", taskgraph.DesignPoint{Current: 80, Time: 2}, taskgraph.DesignPoint{Current: 0, Time: 5})
	b.AddEdge(1, 2)
	g := b.MustBuild()
	s := mustScheduler(t, g, 8, Options{})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Assignment[1] != 1 || res.Schedule.Assignment[2] != 1 {
		t.Fatalf("free-power points should win: %v", res.Schedule.Assignment)
	}
}

// TestIdenticalTasks: symmetric instances exercise every tie-break path;
// the result must be deterministic and feasible.
func TestIdenticalTasks(t *testing.T) {
	var b taskgraph.Builder
	for id := 1; id <= 8; id++ {
		b.AddTask(id, "", taskgraph.DesignPoint{Current: 400, Time: 2}, taskgraph.DesignPoint{Current: 50, Time: 5})
	}
	g := b.MustBuild()
	s1 := mustScheduler(t, g, 30, Options{})
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustScheduler(t, g, 30, Options{})
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || !seqEqual(r1.Schedule.Order, r2.Schedule.Order) {
		t.Fatal("symmetric instance not deterministic")
	}
	// IDs must appear in ascending order under pure ties.
	for k, id := range r1.Schedule.Order {
		if id != k+1 {
			t.Fatalf("tie-break order = %v", r1.Schedule.Order)
		}
	}
}
