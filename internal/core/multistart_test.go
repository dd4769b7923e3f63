package core

import (
	"context"
	"testing"

	"repro/internal/taskgraph"
)

// TestMultiStartNeverWorse: the deterministic run is included, so
// multi-start can only match or improve it — and it must stay feasible.
func TestMultiStartNeverWorse(t *testing.T) {
	for _, tc := range []struct {
		g *taskgraph.Graph
		d float64
	}{
		{taskgraph.G2(), 75},
		{taskgraph.G3(), taskgraph.G3Deadline},
	} {
		s := mustScheduler(t, tc.g, tc.d, Options{})
		base, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RunMultiStart(s, MultiStartOptions{Restarts: 6, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if multi.Cost > base.Cost+1e-9 {
			t.Fatalf("multi-start %.2f worse than base %.2f", multi.Cost, base.Cost)
		}
		if err := multi.Schedule.ValidateDeadline(tc.g, tc.d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiStartDeterministic(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	a, err := RunMultiStart(s, MultiStartOptions{Restarts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMultiStart(s, MultiStartOptions{Restarts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || !seqEqual(a.Schedule.Order, b.Schedule.Order) {
		t.Fatal("multi-start not deterministic for a fixed seed")
	}
}

// TestMultiStartParallelMatchesSequential: Workers > 1 must return a
// bit-identical Result (cost, order, assignment) to the sequential path
// on both paper graphs at every paper deadline.
func TestMultiStartParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		g         *taskgraph.Graph
		deadlines []float64
	}{
		{taskgraph.G2(), taskgraph.G2Deadlines},
		{taskgraph.G3(), taskgraph.G3Deadlines},
	}
	for _, tc := range cases {
		for _, d := range tc.deadlines {
			s := mustScheduler(t, tc.g, d, Options{})
			seq, err := RunMultiStart(s, MultiStartOptions{Restarts: 6, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par, err := RunMultiStart(s, MultiStartOptions{Restarts: 6, Seed: 11, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Cost != seq.Cost || par.Duration != seq.Duration || par.Energy != seq.Energy {
					t.Fatalf("deadline %g workers %d: cost/duration/energy %v/%v/%v != sequential %v/%v/%v",
						d, workers, par.Cost, par.Duration, par.Energy, seq.Cost, seq.Duration, seq.Energy)
				}
				if !seqEqual(par.Schedule.Order, seq.Schedule.Order) {
					t.Fatalf("deadline %g workers %d: order %v != %v", d, workers, par.Schedule.Order, seq.Schedule.Order)
				}
				for id, j := range seq.Schedule.Assignment {
					if par.Schedule.Assignment[id] != j {
						t.Fatalf("deadline %g workers %d: task %d assigned %d, want %d",
							d, workers, id, par.Schedule.Assignment[id], j)
					}
				}
			}
		}
	}
}

// TestMultiStartParallelInfeasible: errors surface identically from the
// concurrent path.
func TestMultiStartParallelInfeasible(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	s.deadline = 1
	if _, err := RunMultiStart(s, MultiStartOptions{Restarts: 3, Workers: 4}); err == nil {
		t.Fatal("want infeasible error")
	}
}

func TestRunFromInfeasible(t *testing.T) {
	g := taskgraph.G3()
	s := mustScheduler(t, g, taskgraph.G3Deadline, Options{})
	s.deadline = 1 // force infeasible after construction
	if _, err := s.runFromContext(context.Background(), s.initialSequence()); err == nil {
		t.Fatal("want infeasible error")
	}
}
