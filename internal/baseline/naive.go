package baseline

import (
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// AllFastest assigns every task its fastest (highest-current) design point
// in the graph's deterministic topological order — the schedule with the
// most slack and the most wasteful current profile. It is feasible
// whenever any schedule is.
func AllFastest(g *taskgraph.Graph, deadline float64) (*sched.Schedule, error) {
	order := g.TopoOrder()
	assign := make(map[int]int, g.N())
	total := 0.0
	for _, id := range order {
		assign[id] = 0
		total += g.Task(id).Points[0].Time
	}
	const eps = 1e-9
	if total > deadline+eps {
		return nil, ErrInfeasible
	}
	return &sched.Schedule{Order: order, Assignment: assign}, nil
}

// LowestPowerFeasible starts every task at its lowest-power design point
// and, while the deadline is violated, speeds up the task whose next-faster
// point costs the least extra energy per minute saved (a greedy
// energy-gradient repair). This is the natural "battery-unaware but
// deadline-aware" strawman: it ignores discharge order and the nonlinear
// battery entirely.
func LowestPowerFeasible(g *taskgraph.Graph, deadline float64) (*sched.Schedule, error) {
	order := g.TopoOrder()
	n := g.N()
	assign := make(map[int]int, n)
	total := 0.0
	for _, id := range order {
		pts := g.Task(id).Points
		assign[id] = len(pts) - 1
		total += pts[len(pts)-1].Time
	}
	const eps = 1e-9
	if g.MinTotalTime() > deadline+eps {
		return nil, ErrInfeasible
	}
	for total > deadline+eps {
		bestID, bestRate := -1, 0.0
		for _, id := range order {
			j := assign[id]
			if j == 0 {
				continue
			}
			pts := g.Task(id).Points
			saved := pts[j].Time - pts[j-1].Time
			if saved <= 0 {
				continue
			}
			extra := pts[j-1].Energy() - pts[j].Energy()
			rate := extra / saved
			if bestID < 0 || rate < bestRate {
				bestID, bestRate = id, rate
			}
		}
		if bestID < 0 {
			return nil, ErrInfeasible
		}
		j := assign[bestID]
		pts := g.Task(bestID).Points
		total -= pts[j].Time - pts[j-1].Time
		assign[bestID] = j - 1
	}
	return &sched.Schedule{Order: order, Assignment: assign}, nil
}
