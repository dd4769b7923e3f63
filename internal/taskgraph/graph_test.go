package taskgraph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func pt(i, t float64) DesignPoint { return DesignPoint{Current: i, Time: t} }

// diamond returns 1→{2,3}→4 with two design points per task.
func diamond(t *testing.T) *Graph {
	t.Helper()
	var b Builder
	for id := 1; id <= 4; id++ {
		b.AddTask(id, "", pt(100, 1), pt(10, 2))
	}
	b.AddEdge(1, 2).AddEdge(1, 3).AddEdge(2, 4).AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("diamond build: %v", err)
	}
	return g
}

func TestBuildRejectsEmptyGraph(t *testing.T) {
	var b Builder
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for empty graph")
	}
}

func TestBuildRejectsDuplicateIDs(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddTask(1, "", pt(1, 1))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-ID error, got %v", err)
	}
}

func TestBuildRejectsNoPoints(t *testing.T) {
	var b Builder
	b.AddTask(1, "")
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for task without design points")
	}
}

func TestBuildRejectsNonPositiveTime(t *testing.T) {
	for _, bad := range []float64{0, -1} {
		var b Builder
		b.AddTask(1, "", pt(5, bad))
		if _, err := b.Build(); err == nil {
			t.Errorf("want error for time %g", bad)
		}
	}
}

func TestBuildRejectsNegativeCurrent(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(-5, 1))
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for negative current")
	}
}

func TestBuildRejectsIncreasingCurrentWithTime(t *testing.T) {
	// Slower point drawing MORE current violates the monotone layout.
	var b Builder
	b.AddTask(1, "", pt(10, 1), pt(20, 2))
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for current increasing with time")
	}
}

func TestBuildSortsPointsByTime(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(10, 3), pt(100, 1), pt(50, 2))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Task(1).Points
	for j := 1; j < len(pts); j++ {
		if pts[j].Time < pts[j-1].Time {
			t.Fatalf("points not time-sorted: %v", pts)
		}
	}
	if pts[0].Current != 100 || pts[2].Current != 10 {
		t.Fatalf("expected fastest-first layout, got %v", pts)
	}
}

func TestBuildRejectsUnknownEdgeEndpoints(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddEdge(1, 99)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for unknown child")
	}
	var b2 Builder
	b2.AddTask(1, "", pt(1, 1)).AddEdge(99, 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for unknown parent")
	}
}

func TestBuildRejectsSelfEdge(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for self edge")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddTask(2, "", pt(1, 1)).AddTask(3, "", pt(1, 1))
	b.AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestBuildToleratesDuplicateEdges(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddTask(2, "", pt(1, 1))
	b.AddEdge(1, 2).AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("want 1 edge after dedup, got %d", g.EdgeCount())
	}
}

func TestAccessors(t *testing.T) {
	g := diamond(t)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if m, ok := g.UniformPointCount(); !ok || m != 2 {
		t.Fatalf("UniformPointCount = %d,%v want 2,true", m, ok)
	}
	if got := g.Parents(4); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Parents(4) = %v", got)
	}
	if got := g.Children(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Children(1) = %v", got)
	}
	if got := g.Roots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Roots = %v", got)
	}
	if got := g.Leaves(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Leaves = %v", got)
	}
	if g.Task(99) != nil {
		t.Fatal("Task(99) should be nil")
	}
	if g.HasTask(99) || !g.HasTask(2) {
		t.Fatal("HasTask wrong")
	}
	if id := g.IDAt(0); id != 1 {
		t.Fatalf("IDAt(0) = %d", id)
	}
	if i, ok := g.Index(3); !ok || g.IDAt(i) != 3 {
		t.Fatalf("Index(3) = %d,%v", i, ok)
	}
}

func TestNonUniformPointCount(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(1, 1)).AddTask(2, "", pt(2, 1), pt(1, 2))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.UniformPointCount(); ok {
		t.Fatal("UniformPointCount should report false")
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order := g.TopoOrder()
	if !g.IsTopoOrder(order) {
		t.Fatalf("TopoOrder %v is not a topological order", order)
	}
	if order[0] != 1 || order[3] != 4 {
		t.Fatalf("diamond topo order = %v", order)
	}
}

func TestIsTopoOrderRejects(t *testing.T) {
	g := diamond(t)
	cases := [][]int{
		{4, 2, 3, 1},  // reversed
		{1, 2, 3},     // missing task
		{1, 2, 3, 3},  // duplicate
		{1, 2, 3, 99}, // unknown
		{2, 1, 3, 4},  // violates 1→2
		{1, 2, 4, 3},  // violates 3→4
	}
	for _, seq := range cases {
		if g.IsTopoOrder(seq) {
			t.Errorf("IsTopoOrder(%v) = true, want false", seq)
		}
	}
	if !g.IsTopoOrder([]int{1, 3, 2, 4}) {
		t.Error("1,3,2,4 should be a valid order")
	}
}

func TestReachableAndAncestors(t *testing.T) {
	g := diamond(t)
	if got := g.Reachable(1); len(got) != 4 {
		t.Fatalf("Reachable(1) = %v", got)
	}
	if got := g.Reachable(2); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Reachable(2) = %v", got)
	}
	if got := g.Reachable(4); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Reachable(4) = %v", got)
	}
	if got := g.Ancestors(4); len(got) != 3 {
		t.Fatalf("Ancestors(4) = %v", got)
	}
	if got := g.Ancestors(1); len(got) != 0 {
		t.Fatalf("Ancestors(1) = %v", got)
	}
}

// TestReachabilityMatchesSearch checks the bit closure and the sorted
// lists carved from it against a depth-first search from every node,
// on random graphs spanning one to three 64-bit words per row.
func TestReachabilityMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 63, 64, 65, 130} {
		g, err := Random(rng, n, 0.05, func(int) []DesignPoint { return []DesignPoint{pt(10, 1)} })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			seen := make([]bool, n)
			stack := []int{i}
			seen[i] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range g.ChildIndices(u) {
					if !seen[v] {
						seen[v] = true
						stack = append(stack, v)
					}
				}
			}
			var want []int
			for u, ok := range seen {
				if ok {
					want = append(want, u)
				}
			}
			if got := g.ReachableIndices(i); !slices.Equal(got, want) {
				t.Fatalf("n=%d: ReachableIndices(%d) = %v, want %v", n, i, got, want)
			}
			row := g.ReachableBits(i)
			if len(row) != (n+63)/64 {
				t.Fatalf("n=%d: row %d has %d words", n, i, len(row))
			}
			for u := 0; u < n; u++ {
				if row[u/64]&(1<<uint(u%64)) != 0 != seen[u] {
					t.Fatalf("n=%d: ReachableBits(%d) bit %d disagrees with search", n, i, u)
				}
			}
		}
	}
}

func TestEdges(t *testing.T) {
	g := diamond(t)
	edges := g.Edges()
	want := [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}}
	if len(edges) != len(want) {
		t.Fatalf("Edges = %v", edges)
	}
	for k := range want {
		if edges[k] != want[k] {
			t.Fatalf("Edges = %v, want %v", edges, want)
		}
	}
}

func TestColumnTimeAndRanges(t *testing.T) {
	g := diamond(t)
	ct0, err := g.ColumnTime(0)
	if err != nil || ct0 != 4 {
		t.Fatalf("ColumnTime(0) = %g, %v", ct0, err)
	}
	ct1, err := g.ColumnTime(1)
	if err != nil || ct1 != 8 {
		t.Fatalf("ColumnTime(1) = %g, %v", ct1, err)
	}
	if _, err := g.ColumnTime(2); err == nil {
		t.Fatal("ColumnTime(2) should error")
	}
	if g.MinTotalTime() != 4 || g.MaxTotalTime() != 8 {
		t.Fatalf("Min/MaxTotalTime = %g/%g", g.MinTotalTime(), g.MaxTotalTime())
	}
	lo, hi := g.CurrentRange()
	if lo != 10 || hi != 100 {
		t.Fatalf("CurrentRange = %g..%g", lo, hi)
	}
	eMin, eMax := g.EnergyRange()
	if eMin != 4*20 || eMax != 4*100 {
		t.Fatalf("EnergyRange = %g..%g", eMin, eMax)
	}
}

func TestTaskAverages(t *testing.T) {
	var b Builder
	b.AddTask(1, "", pt(100, 1), pt(10, 4))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	task := g.Task(1)
	if got := task.AvgCurrent(); got != 55 {
		t.Fatalf("AvgCurrent = %g", got)
	}
	if got := task.AvgEnergy(); got != (100+40)/2 {
		t.Fatalf("AvgEnergy = %g", got)
	}
	if task.FastestTime() != 1 || task.SlowestTime() != 4 {
		t.Fatalf("Fastest/Slowest = %g/%g", task.FastestTime(), task.SlowestTime())
	}
}

func TestDesignPointEnergy(t *testing.T) {
	if e := pt(10, 2.5).Energy(); math.Abs(e-25) > 1e-12 {
		t.Fatalf("Energy = %g, want 25", e)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on invalid input")
		}
	}()
	var b Builder
	b.MustBuild()
}
