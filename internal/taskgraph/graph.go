// Package taskgraph models applications as directed acyclic task graphs in
// which every task offers several alternative implementations called design
// points, following the application model of Khan & Vemuri (DATE 2005).
//
// A design point pairs an execution time with the average current the whole
// portable platform draws while the task runs using that implementation
// (different voltage/frequency settings on a DVS processor, or different
// bitstreams on an FPGA). Edges express data/control dependencies; tasks
// execute sequentially on a single processing element, so a schedule is a
// topological order of the graph plus one design point per task.
//
//battlint:deterministic
package taskgraph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// DesignPoint is one implementation option for a task: the average current
// the platform draws while executing it and the time it takes. Units are by
// convention milliamperes and minutes (the paper's units); any consistent
// pair works as long as the battery model's parameters use the same base.
type DesignPoint struct {
	// Current is the average total platform current draw in mA while the
	// task executes with this implementation.
	Current float64
	// Time is the execution time in minutes.
	Time float64
	// Voltage is the supply voltage in volts for DVS-generated points.
	// It is informational; the scheduling cost uses charge (I·t). Zero
	// means unknown/not applicable (e.g. FPGA bitstreams).
	Voltage float64
	// Name optionally labels the point ("DP1", "1.2V@400MHz", "bs-small").
	Name string
}

// Energy returns the charge-energy of the design point: Current·Time
// (mA·min). The paper's data tables carry no voltage column, so all energy
// accounting in the algorithms is charge-based.
func (dp DesignPoint) Energy() float64 { return dp.Current * dp.Time }

// Task is a node of the task graph.
type Task struct {
	// ID is the caller-chosen unique identifier (paper uses 1..n).
	ID int
	// Name optionally labels the task ("T1", "fir-filter").
	Name string
	// Points holds the design points sorted fastest-first: execution
	// times ascending, currents non-increasing (the paper's D and I
	// matrix layout). Builder.Build sorts and validates this.
	Points []DesignPoint
}

// FastestTime returns the execution time of the fastest design point.
func (t *Task) FastestTime() float64 { return t.Points[0].Time }

// SlowestTime returns the execution time of the slowest design point.
func (t *Task) SlowestTime() float64 { return t.Points[len(t.Points)-1].Time }

// AvgCurrent returns the mean current over the task's design points. The
// paper's initial list schedule ranks ready tasks by this weight.
func (t *Task) AvgCurrent() float64 {
	var s float64
	for _, p := range t.Points {
		s += p.Current
	}
	return s / float64(len(t.Points))
}

// AvgEnergy returns the mean charge-energy (I·t) over the task's design
// points; the paper's Energy Vector E sorts tasks by this value ascending.
func (t *Task) AvgEnergy() float64 {
	var s float64
	for _, p := range t.Points {
		s += p.Energy()
	}
	return s / float64(len(t.Points))
}

// Graph is an immutable directed acyclic task graph. Build one with a
// Builder. All slice-returning accessors return copies unless documented
// otherwise; the graph itself is safe for concurrent readers.
type Graph struct {
	tasks []Task      // in insertion order
	byID  map[int]int // task ID -> index in tasks
	preds [][]int     // predecessor indices per task index
	succs [][]int     // successor indices per task index
	topo  []int       // one valid topological order (indices)
	// reach is the reachability closure (descendants including self):
	// row i is words uint64s at reach[i*words:], bit u set iff dense
	// index u is reachable from i.
	reach []uint64
	words int
	// lists holds the same sets as sorted index slices, built on first
	// use: only baselines and reference evaluators read them (the
	// scheduler reads the bit rows), and for large graphs they are the
	// bulk of the closure's memory.
	listsOnce sync.Once
	lists     [][]int
}

// Builder accumulates tasks and edges and produces a validated Graph.
// The zero value is ready to use.
type Builder struct {
	tasks []Task
	edges [][2]int // parent ID, child ID
	err   error
}

// AddTask registers a task with the given unique ID, display name and
// design points. Points may be given in any order; Build sorts them by
// ascending execution time. At least one point is required.
func (b *Builder) AddTask(id int, name string, points ...DesignPoint) *Builder {
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Points: append([]DesignPoint(nil), points...)})
	return b
}

// AddEdge records a precedence constraint: parent must complete before
// child starts. Both IDs must be added via AddTask before Build.
func (b *Builder) AddEdge(parentID, childID int) *Builder {
	b.edges = append(b.edges, [2]int{parentID, childID})
	return b
}

// Build validates the accumulated tasks and edges and returns the graph.
// Validation enforces: at least one task; unique task IDs; every task has
// at least one design point with finite positive time and finite
// non-negative current (NaN and ±Inf are rejected);
// points sortable into ascending-time order with non-increasing currents;
// edge endpoints exist; no self-edges; no cycles.
func (b *Builder) Build() (*Graph, error) {
	if len(b.tasks) == 0 {
		return nil, errors.New("taskgraph: no tasks")
	}
	g := &Graph{
		tasks: make([]Task, len(b.tasks)),
		byID:  make(map[int]int, len(b.tasks)),
	}
	copy(g.tasks, b.tasks)
	for i := range g.tasks {
		t := &g.tasks[i]
		if _, dup := g.byID[t.ID]; dup {
			return nil, fmt.Errorf("taskgraph: duplicate task ID %d", t.ID)
		}
		g.byID[t.ID] = i
		if len(t.Points) == 0 {
			return nil, fmt.Errorf("taskgraph: task %d has no design points", t.ID)
		}
		pts := append([]DesignPoint(nil), t.Points...)
		sort.SliceStable(pts, func(a, c int) bool { return pts[a].Time < pts[c].Time })
		for j, p := range pts {
			// The comparisons below are written so NaN fails them too
			// (NaN <= 0 and NaN < 0 are both false, so `p.Time <= 0`
			// alone would wave NaN through).
			if !(p.Time > 0) || math.IsInf(p.Time, 0) {
				return nil, fmt.Errorf("taskgraph: task %d point %d: time must be finite and positive, got %g", t.ID, j, p.Time)
			}
			if !(p.Current >= 0) || math.IsInf(p.Current, 0) {
				return nil, fmt.Errorf("taskgraph: task %d point %d: current must be finite and non-negative, got %g", t.ID, j, p.Current)
			}
			if j > 0 && pts[j].Current > pts[j-1].Current {
				return nil, fmt.Errorf("taskgraph: task %d: currents not non-increasing with time (point %d: %g mA after %g mA)",
					t.ID, j, pts[j].Current, pts[j-1].Current)
			}
		}
		t.Points = pts
	}
	n := len(g.tasks)
	g.preds = make([][]int, n)
	g.succs = make([][]int, n)
	seen := make(map[[2]int]bool, len(b.edges))
	for _, e := range b.edges {
		pi, ok := g.byID[e[0]]
		if !ok {
			return nil, fmt.Errorf("taskgraph: edge references unknown parent task %d", e[0])
		}
		ci, ok := g.byID[e[1]]
		if !ok {
			return nil, fmt.Errorf("taskgraph: edge references unknown child task %d", e[1])
		}
		if pi == ci {
			return nil, fmt.Errorf("taskgraph: self-edge on task %d", e[0])
		}
		if seen[[2]int{pi, ci}] {
			continue // tolerate duplicate edges
		}
		seen[[2]int{pi, ci}] = true
		g.succs[pi] = append(g.succs[pi], ci)
		g.preds[ci] = append(g.preds[ci], pi)
	}
	topo, err := topoSort(n, g.preds, g.succs)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.reach, g.words = reachability(n, g.succs, topo)
	return g, nil
}

// MustBuild is Build that panics on error; intended for fixtures and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// topoSort returns a topological order of indices (Kahn's algorithm with a
// deterministic smallest-index-first tie break) or an error naming a task
// on a cycle.
func topoSort(n int, preds, succs [][]int) ([]int, error) {
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(preds[i])
	}
	// Min-heap by index for determinism; n is small in this domain, so a
	// sorted slice scan is fine and allocation-free enough.
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		// Pick the smallest index for stable output.
		mi := 0
		for k := 1; k < len(ready); k++ {
			if ready[k] < ready[mi] {
				mi = k
			}
		}
		u := ready[mi]
		ready = append(ready[:mi], ready[mi+1:]...)
		order = append(order, u)
		for _, v := range succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("taskgraph: cycle detected involving task index %d", i)
			}
		}
		return nil, errors.New("taskgraph: cycle detected")
	}
	return order, nil
}

// reachability computes, for every node, the set of node indices
// reachable from it (including itself) as one dense bit matrix of
// words uint64s per row, sweeping a topological order in reverse so
// every successor's row is final before it is OR-ed in.
func reachability(n int, succs [][]int, topo []int) (reach []uint64, words int) {
	words = (n + 63) / 64
	reach = make([]uint64, n*words)
	for k := n - 1; k >= 0; k-- {
		u := topo[k]
		row := reach[u*words : (u+1)*words]
		row[u/64] |= 1 << uint(u%64)
		for _, v := range succs[u] {
			for w, x := range reach[v*words : (v+1)*words] {
				row[w] |= x
			}
		}
	}
	return reach, words
}

// reachLists returns the reachable sets as sorted index slices, all
// carved from one backing array.
func (g *Graph) reachLists() [][]int {
	g.listsOnce.Do(func() {
		n := len(g.tasks)
		total := 0
		for _, x := range g.reach {
			total += bits.OnesCount64(x)
		}
		backing := make([]int, 0, total)
		g.lists = make([][]int, n)
		for i := 0; i < n; i++ {
			start := len(backing)
			for w, x := range g.ReachableBits(i) {
				for ; x != 0; x &= x - 1 {
					backing = append(backing, w*64+bits.TrailingZeros64(x))
				}
			}
			g.lists[i] = backing[start:len(backing):len(backing)]
		}
	})
	return g.lists
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.tasks) }

// UniformPointCount reports the number of design points per task if every
// task has the same count (the paper's model), and whether that holds.
func (g *Graph) UniformPointCount() (int, bool) {
	m := len(g.tasks[0].Points)
	for i := 1; i < len(g.tasks); i++ {
		if len(g.tasks[i].Points) != m {
			return 0, false
		}
	}
	return m, true
}

// TaskIDs returns all task IDs in insertion order.
func (g *Graph) TaskIDs() []int {
	ids := make([]int, len(g.tasks))
	for i := range g.tasks {
		ids[i] = g.tasks[i].ID
	}
	return ids
}

// Task returns the task with the given ID, or nil if absent. The returned
// pointer references the graph's internal storage; treat it as read-only.
func (g *Graph) Task(id int) *Task {
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	return &g.tasks[i]
}

// HasTask reports whether a task with the given ID exists.
func (g *Graph) HasTask(id int) bool { _, ok := g.byID[id]; return ok }

// Index returns the dense index (0..N-1, insertion order) of the task with
// the given ID, and whether it exists. Algorithms that keep per-task arrays
// index them by this value.
func (g *Graph) Index(id int) (int, bool) { i, ok := g.byID[id]; return i, ok }

// TaskAt returns the task at dense index i (insertion order).
func (g *Graph) TaskAt(i int) *Task { return &g.tasks[i] }

// IDAt returns the ID of the task at dense index i.
func (g *Graph) IDAt(i int) int { return g.tasks[i].ID }

// Parents returns the IDs of the immediate predecessors of the given task.
func (g *Graph) Parents(id int) []int {
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	return g.idsOf(g.preds[i])
}

// Children returns the IDs of the immediate successors of the given task.
func (g *Graph) Children(id int) []int {
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	return g.idsOf(g.succs[i])
}

// ParentIndices returns the dense indices of predecessors of the task at
// dense index i. The returned slice aliases internal storage; do not modify.
func (g *Graph) ParentIndices(i int) []int { return g.preds[i] }

// ChildIndices returns the dense indices of successors of the task at dense
// index i. The returned slice aliases internal storage; do not modify.
func (g *Graph) ChildIndices(i int) []int { return g.succs[i] }

func (g *Graph) idsOf(idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = g.tasks[i].ID
	}
	sort.Ints(out)
	return out
}

// Roots returns the IDs of tasks with no predecessors.
func (g *Graph) Roots() []int {
	var out []int
	for i := range g.tasks {
		if len(g.preds[i]) == 0 {
			out = append(out, g.tasks[i].ID)
		}
	}
	sort.Ints(out)
	return out
}

// Leaves returns the IDs of tasks with no successors.
func (g *Graph) Leaves() []int {
	var out []int
	for i := range g.tasks {
		if len(g.succs[i]) == 0 {
			out = append(out, g.tasks[i].ID)
		}
	}
	sort.Ints(out)
	return out
}

// EdgeCount returns the number of (deduplicated) edges.
func (g *Graph) EdgeCount() int {
	var e int
	for i := range g.succs {
		e += len(g.succs[i])
	}
	return e
}

// Edges returns all edges as (parentID, childID) pairs in a deterministic
// order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for i := range g.tasks {
		for _, j := range g.succs[i] {
			out = append(out, [2]int{g.tasks[i].ID, g.tasks[j].ID})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// TopoOrder returns one valid topological order of task IDs (deterministic:
// smallest-index-first Kahn order).
func (g *Graph) TopoOrder() []int {
	return g.idsOfOrdered(g.topo)
}

func (g *Graph) idsOfOrdered(idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = g.tasks[i].ID
	}
	return out
}

// IsTopoOrder reports whether seq is a permutation of all task IDs that
// respects every precedence edge.
func (g *Graph) IsTopoOrder(seq []int) bool {
	if len(seq) != len(g.tasks) {
		return false
	}
	pos := make([]int, len(g.tasks))
	for i := range pos {
		pos[i] = -1
	}
	for p, id := range seq {
		i, ok := g.byID[id]
		if !ok || pos[i] != -1 {
			return false
		}
		pos[i] = p
	}
	for i := range g.tasks {
		for _, j := range g.succs[i] {
			if pos[i] >= pos[j] {
				return false
			}
		}
	}
	return true
}

// Reachable returns the IDs of all tasks reachable from id, including id
// itself — the paper's "subgraph G_v rooted at node v".
func (g *Graph) Reachable(id int) []int {
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	return g.idsOf(g.reachLists()[i])
}

// ReachableIndices returns the dense indices reachable from dense index i
// (including i), sorted. The returned slice aliases internal storage; do
// not modify.
func (g *Graph) ReachableIndices(i int) []int { return g.reachLists()[i] }

// ReachableBits returns the set ReachableIndices(i) lists as a bitset
// over dense indices: bit u%64 of word u/64 is set iff u is reachable
// from i. Every row has (N()+63)/64 words. The returned slice aliases
// internal storage; do not modify.
func (g *Graph) ReachableBits(i int) []uint64 {
	return g.reach[i*g.words : (i+1)*g.words : (i+1)*g.words]
}

// Ancestors returns the IDs of all tasks from which id is reachable,
// excluding id itself.
func (g *Graph) Ancestors(id int) []int {
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	var out []int
	for j := range g.tasks {
		if j != i && g.ReachableBits(j)[i/64]&(1<<uint(i%64)) != 0 {
			out = append(out, g.tasks[j].ID)
		}
	}
	sort.Ints(out)
	return out
}

// ColumnTime returns CT(j): the total execution time if every task uses its
// design point at column j (0-based). This is the paper's CT used by the
// window search. It returns an error if some task has fewer points.
func (g *Graph) ColumnTime(j int) (float64, error) {
	var s float64
	for i := range g.tasks {
		if j < 0 || j >= len(g.tasks[i].Points) {
			return 0, fmt.Errorf("taskgraph: task %d has no design point %d", g.tasks[i].ID, j)
		}
		s += g.tasks[i].Points[j].Time
	}
	return s, nil
}

// MinTotalTime returns the completion time with every task at its fastest
// point — the minimum sequential makespan, and so the feasibility bound for
// any deadline.
func (g *Graph) MinTotalTime() float64 {
	var s float64
	for i := range g.tasks {
		s += g.tasks[i].Points[0].Time
	}
	return s
}

// MaxTotalTime returns the completion time with every task at its slowest
// point.
func (g *Graph) MaxTotalTime() float64 {
	var s float64
	for i := range g.tasks {
		s += g.tasks[i].Points[len(g.tasks[i].Points)-1].Time
	}
	return s
}

// CurrentRange returns the minimum and maximum current over all design
// points of all tasks (the paper's Imin and Imax used to normalize CR).
func (g *Graph) CurrentRange() (min, max float64) {
	first := true
	for i := range g.tasks {
		for _, p := range g.tasks[i].Points {
			if first {
				min, max = p.Current, p.Current
				first = false
				continue
			}
			if p.Current < min {
				min = p.Current
			}
			if p.Current > max {
				max = p.Current
			}
		}
	}
	return min, max
}

// EnergyRange returns (Emin, Emax): total charge-energy with every task at
// its lowest-power point and at its highest-power point respectively — the
// paper's ENR normalization constants.
func (g *Graph) EnergyRange() (min, max float64) {
	for i := range g.tasks {
		pts := g.tasks[i].Points
		min += pts[len(pts)-1].Energy()
		max += pts[0].Energy()
	}
	return min, max
}
