package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/battery"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// timeEps absorbs float accumulation noise in deadline comparisons (the
// paper's data carries 0.1-minute granularity; 1e-9 is far below it).
const timeEps = 1e-9

// ErrDeadlineInfeasible is returned when even the all-fastest assignment
// misses the deadline — the paper's "the deadline cannot be met" exit.
var ErrDeadlineInfeasible = errors.New("core: deadline cannot be met even with the fastest design points")

// Result is the outcome of a scheduler run.
type Result struct {
	// Schedule is the best schedule found: a topological task order
	// plus per-task design points. It always satisfies the deadline.
	Schedule *sched.Schedule
	// Cost is the schedule's battery cost: sigma at completion, mA·min.
	Cost float64
	// Duration is the schedule completion time in minutes.
	Duration float64
	// Energy is the delivered charge, mA·min (the ideal-model cost).
	Energy float64
	// Iterations is how many outer-loop iterations ran (including the
	// terminating non-improving one).
	Iterations int
	// Trace is the per-iteration history (nil unless requested).
	Trace *Trace
}

// Scheduler runs the paper's algorithm for one task graph and deadline.
// Create it with New. All Scheduler state is immutable after New, so a
// Scheduler is safe for repeated and for concurrent Run calls (the
// restart fan-out of RunMultiStart relies on this): the battery model
// is resolved from Options.Battery to a stateless internal/battery
// value, and every run carries its own scratch arena (see runScratch),
// so concurrent runs never share mutable state.
type Scheduler struct {
	g        *taskgraph.Graph
	deadline float64
	opt      Options
	model    battery.Model

	n, m int
	// d and cur are the paper's D and I matrices indexed
	// [taskIndex][column]: times ascending, currents non-increasing.
	// The reference evaluators (reference_test.go, deliberately kept in
	// the pre-optimization shape) and the cold paths read these; the hot
	// path reads the flat mirrors below.
	d, cur [][]float64
	// df, cf and ef are the same matrices flattened row-major
	// ([task*m+column]) plus the per-point charge-energy I·t — the hot
	// path reads these to stay on contiguous memory. The duplication is
	// n·m float64s per matrix, filled once in New and immutable after.
	df, cf, ef []float64
	avgCur     []float64
	avgEn      []float64
	iMin       float64
	iMax       float64
	eMin       float64
	eMax       float64
	// energyOrder is the paper's Energy Vector E: task indices sorted
	// by ascending average energy (ties by smaller ID).
	energyOrder []int
	// cands[i] holds task i's design-point columns in the backward
	// pass's scan order (descending), with exact-duplicate columns
	// pruned: two columns with bit-equal (time, current) produce
	// bit-identical suitability in any context, and the reference's
	// strict `b < bestB` keeps the first-scanned (larger) column on a
	// tie, so dropping every duplicate but the first-scanned one is the
	// one candidate-dominance rule that provably preserves the argmin.
	// (Broader (time, energy) Pareto pruning is NOT argmin-preserving
	// here: CIF compares a candidate's current against its sequence
	// neighbors, so a dominated point can still score a strictly lower
	// B. See ARCHITECTURE.md "Performance".)
	cands [][]int32
	// minEfFrom[i*m+c] is task i's minimum charge-energy over columns
	// [c..m-1] — the tightest per-task contribution to the candidate
	// lower bound's ENR term for a window starting at c (see lowerBound).
	minEfFrom []float64
	// enrSlack bounds the total float rounding the lower bound's ENR
	// term can accumulate (deadline-independent; see analyzeLowerBound),
	// and lbSlack is the full conservative slack of the candidate lower
	// bound used by the bound-skip in chooseDesignPoints
	// (deadline-dependent; see the Scheduler method on SchedulerBase for
	// the derivation).
	enrSlack float64
	lbSlack  float64
	// skipAudit, when non-nil (white-box tests only), receives every
	// candidate the bound skip discards together with the exact
	// suitability it would have scored. Exact evaluation of a skipped
	// candidate is safe mid-loop: candidate stop points are monotone, so
	// the extra replay/rewind lands the mirrors exactly where a
	// non-audited run would leave them.
	skipAudit func(pos, j int, lb, bestB, exactB float64)
}

// SchedulerBase is the deadline-independent part of a Scheduler: the
// validated graph and options, the resolved battery model, the flat
// matrices, the Energy Vector, the reachability bitsets and the pruned
// candidate lists. Everything a deadline sweep re-derives per deadline
// today except the deadline itself lives here, built once by NewBase and
// shared — a SchedulerBase is immutable and safe for concurrent
// Scheduler calls, and the Schedulers it mints share its slices.
type SchedulerBase struct {
	proto Scheduler
}

// New validates the inputs and prepares a scheduler. The graph must give
// every task the same number of design points (the paper's model); the
// deadline must be positive and reachable with the fastest points.
func New(g *taskgraph.Graph, deadline float64, opt Options) (*Scheduler, error) {
	if err := validDeadline(deadline); err != nil {
		return nil, err
	}
	base, err := NewBase(g, opt)
	if err != nil {
		return nil, err
	}
	return base.Scheduler(deadline)
}

func validDeadline(deadline float64) error {
	if deadline <= 0 || math.IsNaN(deadline) || math.IsInf(deadline, 0) {
		return fmt.Errorf("core: deadline must be positive and finite, got %g", deadline)
	}
	return nil
}

// NewBase validates the graph and options and performs every piece of
// scheduler construction that does not depend on the deadline: battery
// model resolution (a calibrated spec runs a whole beta-fit here),
// matrix flattening, the Energy Vector sort, reachability bitsets,
// candidate dominance pruning and the lower-bound slack analysis.
// Deadline sweeps (SweepRunner) build one base and mint per-deadline
// Schedulers from it with Scheduler — each mint is a shallow copy, so
// the per-deadline cost collapses to O(1).
func NewBase(g *taskgraph.Graph, opt Options) (*SchedulerBase, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	m, uniform := g.UniformPointCount()
	if !uniform {
		return nil, errors.New("core: every task must have the same number of design points")
	}
	// Resolve the battery model exactly once per base — so the
	// per-window hot path only ever sees a ready Model value. Invalid
	// specs fail construction, before any scheduling work.
	opt, model, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.N()
	s := &Scheduler{
		g:      g,
		opt:    opt,
		model:  model,
		n:      n,
		m:      m,
		d:      make([][]float64, n),
		cur:    make([][]float64, n),
		df:     make([]float64, n*m),
		cf:     make([]float64, n*m),
		ef:     make([]float64, n*m),
		avgCur: make([]float64, n),
		avgEn:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		t := g.TaskAt(i)
		s.d[i] = make([]float64, m)
		s.cur[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			s.d[i][j] = t.Points[j].Time
			s.cur[i][j] = t.Points[j].Current
			s.df[i*m+j] = t.Points[j].Time
			s.cf[i*m+j] = t.Points[j].Current
			s.ef[i*m+j] = t.Points[j].Current * t.Points[j].Time
		}
		s.avgCur[i] = t.AvgCurrent()
		s.avgEn[i] = t.AvgEnergy()
	}
	s.iMin, s.iMax = g.CurrentRange()
	s.eMin, s.eMax = g.EnergyRange()
	s.energyOrder = make([]int, n)
	for i := range s.energyOrder {
		s.energyOrder[i] = i
	}
	sort.SliceStable(s.energyOrder, func(a, b int) bool {
		ia, ib := s.energyOrder[a], s.energyOrder[b]
		if s.avgEn[ia] != s.avgEn[ib] {
			return s.avgEn[ia] < s.avgEn[ib]
		}
		return g.IDAt(ia) < g.IDAt(ib)
	})
	s.buildCandidates()
	s.analyzeLowerBound()
	return &SchedulerBase{proto: *s}, nil
}

// Scheduler mints a scheduler for one deadline from the shared base.
// The result is bit-identical to New(base.Graph(), deadline, opt) — the
// only per-deadline state is the deadline itself and the bound-skip
// slack derived from it; everything else is shared with the base.
func (b *SchedulerBase) Scheduler(deadline float64) (*Scheduler, error) {
	if err := validDeadline(deadline); err != nil {
		return nil, err
	}
	s := b.proto
	s.deadline = deadline
	// Conservative slack of the candidate lower bound (see lowerBound
	// for the per-term bounds). The terms can undercut LB only by
	// bounded amounts: SR and CR are bit-equal to B's; CIF's bound is
	// exact by integer monotonicity; DPF is a fold of non-negative
	// products except at pos == 0, where (d-te)/d >= -timeEps/d by the
	// replay's exit condition; ENR's real-arithmetic bound leaves only
	// fold rounding, budgeted by enrSlack (see analyzeLowerBound). The
	// trailing 1e-12 absorbs the rounding of folding <= 5 terms of
	// magnitude <= lbGuardMax into B and LB (bounded by ~128 ULP at that
	// magnitude, orders below 1e-12), so B >= LB - lbSlack holds for
	// every candidate the reference scores.
	s.lbSlack = 2*timeEps/deadline + s.enrSlack + 1e-12
	return &s, nil
}

// Graph returns the graph the base was built for.
func (b *SchedulerBase) Graph() *taskgraph.Graph { return b.proto.g }

// buildCandidates precomputes the per-task pruned candidate lists (see
// the cands field). Columns are time-ascending and current
// non-increasing, so exact-duplicate (time, current) columns are always
// adjacent and one comparison against the last survivor finds them all.
func (s *Scheduler) buildCandidates() {
	n, m := s.n, s.m
	backing := make([]int32, 0, n*m)
	s.cands = make([][]int32, n)
	for i := 0; i < n; i++ {
		start := len(backing)
		prev := -1
		for j := m - 1; j >= 0; j-- {
			if prev >= 0 && s.df[i*m+j] == s.df[i*m+prev] && s.cf[i*m+j] == s.cf[i*m+prev] {
				continue
			}
			backing = append(backing, int32(j))
			prev = j
		}
		s.cands[i] = backing[start:len(backing):len(backing)]
	}
}

// analyzeLowerBound precomputes the inputs of the candidate lower
// bound's ENR term (see lowerBound): per-task suffix minima of the
// charge-energy row (minEfFrom) and the fold-rounding budget enrSlack.
//
// The bound compares two float quantities standing in for real sums: the
// suitability's en (a left-to-right fold of n non-negative stored
// energies) and the bound's en (two adds over incrementally maintained
// partial sums, each touched O(n) times per pass). Every intermediate
// magnitude is bounded by the sum of per-task maximum energies, so the
// total divergence between the float expressions and the real sums they
// bound is below gamma_n times that magnitude per fold. gamma here is
// ~10x the combined worst-case constant of the ~4n float operations
// involved (each contributing u/(1-4n·u), u = 2^-53), so the budget is
// safely conservative while still ~1e-12-scale for realistic inputs —
// it never eats real pruning power.
func (s *Scheduler) analyzeLowerBound() {
	n, m := s.n, s.m
	s.minEfFrom = make([]float64, n*m)
	var sumMaxEf float64
	for i := 0; i < n; i++ {
		hi := s.ef[i*m]
		lo := s.ef[i*m+m-1]
		s.minEfFrom[i*m+m-1] = lo
		for j := m - 2; j >= 0; j-- {
			v := s.ef[i*m+j]
			if v > hi {
				hi = v
			}
			if v < lo {
				lo = v
			}
			s.minEfFrom[i*m+j] = lo
		}
		sumMaxEf += hi
	}
	if s.eMax <= s.eMin {
		return // ENR is identically zero (factorsFrom guards the division)
	}
	gamma := 4e-15 * float64(n+16)
	s.enrSlack = gamma * (sumMaxEf + s.eMin + s.eMax) / (s.eMax - s.eMin)
}

// Graph returns the graph the scheduler was built for.
func (s *Scheduler) Graph() *taskgraph.Graph { return s.g }

// Deadline returns the deadline the scheduler was built for.
func (s *Scheduler) Deadline() float64 { return s.deadline }

// Model returns the battery model used as the cost function.
func (s *Scheduler) Model() battery.Model { return s.model }

// Run executes the iterative algorithm and returns the best schedule
// found. It fails with ErrDeadlineInfeasible when no assignment can meet
// the deadline.
func (s *Scheduler) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the search checks ctx
// between iterations, between windows and between sequence positions
// inside the backward design-point pass, so even a single large job
// stops promptly once the caller gives up. On cancellation it returns
// ctx.Err() (context.Canceled or context.DeadlineExceeded) and no
// partial result — a run that completes is bit-identical to one executed
// without a context.
func (s *Scheduler) RunContext(ctx context.Context) (*Result, error) {
	scr := s.newScratch()
	return s.run(ctx, scr, s.initialSequenceInto(scr, scr.seqA), true, new(sched.Schedule), new(Result))
}

// run is the one run path behind every entry point (RunContext, Runner,
// SweepRunner, the multi-start restarts): the infeasibility check, trace
// setup, the improvement loop from the initial sequence L, and the
// materialization of the best order and assignment into the caller's
// sch and res, which it returns. L must alias scr.seqA. sch's order
// slice and assignment map are reused when present, so a caller passing
// the same storage every run allocates nothing in steady state. traced
// false drops the RecordTrace history (multi-start restarts keep none).
func (s *Scheduler) run(ctx context.Context, scr *runScratch, L []int, traced bool, sch *sched.Schedule, res *Result) (*Result, error) {
	if s.g.MinTotalTime() > s.deadline+timeEps {
		return nil, ErrDeadlineInfeasible
	}
	var trace *Trace
	if traced && s.opt.RecordTrace {
		trace = &Trace{InitialSequence: s.idsOf(L)}
	}
	bestOrder, bestAssign, bestCost, iterations, err := s.runLoop(ctx, scr, L, trace)
	if err != nil {
		return nil, err
	}
	if sch.Order == nil {
		sch.Order = make([]int, 0, s.n)
	}
	sch.Order = s.idsInto(bestOrder, sch.Order[:0])
	if sch.Assignment == nil {
		sch.Assignment = make(map[int]int, s.n)
	}
	for i := 0; i < s.n; i++ {
		// The key set is the graph's task IDs on every run, so a
		// reused map never rehashes.
		sch.Assignment[s.g.IDAt(i)] = bestAssign[i]
	}
	p := s.profileInto(bestOrder, bestAssign, scr.profile[:0])
	dur := p.TotalTime()
	*res = Result{
		Schedule:   sch,
		Cost:       bestCost,
		Duration:   dur,
		Energy:     p.DeliveredCharge(dur),
		Iterations: iterations,
		Trace:      trace,
	}
	return res, nil
}

// runLoop is the paper's outer improvement loop, called by run: evaluate
// the window sweep for the current sequence, fall back to the
// always-feasible all-fastest assignment if no window was feasible,
// resequence by Equation 4, keep the best, and stop at the first
// non-improving iteration.
//
// L must alias scr.seqA (or be a slice written into it); trace is nil
// unless the caller wants per-iteration history. The returned order and
// assignment alias scr.ordBest/scr.asgBest — callers materialize them
// before reusing the scratch.
func (s *Scheduler) runLoop(ctx context.Context, scr *runScratch, L []int, trace *Trace) (bestOrder, bestAssign []int, bestCost float64, iterations int, err error) {
	bestCost = math.Inf(1)
	prevIterCost := math.Inf(1)
	cur, next := L, scr.seqB

	for iter := 0; iter < s.opt.MaxIterations; iter++ {
		iterations++
		wAssign, wCost, windows := s.evaluateWindows(ctx, cur, scr)
		if err = ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
		}
		it := IterationTrace{WindowCost: wCost, BestWindow: -1}
		if trace != nil {
			it.Sequence = s.idsOf(cur)
			it.Windows = windows
			for k := range windows {
				if windows[k].Feasible && (it.BestWindow < 0 || windows[k].Cost < windows[it.BestWindow].Cost) {
					it.BestWindow = k
				}
			}
		}
		if wAssign == nil {
			// No window produced a feasible assignment. The paper's
			// pseudocode does not reach this state for its inputs;
			// we fall back to the always-feasible all-fastest
			// assignment so a caller with a met-able deadline never
			// gets an error (see ARCHITECTURE.md, "Reading the paper").
			wAssign = scr.fallback
			for i := range wAssign {
				wAssign[i] = 0
			}
			wCost = s.costOfInto(cur, wAssign, scr.profile[:0])
		}

		iterCost := wCost
		iterOrder := cur
		if !s.opt.DisableResequencing {
			Lw := s.weightedSequenceInto(wAssign, scr, next)
			cw := s.costOfInto(Lw, wAssign, scr.profile[:0])
			if trace != nil {
				it.WeightedSequence = s.idsOf(Lw)
				it.WeightedCost = cw
			}
			if cw < iterCost {
				iterCost = cw
				iterOrder = Lw
			}
			// Double-buffer swap: Lw drives the next iteration; the
			// old sequence buffer becomes the next resequencing
			// target (after iterOrder is consumed below).
			cur, next = Lw, cur
		}
		it.IterationCost = iterCost
		if trace != nil {
			it.Assignment = s.assignmentMap(wAssign)
			trace.Iterations = append(trace.Iterations, it)
		}

		if iterCost < bestCost {
			bestCost = iterCost
			scr.ordBest = append(scr.ordBest[:0], iterOrder...)
			scr.asgBest = append(scr.asgBest[:0], wAssign...)
		}
		if iterCost >= prevIterCost || s.opt.DisableResequencing {
			break
		}
		prevIterCost = iterCost
	}
	return scr.ordBest, scr.asgBest, bestCost, iterations, nil
}

// initialSequence is the paper's SequenceDecEnergy: list scheduling with a
// static per-task weight (average current by default; see InitialWeight),
// larger weights scheduled earlier among ready tasks.
func (s *Scheduler) initialSequence() []int {
	w := s.avgCur
	if s.opt.InitialOrder == WeightAvgEnergy {
		w = s.avgEn
	}
	return s.listSchedule(w)
}

// initialSequenceInto is initialSequence writing into the scratch-backed
// buffer out.
//
//battsched:hotpath
func (s *Scheduler) initialSequenceInto(scr *runScratch, out []int) []int {
	w := s.avgCur
	if s.opt.InitialOrder == WeightAvgEnergy {
		w = s.avgEn
	}
	return s.listScheduleCore(w, scr.indeg, scr.heap[:0], out[:0])
}

// InitialSequence exposes the first-iteration order as task IDs (used by
// tests and the experiment harness).
func (s *Scheduler) InitialSequence() []int { return s.idsOf(s.initialSequence()) }

// weightedSequenceInto is the paper's FindWeightedSequence: Equation 4
// assigns every task the sum of the assigned-design-point currents over
// the subgraph rooted at it (read off the graph's reachability
// bitsets), then list-schedules by decreasing weight into out.
//
//battsched:hotpath
func (s *Scheduler) weightedSequenceInto(assign []int, scr *runScratch, out []int) []int {
	w := scr.weights
	for i := 0; i < s.n; i++ {
		var sum float64
		for wi, word := range s.g.ReachableBits(i) {
			base := wi * 64
			for word != 0 {
				u := base + bits.TrailingZeros64(word)
				sum += s.cur[u][assign[u]]
				word &= word - 1
			}
		}
		w[i] = sum
	}
	return s.listScheduleCore(w, scr.indeg, scr.heap[:0], out[:0])
}

// WeightedSequence exposes Equation-4 resequencing for a given assignment
// (task ID → 0-based design point), returning task IDs.
func (s *Scheduler) WeightedSequence(assignment map[int]int) ([]int, error) {
	assign, err := s.assignmentArray(assignment)
	if err != nil {
		return nil, err
	}
	scr := s.newScratch()
	return s.idsOf(s.weightedSequenceInto(assign, scr, scr.seqA)), nil
}

// listSchedule runs the modified list scheduler both sequencers share:
// repeatedly emit the ready task with the largest weight (ties broken by
// smaller task ID). The result is a topological order by construction.
func (s *Scheduler) listSchedule(weight []float64) []int {
	return s.listScheduleCore(weight, make([]int, s.n), make([]int, 0, s.n), make([]int, 0, s.n))
}

// listScheduleCore is the shared list-scheduling kernel: ready tasks live
// in a max-heap keyed on (weight, -taskID), so each emission costs
// O(log n) instead of the former linear scan plus slice-shift removal.
// The heap's selection rule is exactly the scan's ("largest weight, ties
// to the smaller task ID") and that ordering is total over distinct tasks,
// so the emitted order is identical. indeg, h and out are caller-supplied
// buffers (h and out are appended to from length zero).
//
//battsched:hotpath
func (s *Scheduler) listScheduleCore(weight []float64, indeg, h, out []int) []int {
	for i := 0; i < s.n; i++ {
		indeg[i] = len(s.g.ParentIndices(i))
	}
	for i := 0; i < s.n; i++ {
		if indeg[i] == 0 {
			h = s.heapPush(h, weight, i)
		}
	}
	for len(h) > 0 {
		var u int
		u, h = s.heapPop(h, weight)
		out = append(out, u)
		for _, v := range s.g.ChildIndices(u) {
			indeg[v]--
			if indeg[v] == 0 {
				h = s.heapPush(h, weight, v)
			}
		}
	}
	return out
}

// heapBefore reports whether task a should be emitted before task b:
// larger weight first, ties to the smaller task ID. IDs are unique, so
// the order is total and heap-internal layout can never leak into the
// emitted sequence.
//
//battsched:hotpath
func (s *Scheduler) heapBefore(weight []float64, a, b int) bool {
	if weight[a] != weight[b] {
		return weight[a] > weight[b]
	}
	return s.g.IDAt(a) < s.g.IDAt(b)
}

// heapPush adds x to the ready max-heap.
//
//battsched:hotpath
func (s *Scheduler) heapPush(h []int, weight []float64, x int) []int {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapBefore(weight, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapPop removes and returns the highest-priority ready task.
//
//battsched:hotpath
func (s *Scheduler) heapPop(h []int, weight []float64) (int, []int) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && s.heapBefore(weight, h[l], h[best]) {
			best = l
		}
		if r < len(h) && s.heapBefore(weight, h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top, h
}

// profileInto appends the discharge profile of executing the tasks in
// order L (indices) with the given assignment onto p (one constant-current
// interval per task, the same construction as sched.Schedule.Profile).
//
//battsched:hotpath
func (s *Scheduler) profileInto(L, assign []int, p battery.Profile) battery.Profile {
	for _, ti := range L {
		p = append(p, battery.Interval{Current: s.cur[ti][assign[ti]], Duration: s.d[ti][assign[ti]]})
	}
	return p
}

// costOfInto evaluates the battery cost (sigma at completion) of executing
// the tasks in order L (indices) with the given assignment (indexed by
// task), building the profile into the caller's buffer p.
//
//battsched:hotpath
func (s *Scheduler) costOfInto(L, assign []int, p battery.Profile) float64 {
	p = s.profileInto(L, assign, p)
	return s.model.ChargeLost(p, p.TotalTime())
}

// costOf is costOfInto with a fresh profile, for callers without a scratch.
func (s *Scheduler) costOf(L, assign []int) float64 {
	return s.costOfInto(L, assign, make(battery.Profile, 0, len(L)))
}

// CostOf evaluates sigma at completion for an explicit order (task IDs)
// and assignment (task ID → 0-based design point), exposed for the
// experiment harness and tests.
func (s *Scheduler) CostOf(order []int, assignment map[int]int) (float64, error) {
	assign, err := s.assignmentArray(assignment)
	if err != nil {
		return 0, err
	}
	if len(order) != s.n {
		return 0, fmt.Errorf("core: order has %d tasks, graph has %d", len(order), s.n)
	}
	L := make([]int, len(order))
	for k, id := range order {
		i, ok := s.g.Index(id)
		if !ok {
			return 0, fmt.Errorf("core: unknown task %d in order", id)
		}
		L[k] = i
	}
	return s.costOf(L, assign), nil
}

func (s *Scheduler) idsOf(L []int) []int {
	out := make([]int, len(L))
	for k, i := range L {
		out[k] = s.g.IDAt(i)
	}
	return out
}

// idsInto appends the task IDs of the dense indices in L onto out.
//
//battsched:hotpath
func (s *Scheduler) idsInto(L, out []int) []int {
	for _, i := range L {
		out = append(out, s.g.IDAt(i))
	}
	return out
}

func (s *Scheduler) assignmentMap(assign []int) map[int]int {
	out := make(map[int]int, s.n)
	for i := 0; i < s.n; i++ {
		out[s.g.IDAt(i)] = assign[i]
	}
	return out
}

func (s *Scheduler) assignmentArray(assignment map[int]int) ([]int, error) {
	assign := make([]int, s.n)
	for i := 0; i < s.n; i++ {
		id := s.g.IDAt(i)
		j, ok := assignment[id]
		if !ok {
			return nil, fmt.Errorf("core: assignment missing task %d", id)
		}
		if j < 0 || j >= s.m {
			return nil, fmt.Errorf("core: task %d assigned out-of-range design point %d", id, j)
		}
		assign[i] = j
	}
	return assign, nil
}
