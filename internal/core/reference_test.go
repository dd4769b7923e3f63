package core

import (
	"context"
	"math"

	"repro/internal/battery"
	"repro/internal/sched"
)

// This file preserves the straightforward evaluators the scheduler shipped
// with before the hot path was rebuilt around per-run scratch arenas and
// incremental evaluation (see scratch.go and ARCHITECTURE.md §Performance).
// They recompute every quantity from scratch — totalTime per tagged design
// point, a full Energy Vector rescan per escalation step, ENR/CIF over the
// whole sequence — which makes them easy to audit against the paper's
// pseudocode but Θ(n)–Θ(n·m) more expensive per inner-loop evaluation.
//
// They are kept as the reference semantics of the algorithm: the
// equivalence suite (equivalence_test.go) requires the optimized path to
// produce bit-identical Results on every fixture and on seeded random
// graphs. Living in a _test.go file keeps them out of every shipped
// binary while every `go test` run still compiles and exercises them —
// unlike a build tag, which would let the two paths drift apart
// unnoticed on builds that never set it.

// refDPFScratch is the reference calculateDPF's reusable buffer pair.
type refDPFScratch struct {
	tmp    []int
	frozen []bool
}

func newRefDPFScratch(n int) *refDPFScratch {
	return &refDPFScratch{tmp: make([]int, n), frozen: make([]bool, n)}
}

// refRunContext is the pre-optimization RunContext: the same outer loop,
// window sweep and resequencing, built on the naive evaluators.
func (s *Scheduler) refRunContext(ctx context.Context) (*Result, error) {
	if s.g.MinTotalTime() > s.deadline+timeEps {
		return nil, ErrDeadlineInfeasible
	}
	var trace *Trace
	L := s.refInitialSequence()
	if s.opt.RecordTrace {
		trace = &Trace{InitialSequence: s.idsOf(L)}
	}

	bestCost := math.Inf(1)
	var bestOrder []int
	var bestAssign []int
	prevIterCost := math.Inf(1)
	iterations := 0

	for iter := 0; iter < s.opt.MaxIterations; iter++ {
		iterations++
		wBestAssign, wBestCost, windows := s.refEvaluateWindows(ctx, L)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		it := IterationTrace{WindowCost: wBestCost, BestWindow: -1}
		if s.opt.RecordTrace {
			it.Sequence = s.idsOf(L)
			it.Windows = windows
			for k := range windows {
				if windows[k].Feasible && (it.BestWindow < 0 || windows[k].Cost < windows[it.BestWindow].Cost) {
					it.BestWindow = k
				}
			}
		}
		if wBestAssign == nil {
			wBestAssign = make([]int, s.n)
			wBestCost = s.refCostOf(L, wBestAssign)
		}

		iterCost := wBestCost
		iterOrder := L
		if !s.opt.DisableResequencing {
			Lw := s.refWeightedSequence(wBestAssign)
			cw := s.refCostOf(Lw, wBestAssign)
			if s.opt.RecordTrace {
				it.WeightedSequence = s.idsOf(Lw)
				it.WeightedCost = cw
			}
			if cw < iterCost {
				iterCost = cw
				iterOrder = Lw
			}
			L = Lw
		}
		it.IterationCost = iterCost
		if s.opt.RecordTrace {
			it.Assignment = s.assignmentMap(wBestAssign)
			trace.Iterations = append(trace.Iterations, it)
		}

		if iterCost < bestCost {
			bestCost = iterCost
			bestOrder = append([]int(nil), iterOrder...)
			bestAssign = append([]int(nil), wBestAssign...)
		}
		if iterCost >= prevIterCost || s.opt.DisableResequencing {
			break
		}
		prevIterCost = iterCost
	}

	schedule := s.scheduleFrom(bestOrder, bestAssign)
	p := schedule.Profile(s.g)
	dur := p.TotalTime()
	return &Result{
		Schedule:   schedule,
		Cost:       bestCost,
		Duration:   dur,
		Energy:     p.DeliveredCharge(dur),
		Iterations: iterations,
		Trace:      trace,
	}, nil
}

// refRunFrom is the pre-optimization runFromContext: the iterative loop
// from an explicit initial sequence, without tracing.
func (s *Scheduler) refRunFrom(ctx context.Context, initial []int) (*Result, error) {
	if s.g.MinTotalTime() > s.deadline+timeEps {
		return nil, ErrDeadlineInfeasible
	}
	L := append([]int(nil), initial...)
	bestCost := math.Inf(1)
	var bestOrder, bestAssign []int
	prev := math.Inf(1)
	iterations := 0
	for iter := 0; iter < s.opt.MaxIterations; iter++ {
		iterations++
		wAssign, wCost, _ := s.refEvaluateWindows(ctx, L)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if wAssign == nil {
			wAssign = make([]int, s.n)
			wCost = s.refCostOf(L, wAssign)
		}
		iterCost := wCost
		iterOrder := L
		if !s.opt.DisableResequencing {
			Lw := s.refWeightedSequence(wAssign)
			if cw := s.refCostOf(Lw, wAssign); cw < iterCost {
				iterCost = cw
				iterOrder = Lw
			}
			L = Lw
		}
		if iterCost < bestCost {
			bestCost = iterCost
			bestOrder = append(bestOrder[:0], iterOrder...)
			bestAssign = append(bestAssign[:0], wAssign...)
		}
		if iterCost >= prev || s.opt.DisableResequencing {
			break
		}
		prev = iterCost
	}
	schedule := s.scheduleFrom(bestOrder, bestAssign)
	p := schedule.Profile(s.g)
	dur := p.TotalTime()
	return &Result{
		Schedule:   schedule,
		Cost:       bestCost,
		Duration:   dur,
		Energy:     p.DeliveredCharge(dur),
		Iterations: iterations,
	}, nil
}

// scheduleFrom materializes a Schedule from dense-index order/assignment.
func (s *Scheduler) scheduleFrom(order, assign []int) *sched.Schedule {
	return &sched.Schedule{Order: s.idsOf(order), Assignment: s.assignmentMap(assign)}
}

// refEvaluateWindows is the naive window sweep: every window's assignment
// re-evaluated independently, WindowTrace rows built unconditionally.
func (s *Scheduler) refEvaluateWindows(ctx context.Context, L []int) (bestAssign []int, bestCost float64, windows []WindowTrace) {
	start := s.m - 2
	if start < 0 {
		start = 0
	}
	for s.columnTime(start) > s.deadline+timeEps {
		if start == 0 {
			return nil, math.Inf(1), nil
		}
		start--
	}
	lo := 0
	switch s.opt.Windows {
	case WindowFirstFeasible:
		lo = start
	case WindowFullOnly:
		start = 0
	}
	bestCost = math.Inf(1)
	for ws := start; ws >= lo; ws-- {
		if ctx.Err() != nil {
			return bestAssign, bestCost, windows
		}
		assign, ok := s.refChooseDesignPoints(ctx, L, ws)
		wt := WindowTrace{WindowStart: ws + 1, Feasible: ok, Cost: math.Inf(1)}
		if ok {
			wt.Cost = s.refCostOf(L, assign)
			wt.Duration = s.totalTime(assign)
			if s.opt.RecordTrace {
				wt.Assignment = s.assignmentMap(assign)
			}
			if wt.Cost < bestCost {
				bestCost = wt.Cost
				bestAssign = assign
			}
		}
		windows = append(windows, wt)
	}
	return bestAssign, bestCost, windows
}

// refChooseDesignPoints is the naive backward pass: a fresh assignment
// slice per call, full suitability recomputation per tagged point.
func (s *Scheduler) refChooseDesignPoints(ctx context.Context, L []int, ws int) ([]int, bool) {
	n, m := s.n, s.m
	assign := make([]int, n)
	for i := range assign {
		assign[i] = m - 1
	}
	posOf := make([]int, n)
	for p, ti := range L {
		posOf[ti] = p
	}

	tsum := s.d[L[n-1]][m-1]
	if n == 1 {
		return assign, tsum <= s.deadline+timeEps
	}

	scratch := newRefDPFScratch(n)
	for pos := n - 2; pos >= 0; pos-- {
		if ctx.Err() != nil {
			return nil, false
		}
		ti := L[pos]
		bestB := math.Inf(1)
		bestJ := -1
		for j := m - 1; j >= ws; j-- {
			b := s.refSuitability(L, posOf, assign, tsum, pos, ti, j, ws, scratch)
			if b < bestB {
				bestB = b
				bestJ = j
			}
		}
		if bestJ < 0 || math.IsInf(bestB, 1) {
			return nil, false
		}
		assign[ti] = bestJ
		tsum += s.d[ti][bestJ]
	}
	return assign, s.totalTime(assign) <= s.deadline+timeEps
}

// refSuitability computes B = SR + CR + ENR + CIF + DPF from the naive
// factor evaluators.
func (s *Scheduler) refSuitability(L, posOf, assign []int, tsum float64, pos, ti, j, ws int, scratch *refDPFScratch) float64 {
	d := s.deadline
	sr := (d - (tsum + s.d[ti][j])) / d
	cr := 0.0
	if s.iMax > s.iMin {
		cr = (s.cur[ti][j] - s.iMin) / (s.iMax - s.iMin)
	}
	enr, cif, dpf := s.refCalculateDPF(L, posOf, assign, pos, ti, j, ws, scratch)
	if math.IsInf(dpf, 1) {
		return math.Inf(1)
	}
	var b float64
	f := s.opt.Factors
	if f.Has(FactorSR) {
		b += sr
	}
	if f.Has(FactorCR) {
		b += cr
	}
	if f.Has(FactorENR) {
		b += enr
	}
	if f.Has(FactorCIF) {
		b += cif
	}
	if f.Has(FactorDPF) {
		b += dpf
	}
	return b
}

// refCalculateDPF is the naive escalation: copy the tagged state, rescan
// the full Energy Vector for every escalation step, recount the column
// occupancy per column, and re-derive ENR/CIF over the whole sequence.
func (s *Scheduler) refCalculateDPF(L, posOf, assign []int, pos, ti, j, ws int, scratch *refDPFScratch) (enr, cif, dpf float64) {
	n, m := s.n, s.m
	tmp := scratch.tmp[:n]
	copy(tmp, assign)
	tmp[ti] = j
	frozen := scratch.frozen[:n]
	for i := range frozen {
		frozen[i] = false
	}

	te := s.totalTime(tmp)
	d := s.deadline
	for te > d+timeEps {
		q := -1
		for _, cand := range s.energyOrder {
			if posOf[cand] < pos && !frozen[cand] {
				q = cand
				break
			}
		}
		if q < 0 {
			enr, cif = s.refFactorsOf(L, tmp)
			return enr, cif, math.Inf(1)
		}
		p := tmp[q]
		if p <= ws {
			frozen[q] = true
			continue
		}
		tmp[q] = p - 1
		te += s.d[q][p-1] - s.d[q][p]
		if p-1 == ws {
			frozen[q] = true
		}
	}

	if pos == 0 {
		dpf = (d - te) / d
	} else {
		ufac := m - 1 - ws
		if ufac > 0 {
			f := 1.0 / float64(ufac)
			x := float64(pos)
			for w := 0; w < ufac; w++ {
				col := w
				if s.opt.DPFColumns == DPFWindowRelative {
					col = ws + w
				}
				cnt := 0
				for y := 0; y < pos; y++ {
					if tmp[L[y]] == col {
						cnt++
					}
				}
				if cnt > 0 {
					dpf += float64(ufac-w) * f * float64(cnt) / x
				}
			}
		}
	}
	enr, cif = s.refFactorsOf(L, tmp)
	return enr, cif, dpf
}

// refFactorsOf re-derives ENR and CIF over the whole sequence.
func (s *Scheduler) refFactorsOf(L []int, tmp []int) (enr, cif float64) {
	var en float64
	inc := 0
	prev := 0.0
	for k, ti := range L {
		c := s.cur[ti][tmp[ti]]
		en += c * s.d[ti][tmp[ti]]
		if k > 0 && prev < c {
			inc++
		}
		prev = c
	}
	if s.n > 1 {
		cif = float64(inc) / float64(s.n-1)
	}
	if s.eMax > s.eMin {
		enr = (en - s.eMin) / (s.eMax - s.eMin)
	}
	return enr, cif
}

// refInitialSequence is SequenceDecEnergy over the naive list scheduler.
func (s *Scheduler) refInitialSequence() []int {
	w := s.avgCur
	if s.opt.InitialOrder == WeightAvgEnergy {
		w = s.avgEn
	}
	return s.refListSchedule(w)
}

// refWeightedSequence is Equation-4 resequencing over the graph's
// reachable-index slices.
func (s *Scheduler) refWeightedSequence(assign []int) []int {
	w := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		var sum float64
		for _, u := range s.g.ReachableIndices(i) {
			sum += s.cur[u][assign[u]]
		}
		w[i] = sum
	}
	return s.refListSchedule(w)
}

// refListSchedule is the O(n²) ready-list scheduler: linear max scan per
// emitted task plus slice-shift removal.
func (s *Scheduler) refListSchedule(weight []float64) []int {
	indeg := make([]int, s.n)
	for i := 0; i < s.n; i++ {
		indeg[i] = len(s.g.ParentIndices(i))
	}
	ready := make([]int, 0, s.n)
	for i := 0; i < s.n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, s.n)
	for len(ready) > 0 {
		pick := 0
		for k := 1; k < len(ready); k++ {
			a, b := ready[k], ready[pick]
			if weight[a] > weight[b] || (weight[a] == weight[b] && s.g.IDAt(a) < s.g.IDAt(b)) {
				pick = k
			}
		}
		u := ready[pick]
		ready = append(ready[:pick], ready[pick+1:]...)
		order = append(order, u)
		for _, v := range s.g.ChildIndices(u) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order
}

// refCostOf allocates a fresh profile per evaluation.
func (s *Scheduler) refCostOf(L []int, assign []int) float64 {
	p := make(battery.Profile, 0, len(L))
	for _, ti := range L {
		p = append(p, battery.Interval{Current: s.cur[ti][assign[ti]], Duration: s.d[ti][assign[ti]]})
	}
	return s.model.ChargeLost(p, p.TotalTime())
}
