package core

import (
	"context"
	"math"
)

// evaluateWindows is the paper's EvaluateWindows: find the narrowest
// feasible window start, then run the backward design-point selection for
// every window from there down to the full design space, keeping the
// minimum-sigma assignment. It returns (nil, +Inf, nil) when no window
// yields a feasible assignment.
//
// CT(k) — the completion time if every task used column k — decreases as k
// decreases (columns are time-sorted), so the start search widens the
// window until CT fits the deadline.
//
// The returned assignment aliases scr.winAssign and is overwritten by the
// next sweep on the same scratch. WindowTrace rows are built only when
// Options.RecordTrace is set — with tracing off the sweep performs no
// trace-only work (no per-window duration sums, no assignment maps, no
// slice growth) and returns a nil trace.
//
// Cancellation: the sweep checks ctx before each window (and
// chooseDesignPoints checks it between sequence positions), returning
// early with whatever it has evaluated so far. Callers that care must
// check ctx themselves afterwards — a partially swept result is only
// used by RunContext when the context is still live.
//
//battsched:hotpath
func (s *Scheduler) evaluateWindows(ctx context.Context, L []int, scr *runScratch) (bestAssign []int, bestCost float64, windows []WindowTrace) {
	start := s.m - 2
	if start < 0 {
		start = 0
	}
	for s.columnTime(start) > s.deadline+timeEps {
		if start == 0 {
			// Unreachable when Run's feasibility pre-check passed,
			// but kept for direct callers.
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
		assign, ok := s.chooseDesignPoints(ctx, L, ws, scr)
		cost := math.Inf(1)
		if ok {
			cost = s.costOfInto(L, assign, scr.profile[:0])
			if cost < bestCost {
				bestCost = cost
				copy(scr.winAssign, assign)
				bestAssign = scr.winAssign
			}
		}
		if s.opt.RecordTrace {
			wt := WindowTrace{WindowStart: ws + 1, Feasible: ok, Cost: cost}
			if ok {
				wt.Duration = s.totalTime(assign)
				wt.Assignment = s.assignmentMap(assign)
			}
			windows = append(windows, wt)
		}
	}
	return bestAssign, bestCost, windows
}

// columnTime returns CT(j) for 0-based column j.
//
//battsched:hotpath
func (s *Scheduler) columnTime(j int) float64 {
	var t float64
	for i := 0; i < s.n; i++ {
		t += s.d[i][j]
	}
	return t
}

// totalTime returns the completion time of an assignment.
//
//battsched:hotpath
func (s *Scheduler) totalTime(assign []int) float64 {
	var t float64
	for i := 0; i < s.n; i++ {
		t += s.d[i][assign[i]]
	}
	return t
}

// chooseDesignPoints is the paper's ChooseDesignPoints: fix the last task
// in the sequence to its lowest-power point, then walk backwards through
// the sequence; for every task, tag each design point within the window
// [ws..m-1], score it with the suitability B = SR+CR+ENR+CIF+DPF, and fix
// the task at the minimum-B point. Free (not yet processed) tasks are held
// at their lowest-power points; the DPF computation escalates them
// hypothetically to test deadline feasibility.
//
// The reference pass (refChooseDesignPoints in reference_test.go)
// re-escalates from scratch for every tagged design point, rescanning the
// full Energy Vector per escalation step and re-deriving ENR/CIF over the
// whole sequence. This pass exploits two structural facts instead:
//
//  1. The escalation move sequence is candidate-independent. Free tasks
//     escalate strictly in Energy Vector order, each from the lowest-power
//     column m-1 up to the window start ws, so every candidate's escalated
//     state is a prefix of one fixed trajectory; candidates differ only in
//     where along it they stop. The trajectory's completion-time deltas
//     depend only on each moving task's own row, so they are materialized
//     once per window and spliced as tasks leave the free set
//     (fillTrajectory); a candidate evaluation replays them with one
//     register add per move.
//
//  2. The escalation state after k moves is a pure function of k. With
//     span = m-1-ws, ranks below k/span sit at the window start, rank
//     k/span sits k%span columns up from m-1, and higher ranks still sit
//     at m-1 — so a candidate's stop state is read closed-form from its
//     stop index (trajCur, factorsAt) instead of from walked state
//     mirrors. Only the enPos charge-energy mirror carries an escalation
//     overlay, synced per-rank to the stop point (syncEnState) so the
//     prefix fold stays a contiguous scan; the stop points are monotone
//     in j (tagging a faster point lowers the starting time, and IEEE
//     addition is monotone), so consecutive syncs touch few ranks.
//
// On top of the replay, two candidate-pruning rules cut how many
// candidates are evaluated at all:
//
//   - Dominance pruning: the per-task candidate lists (Scheduler.cands,
//     precomputed in NewBase) carry only one representative of every run
//     of exact-duplicate (time, current) columns. Duplicates score
//     bit-identical suitability, and strict `b < bestB` keeps the
//     first-scanned one, so the argmin is unchanged.
//
//   - Bound skip: once a finite bestB exists, a candidate whose cheap
//     lower bound LB = SR + CR (its only terms that can be meaningfully
//     negative; see lowerBound) satisfies LB - lbSlack >= bestB - Approx
//     is skipped without evaluation. With Approx == 0 (exact mode) the
//     slack makes this provably behavior-preserving: B >= LB - lbSlack,
//     so a skipped candidate could never have passed `b < bestB`. With
//     Approx = eps > 0 every skipped candidate is within eps of the
//     running minimum, which bounds the chosen point's suitability to
//     min B + eps for the position.
//
// Float quantities are never carried by running deltas across candidates,
// because float deltas round differently than fresh sums and the
// equivalence contract (bit-identical Results, equivalence_test.go) must
// hold even for inputs where a one-ULP difference is amplified (e.g.
// ENR's normalization when Emax−Emin is tiny). Each candidate computes
// its starting completion time and escalated charge-energy as fresh
// left-to-right folds with the reference's exact operation order, and
// replays the trajectory's te deltas exactly as the reference adds them —
// so every comparison the reference makes is reproduced bit-for-bit.
// Integer state (the column occupancy counts behind DPF, the
// current-increase count behind CIF) is maintained incrementally, which
// is exact by nature.
//
// Per candidate the cost is O(n + stop index + m) — two linear folds, the
// te replay and the O(m) occupancy read — instead of the reference's
// Θ(n·m + steps·n). The returned assignment aliases scr.assign.
//
// It returns the per-task-index assignment and whether a deadline-feasible
// assignment was found (a finite B for the first sequence position implies
// feasibility, because no free tasks remain there). A canceled ctx makes
// it bail out between sequence positions with (nil, false) — each
// position is the finest cancellation grain that stays off the
// arithmetic hot path.
//
//battsched:hotpath
func (s *Scheduler) chooseDesignPoints(ctx context.Context, L []int, ws int, scr *runScratch) ([]int, bool) {
	n, m := s.n, s.m
	assign := scr.assign
	for i := range assign {
		assign[i] = m - 1
	}
	// posOf lets the trajectory walk find a task's sequence position.
	posOf := scr.posOf
	for p, ti := range L {
		posOf[ti] = p
	}

	// The last task is fixed to the lowest-power design point (the
	// paper's S(n,m) = 1); Tsum tracks the total time of fixed tasks.
	tsum := s.d[L[n-1]][m-1]
	if n == 1 {
		return assign, tsum <= s.deadline+timeEps
	}

	s.primeScratch(L, assign, scr)
	// The free tasks (sequence positions before the first processed
	// position n-2) in Energy-Vector order, as a compact array plus its
	// inverse. evSeq fully determines every escalated state: free tasks
	// escalate strictly in this order, each exactly span = m-1-ws
	// columns, so after k moves ranks below k/span sit at the window
	// start, rank k/span sits k%span columns up, and the rest still sit
	// at m-1 — the closed form every state read below uses in place of
	// walked mirrors.
	scr.nFree = 0
	for _, q := range s.energyOrder {
		if posOf[q] >= n-2 {
			continue
		}
		scr.rankOf[q] = scr.nFree
		scr.evSeq[scr.nFree] = q
		scr.nFree++
	}
	// Running state behind the candidate lower bound (see lowerBound):
	// the charge-energy of the already-fixed suffix, and the sum of
	// each free task's minimum charge-energy over the window's columns.
	scr.fixedEfSum = s.ef[L[n-1]*m+m-1]
	scr.sminFree = 0
	for _, q := range scr.evSeq[:scr.nFree] {
		scr.sminFree += s.minEfFrom[q*m+ws]
	}
	s.fillTrajectory(ws, scr)
	span := m - 1 - ws
	// Per-task full-escalation jump deltas for incAtRank (preparePosition).
	// A jump delta depends only on the task's neighbors' status — frozen
	// ranks below it, base above, fixed suffix — which splices preserve
	// (relative rank order is stable), so the cache stays valid except for
	// the one task whose sequence neighbor just became the tag; that entry
	// is refreshed each position.
	if span > 0 {
		for r := 0; r < scr.nFree; r++ {
			scr.jumpOf[scr.evSeq[r]] = s.rankMoveDelta(L, posOf, n-2, ws, r, ws, scr)
		}
	}
	eps := s.opt.Approx
	audit := s.skipAudit != nil
	for pos := n - 2; pos >= 0; pos-- {
		if ctx.Err() != nil {
			return nil, false
		}
		ti := L[pos]
		s.preparePosition(L, posOf, pos, ws, scr)
		// The completion-time fold's prefix before ti is candidate-
		// independent (teNow only changes between positions), so fold it
		// once here; each candidate folds only the substituted entry and
		// the suffix, with the reference's exact operation order.
		tePre := sumFloats(scr.teNow[:ti])
		nc := 0
		for _, jj := range s.cands[ti] {
			j := int(jj)
			if j < ws {
				break
			}
			scr.candJ[nc] = j
			nc++
		}
		bestB := math.Inf(1)
		bestJ := -1
		// The first candidate (always column m-1, the largest starting
		// completion time) evaluates solo: its replay generates the
		// position's trajectory, and — stop points being monotone —
		// every later candidate stops at or before its stop, so no move
		// is ever generated again this position.
		if b := s.suitability(L, posOf, tsum, tePre, pos, ti, scr.candJ[0], ws, scr); b < bestB {
			bestB = b
			bestJ = scr.candJ[0]
		}
		// Bound-skip pass: drop candidates certified unable to beat
		// bestB (by more than the approximation epsilon, if set). With
		// the audit hook armed, skipped candidates stay in the batch
		// (flagged) so the hook can score them exactly; batching extra
		// candidates never changes the others' folds.
		nb := 1
		for c := 1; c < nc; c++ {
			j := scr.candJ[c]
			lb := s.lowerBound(tsum, pos, ti, j, scr)
			skipNow := bestJ >= 0 && lb <= lbGuardMax && lb-s.lbSlack >= bestB-eps
			if skipNow && !audit {
				continue
			}
			scr.candJ[nb] = j
			scr.candLB[nb] = lb
			scr.candSkip[nb] = skipNow
			nb++
		}
		// One pass over the cache-hot trajectory computes every surviving
		// candidate's stop point and completion time bit-exactly.
		if nb > 1 {
			s.batchStops(tePre, ti, nb, scr)
		}
		for c := 1; c < nb; c++ {
			j := scr.candJ[c]
			lb := scr.candLB[c]
			// Re-check the bound against the updated bestB: a candidate
			// that survived the pass above may be provably beaten now.
			if scr.candSkip[c] || (bestJ >= 0 && lb <= lbGuardMax && lb-s.lbSlack >= bestB-eps) {
				if audit {
					s.skipAudit(pos, j, lb-s.lbSlack, bestB,
						s.suitabilityAt(L, posOf, tsum, pos, ti, ws, c, scr))
				}
				continue
			}
			if b := s.suitabilityAt(L, posOf, tsum, pos, ti, ws, c, scr); b < bestB {
				bestB = b
				bestJ = j
			}
		}
		// Rewind the enPos escalation overlay to the base before the next
		// position (the free set shrinks and the frozen task's entry is
		// rewritten by fixTask).
		s.syncEnState(posOf, ws, 0, scr)
		if bestJ < 0 || math.IsInf(bestB, 1) {
			return nil, false
		}
		s.fixTask(pos, ti, bestJ, scr)
		tsum += s.d[ti][bestJ]
		if pos > 0 {
			// Drop L[pos-1] from the free set: splice it out of evSeq and
			// the trajectory (its span-block of deltas) and shift the
			// later ranks down.
			q := L[pos-1]
			r := scr.rankOf[q]
			copy(scr.evSeq[r:scr.nFree-1], scr.evSeq[r+1:scr.nFree])
			if span > 0 {
				copy(scr.teDelta[r*span:(scr.nFree-1)*span], scr.teDelta[(r+1)*span:scr.nFree*span])
			}
			scr.nFree--
			for x := r; x < scr.nFree; x++ {
				scr.rankOf[scr.evSeq[x]]--
			}
			scr.sminFree -= s.minEfFrom[q*m+ws]
		}
	}
	return assign, s.totalTime(assign) <= s.deadline+timeEps
}

// lbGuardMax guards the bound skip against pathological inputs: the
// B >= LB - lbSlack argument budgets the fold-rounding slack for partial
// sums of magnitude up to 16 (each normalized suitability term spans
// about [0,1], so real inputs sit far below it); candidates with a
// larger LB are simply always evaluated.
const lbGuardMax = 16

// lowerBound computes a certified lower bound on a candidate's
// suitability B from O(1) state:
//
//   - SR and CR use the exact expressions and accumulation order
//     suitability uses;
//   - ENR is bounded through the escalated charge-energy: whatever the
//     stop point, every free task sits somewhere in the window's
//     columns, so en >= sminFree + the tag's energy + the fixed
//     suffix's energy (in real arithmetic; lbSlack budgets the fold
//     rounding). The bound term may be negative — it is added
//     unclamped, which only weakens LB and never unsoundly strengthens
//     it;
//   - CIF is bounded through incMin, a certified lower bound on the
//     current-increase count at every trajectory state (see
//     preparePosition): inc >= incMin - 2 (the tag flips at most two
//     adjacent pairs), and integer-to-float conversion and division by
//     the same positive constant are monotone, so the bound is exact
//     with no slack. The count is non-negative, so the term is clamped
//     at zero;
//   - DPF is non-negative except at pos == 0, covered by lbSlack.
//
// B >= LB - lbSlack holds for every candidate the reference scores (see
// SchedulerBase.Scheduler for the slack budget), which is what makes
// skipping on LB - lbSlack >= bestB - eps exact for eps == 0 and
// eps-bounded otherwise.
//
//battsched:hotpath
func (s *Scheduler) lowerBound(tsum float64, pos, ti, j int, scr *runScratch) float64 {
	d := s.deadline
	var b float64
	f := s.opt.Factors
	if f.Has(FactorSR) {
		b += (d - (tsum + s.df[ti*s.m+j])) / d
	}
	if f.Has(FactorCR) {
		cr := 0.0
		if s.iMax > s.iMin {
			cr = (s.cf[ti*s.m+j] - s.iMin) / (s.iMax - s.iMin)
		}
		b += cr
	}
	if f.Has(FactorENR) && s.eMax > s.eMin {
		en := scr.sminFree + s.ef[ti*s.m+j] + scr.fixedEfSum
		b += (en - s.eMin) / (s.eMax - s.eMin)
	}
	if f.Has(FactorCIF) && s.n > 1 {
		if inc := scr.incMin - 2; inc > 0 {
			b += float64(inc) / float64(s.n-1)
		}
	}
	return b
}

// batchStops computes the stop point, final completion time and
// exhaustion flag for candidates candJ[1..nb) by replaying each against
// the position's trajectory deltas (cache-hot after the solo candidate's
// replay, which has the largest stop). Each candidate's completion time
// is exactly the fold the reference performs — fresh start fold, then
// the per-move deltas in order, accumulated in a register — so the
// recorded stops and times are bit-identical to the reference's
// escalation.
//
//battsched:hotpath
func (s *Scheduler) batchStops(tePre float64, ti, nb int, scr *runScratch) {
	d := s.deadline
	m := s.m
	deltas := scr.teDelta
	nm := scr.nMoves
	for c := 1; c < nb; c++ {
		te := tePre
		te += s.df[ti*m+scr.candJ[c]]
		for _, x := range scr.teNow[ti+1:] {
			te += x
		}
		k := 0
		exh := false
		for te > d+timeEps {
			if k == nm {
				exh = true
				break
			}
			te += deltas[k]
			k++
		}
		scr.candTe[c] = te
		scr.candStop[c] = k
		scr.candExh[c] = exh
	}
}

// primeScratch establishes the incremental-evaluation invariants for a
// backward pass over the base state in assign: incBase is the current-
// increase count of assign, and the curPos/enPos/teNow value mirrors
// describe assign (free tasks at m-1, fixed at chosen — they track the
// base state only; escalated states are read closed-form, see trajCur).
//
//battsched:hotpath
func (s *Scheduler) primeScratch(L, assign []int, scr *runScratch) {
	m := s.m
	scr.incBase = s.incOf(L, assign)
	for p, ti := range L {
		scr.curPos[p] = s.cf[ti*m+assign[ti]]
		scr.enPos[p] = s.ef[ti*m+assign[ti]]
	}
	for i := 0; i < s.n; i++ {
		scr.teNow[i] = s.df[i*m+assign[i]]
	}
	scr.nMoves = 0
	scr.stateFull = 0
	scr.stateRem = 0
}

// incOf returns the number of adjacent sequence pairs at which current
// strictly increases (the CIF numerator) for order L under assign.
//
//battsched:hotpath
func (s *Scheduler) incOf(L, assign []int) int {
	inc := 0
	prev := 0.0
	for k, ti := range L {
		c := s.cur[ti][assign[ti]]
		if k > 0 && prev < c {
			inc++
		}
		prev = c
	}
	return inc
}

// fillTrajectory materializes the window's full escalation trajectory
// for the current free set: rank r's span = m-1-ws moves occupy
// teDelta[r*span:(r+1)*span], move i leaving column m-1-i, each delta
// exactly the completion-time change the reference adds. The deltas
// depend only on the moving task's own row — never on neighbors — so
// between positions the trajectory is maintained by splicing the newly
// fixed task's block out (see chooseDesignPoints) and this fill runs
// once per window.
//
//battsched:hotpath
func (s *Scheduler) fillTrajectory(ws int, scr *runScratch) {
	m := s.m
	span := m - 1 - ws
	if span <= 0 {
		return
	}
	k := 0
	for r := 0; r < scr.nFree; r++ {
		q := scr.evSeq[r]
		dfRow := s.df[q*m : q*m+m]
		oldD := dfRow[m-1]
		for p := m - 1; p > ws; p-- {
			newD := dfRow[p-1]
			scr.teDelta[k] = newD - oldD
			oldD = newD
			k++
		}
	}
}

// preparePosition arms the per-position trajectory state: the position's
// move count (every one of its pos free ranks escalates exactly span
// columns), the invalidated charge-energy memo, and the untagged
// current-increase count after each full rank escalation (incAtRank).
// The jump delta of a full escalation needs only the rank's endpoint
// columns: the escalating task's sequence neighbors hold still for its
// whole span — lower ranks are already frozen at the window start,
// higher ranks have not moved — so only the task's two adjacent pairs
// change, and intermediate columns cancel out. incMin is a sound lower
// bound on the increase count at every trajectory state, full or
// partial: a partially escalated rank differs from its incAtRank state
// in at most its own two pairs, hence the -2.
//
//battsched:hotpath
func (s *Scheduler) preparePosition(L, posOf []int, pos, ws int, scr *runScratch) {
	span := s.m - 1 - ws
	if span < 0 {
		span = 0
	}
	scr.nMoves = pos * span
	scr.enPrefixK = -1
	inc := scr.incBase
	scr.incAtRank[0] = inc
	minInc := inc
	if span > 0 && pos > 0 {
		// The last free task's right neighbor just became the tag (read
		// at its base column); every other cached jump delta is still
		// valid — splices preserve relative rank order and no other
		// neighbor changed status.
		qLast := L[pos-1]
		scr.jumpOf[qLast] = s.rankMoveDelta(L, posOf, pos, ws, scr.rankOf[qLast], ws, scr)
		for r := 0; r < pos; r++ {
			inc += scr.jumpOf[scr.evSeq[r]]
			scr.incAtRank[r+1] = inc
			if inc < minInc {
				minInc = inc
			}
		}
	}
	scr.incMin = minInc - 2
}

// rankMoveDelta returns the change to the untagged current-increase
// count from rank r's task moving from its base column m-1 to toCol,
// with ranks below r frozen at the window start and higher ranks at the
// base — the state in which the trajectory escalates rank r. Only the
// task's two adjacent sequence pairs can change; the neighbor currents
// are read closed-form (trajCur).
//
//battsched:hotpath
func (s *Scheduler) rankMoveDelta(L, posOf []int, pos, ws, r, toCol int, scr *runScratch) int {
	m := s.m
	q := scr.evSeq[r]
	oldC := s.cf[q*m+m-1]
	newC := s.cf[q*m+toCol]
	delta := 0
	pq := posOf[q]
	if pq > 0 {
		left := s.trajCur(L, pos, ws, r, m-1, pq-1, scr)
		if left < oldC {
			delta--
		}
		if left < newC {
			delta++
		}
	}
	if pq < s.n-1 {
		right := s.trajCur(L, pos, ws, r, m-1, pq+1, scr)
		if oldC < right {
			delta--
		}
		if newC < right {
			delta++
		}
	}
	return delta
}

// trajCur returns the current draw of the task at sequence position p2
// in the untagged trajectory state where ranks below r are fully
// escalated to the window start, rank r sits at column pcol, and higher
// ranks still sit at m-1. Positions at or after pos (the tagged task at
// its base column and the fixed suffix) read the base mirror, which is
// exact for them in every trajectory state.
//
//battsched:hotpath
func (s *Scheduler) trajCur(L []int, pos, ws, r, pcol, p2 int, scr *runScratch) float64 {
	if p2 >= pos {
		return scr.curPos[p2]
	}
	u := L[p2]
	ru := scr.rankOf[u]
	switch {
	case ru < r:
		return s.cf[u*s.m+ws]
	case ru > r:
		return s.cf[u*s.m+s.m-1]
	default:
		return s.cf[u*s.m+pcol]
	}
}

// fixTask commits task ti (sequence position pos) to column j: the working
// assignment, the value mirrors, and the increase-count base absorb the
// change in O(1) (only the two sequence pairs adjacent to pos can change
// the increase count).
//
//battsched:hotpath
func (s *Scheduler) fixTask(pos, ti, j int, scr *runScratch) {
	base := ti*s.m + j
	oldC := scr.curPos[pos]
	newC := s.cf[base]
	delta := 0
	if pos > 0 {
		left := scr.curPos[pos-1]
		if left < oldC {
			delta--
		}
		if left < newC {
			delta++
		}
	}
	if pos < s.n-1 {
		right := scr.curPos[pos+1]
		if oldC < right {
			delta--
		}
		if newC < right {
			delta++
		}
	}
	scr.incBase += delta
	scr.curPos[pos] = newC
	scr.enPos[pos] = s.ef[base]
	scr.teNow[ti] = s.df[base]
	scr.assign[ti] = j
}

// suitability computes B = SR + CR + ENR + CIF + DPF for tagging task ti
// (at sequence position pos) with design point j, given the fixed time sum
// tsum and the position's trajectory in scr. A +Inf result marks a
// deadline-violating choice.
//
//battsched:hotpath
func (s *Scheduler) suitability(L, posOf []int, tsum, tePre float64, pos, ti, j, ws int, scr *runScratch) float64 {
	enr, cif, dpf := s.calculateDPF(L, posOf, tePre, pos, ti, j, ws, scr)
	return s.combineB(tsum, ti, j, enr, cif, dpf)
}

// suitabilityAt computes the same B as suitability for candidate index c,
// reading its stop point, completion time and exhaustion flag from the
// batchStops pass instead of replaying the trajectory.
//
//battsched:hotpath
func (s *Scheduler) suitabilityAt(L, posOf []int, tsum float64, pos, ti, ws, c int, scr *runScratch) float64 {
	j := scr.candJ[c]
	enr, cif, dpf := s.factorsAt(L, posOf, scr.candTe[c], pos, ti, j, ws, scr.candStop[c], scr.candExh[c], scr)
	return s.combineB(tsum, ti, j, enr, cif, dpf)
}

// combineB folds the suitability terms in the reference's order, gating
// each on the active factor set. A +Inf DPF (deadline unreachable) makes
// the whole score +Inf regardless of the factor set, exactly as the
// reference treats infeasible candidates.
//
//battsched:hotpath
func (s *Scheduler) combineB(tsum float64, ti, j int, enr, cif, dpf float64) float64 {
	if math.IsInf(dpf, 1) {
		return math.Inf(1)
	}
	d := s.deadline
	sr := (d - (tsum + s.df[ti*s.m+j])) / d
	cr := 0.0
	if s.iMax > s.iMin {
		cr = (s.cf[ti*s.m+j] - s.iMin) / (s.iMax - s.iMin)
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

// calculateDPF is the paper's CalculateDPF plus CalculateFactors: starting
// from the tagged state (fixed tasks at their chosen points, task ti tagged
// at j, free tasks at lowest power), escalate free tasks one design-point
// step at a time — always the free task with the smallest average energy —
// until the deadline is met or no free task can move. Tasks reaching the
// window's highest-power column are frozen. The returned DPF is the
// design-point fraction of the escalated state (+Inf when the deadline
// cannot be met); ENR and CIF are computed on the same escalated state.
//
// The escalation itself is a replay of the position's lazily generated
// trajectory (see chooseDesignPoints): the starting completion time is a
// fresh task-index-order fold with ti substituted to j — the reference's
// exact operation sequence, with the candidate-independent prefix before
// ti folded once per position (tePre) — and the per-move deltas are
// added exactly as the reference adds them, generating new moves only
// when the replay outruns the trajectory so far, so the stop point falls
// on the same move for the same reasons, bit for bit. Freeze bookkeeping
// needs no replay: a frozen task never changes the state the factors
// read, only the probe order, which the trajectory already encodes.
//
//battsched:hotpath
func (s *Scheduler) calculateDPF(L, posOf []int, tePre float64, pos, ti, j, ws int, scr *runScratch) (enr, cif, dpf float64) {
	m := s.m
	d := s.deadline

	// Starting completion time of the tagged state: prefix fold, the
	// substituted tag, then the suffix — the same left-to-right
	// operation sequence as folding the whole substituted mirror.
	te := tePre
	te += s.df[ti*m+j]
	for _, x := range scr.teNow[ti+1:] {
		te += x
	}

	// Replay the trajectory's deltas to the candidate's stop point.
	k := 0
	nm := scr.nMoves
	deltas := scr.teDelta
	exhausted := false
	for te > d+timeEps {
		if k == nm {
			// No free task can move: the deadline cannot be met.
			exhausted = true
			break
		}
		te += deltas[k]
		k++
	}
	return s.factorsAt(L, posOf, te, pos, ti, j, ws, k, exhausted, scr)
}

// syncEnState walks the enPos escalation overlay to trajectory state k:
// ranks below k/span sit at the window start, rank k/span sits k%span
// columns up from the base, the rest at the base column m-1. Consecutive
// candidates' stop points are close, so the walk touches only the ranks
// between the two states — O(|Δ| + 1) per call — and the charge-energy
// prefix fold stays a contiguous scan of enPos.
//
//battsched:hotpath
func (s *Scheduler) syncEnState(posOf []int, ws, k int, scr *runScratch) {
	span := s.m - 1 - ws
	full, rem := 0, 0
	if span > 0 {
		full, rem = k/span, k%span
	}
	if scr.stateFull == full && scr.stateRem == rem {
		return
	}
	m := s.m
	F := scr.stateFull
	if scr.stateRem > 0 {
		// Reset the old partial rank to its base column first, leaving a
		// clean "ranks below F at ws, rest at base" state to walk from.
		q := scr.evSeq[F]
		scr.enPos[posOf[q]] = s.ef[q*m+m-1]
	}
	for F < full {
		q := scr.evSeq[F]
		scr.enPos[posOf[q]] = s.ef[q*m+ws]
		F++
	}
	for F > full {
		F--
		q := scr.evSeq[F]
		scr.enPos[posOf[q]] = s.ef[q*m+m-1]
	}
	if rem > 0 {
		q := scr.evSeq[full]
		scr.enPos[posOf[q]] = s.ef[q*m+m-1-rem]
	}
	scr.stateFull = full
	scr.stateRem = rem
}

// factorsAt computes ENR, CIF and DPF for tagging (ti at pos) with j when
// the escalation stops after k trajectory moves with final completion time
// te (exhausted marks a trajectory that ran dry above the deadline). The
// escalated state is read closed-form from the stop point: with
// span = m-1-ws, ranks below k/span sit at the window start, rank k/span
// sits k%span columns up from m-1, higher ranks at m-1. The charge-energy
// fold substitutes the tag into the sequence-order fold; the increase
// count adds the tag's two adjacent pairs onto the trajectory's
// precomputed count. The fold's prefix over the free positions (before
// pos) depends only on the stop point k, so it is memoized per
// (position, k) and computed as a contiguous scan of the enPos overlay
// after an O(|Δ|) sync (syncEnState); the substituted tag and the fixed
// suffix are folded fresh, preserving the reference's operation order.
//
//battsched:hotpath
func (s *Scheduler) factorsAt(L, posOf []int, te float64, pos, ti, j, ws, k int, exhausted bool, scr *runScratch) (enr, cif, dpf float64) {
	m := s.m
	d := s.deadline
	span := m - 1 - ws
	full, rem := 0, 0
	if span > 0 {
		full, rem = k/span, k%span
	}
	pcol := m - 1 - rem // the partially escalated rank's column

	if scr.enPrefixK != k {
		s.syncEnState(posOf, ws, k, scr)
		scr.enPrefixVal = sumFloats(scr.enPos[:pos])
		scr.enPrefixK = k
	}
	en := scr.enPrefixVal
	en += s.ef[ti*m+j]
	for _, x := range scr.enPos[pos+1:] {
		en += x
	}
	// The untagged increase count at the stop state: full rank jumps are
	// precomputed (incAtRank); a partially escalated rank adjusts by its
	// own two pairs, exactly as if it had jumped straight to pcol —
	// intermediate columns cancel.
	inc := scr.incAtRank[full]
	if rem > 0 {
		inc += s.rankMoveDelta(L, posOf, pos, ws, full, pcol, scr)
	}
	inc += s.tagIncDelta(L, pos, ti, j, ws, full, pcol, scr)
	enr, cif = s.factorsFrom(en, inc)
	if exhausted {
		return enr, cif, math.Inf(1)
	}

	if pos == 0 {
		// Processing the first task in the sequence: no free tasks
		// remain, so the paper replaces DPF with the slack ratio to
		// emphasize using up the slack.
		dpf = (d - te) / d
	} else {
		// Weighted column occupancy of the free tasks, read closed-form
		// from (full, rem): full tasks at the window start, one at pcol
		// when rem > 0, the rest at m-1 (weight zero, outside the loop's
		// column range). Columns are weighted window-relative: the
		// window's highest-power column ws weighs 1, decreasing linearly
		// to 0 at the lowest-power column m-1 (Equation 2 when ws = 0;
		// see ARCHITECTURE.md, "Reading the paper").
		ufac := span
		if ufac > 0 {
			f := 1.0 / float64(ufac)
			x := float64(pos)
			for w := 0; w < ufac; w++ {
				col := w // DPFAbsolute: literal columns 0..ufac-1
				if s.opt.DPFColumns == DPFWindowRelative {
					col = ws + w
				}
				cnt := 0
				if col == ws {
					cnt += full
				}
				if rem > 0 && col == pcol {
					cnt++
				}
				if cnt > 0 {
					dpf += float64(ufac-w) * f * float64(cnt) / x
				}
			}
		}
	}
	return enr, cif, dpf
}

// tagIncDelta returns the change to the current-increase count from
// tagging task ti (sequence position pos) at column j, relative to its
// base column m-1, against the untagged escalated state where ranks
// below full sit at the window start and rank full at pcol (closed-form,
// see trajCur). The right neighbor is always fixed, so it reads the base
// mirror directly.
//
//battsched:hotpath
func (s *Scheduler) tagIncDelta(L []int, pos, ti, j, ws, full, pcol int, scr *runScratch) int {
	m := s.m
	oldC := s.cf[ti*m+m-1]
	newC := s.cf[ti*m+j]
	delta := 0
	if pos > 0 {
		left := s.trajCur(L, pos, ws, full, pcol, pos-1, scr)
		if left < oldC {
			delta--
		}
		if left < newC {
			delta++
		}
	}
	if pos < s.n-1 {
		right := scr.curPos[pos+1]
		if oldC < right {
			delta--
		}
		if newC < right {
			delta++
		}
	}
	return delta
}

// sumFloats folds the slice left to right. The hot path sums the teNow
// (task-index order, matching totalTime) and enPos (sequence order,
// matching refFactorsOf) mirrors through it, so both sums are bit-exact
// replicas of the reference's.
//
//battsched:hotpath
func sumFloats(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// factorsFrom finishes the paper's CalculateFactors from the escalated
// state's charge-energy sum and the incrementally maintained
// current-increase count.
//
//battsched:hotpath
func (s *Scheduler) factorsFrom(en float64, inc int) (enr, cif float64) {
	if s.n > 1 {
		cif = float64(inc) / float64(s.n-1)
	}
	if s.eMax > s.eMin {
		enr = (en - s.eMin) / (s.eMax - s.eMin)
	}
	return enr, cif
}
