package core

import (
	"repro/internal/battery"
)

// runScratch is the per-run arena behind the scheduler's hot path. One is
// created per RunContext / runFromContext call (so one per restart in the
// multi-start fan-out), so a Scheduler stays immutable and safe for
// concurrent runs while the inner loops never allocate.
//
// The buffers fall into four groups, mirroring the call tree:
//
//   - backward pass (chooseDesignPoints / calculateDPF): the working
//     assignment, the free-task rank structure and lazily generated
//     trajectory, and the incremental-evaluation base state (see the
//     invariants on chooseDesignPoints);
//   - window sweep: the best-so-far assignment across windows and the
//     all-fastest fallback;
//   - sequencing (listSchedule / weightedSequence): weights, in-degrees and
//     the ready max-heap, plus double-buffered sequence storage;
//   - cost evaluation: one reusable battery profile.
//
// A scratch is single-goroutine state.
type runScratch struct {
	// backward pass
	assign  []int // per-task column: free tasks at m-1, fixed tasks at chosen
	posOf   []int // task index -> sequence position (valid during one pass)
	incBase int   // current-increase count (CIF numerator) of the base state
	// The free tasks in Energy-Vector order as a compact array (ranks
	// 0..nFree-1) plus its inverse. The rank structure fully determines
	// every escalated trajectory state (see trajCur), so escalated
	// columns are read closed-form instead of from walked mirrors.
	// Fixing a position splices one task out (O(nFree)).
	evSeq  []int
	rankOf []int
	nFree  int
	// The window's escalation trajectory: the completion-time delta of
	// move k (rank r's span-block at teDelta[r*span:(r+1)*span], filled
	// once per window and spliced as tasks leave the free set — see
	// fillTrajectory) and the untagged current-increase count after each
	// full rank escalation (incAtRank, rebuilt per position — see
	// preparePosition). nMoves is the current position's move count;
	// the move order itself is a pure function of the move index and
	// evSeq. enPrefixK/enPrefixVal memoize the charge-energy fold prefix
	// over the free positions at stop index enPrefixK, and
	// stateFull/stateRem track which escalation state the enPos overlay
	// currently shows (see syncEnState).
	teDelta     []float64
	incAtRank   []int
	jumpOf      []int
	nMoves      int
	enPrefixK   int
	enPrefixVal float64
	stateFull   int
	stateRem    int
	// Candidate batch state for one sequence position: the surviving
	// candidate columns, their certified lower bounds and skip flags
	// (see lowerBound), and the stop point / final completion time /
	// exhaustion flag recorded by the shared batchStops pass.
	candJ    []int
	candLB   []float64
	candTe   []float64
	candStop []int
	candExh  []bool
	candSkip []bool
	// Running inputs to the candidate lower bound: the minimum
	// current-increase count along the generated trajectory, the summed
	// window-minimum charge-energy of the free tasks, and the summed
	// charge-energy of the fixed suffix.
	incMin     int
	sminFree   float64
	fixedEfSum float64
	// Flat value mirrors kept in lockstep by fixTask so the hot loops
	// scan contiguous float64s: current and charge-energy by sequence
	// position, execution time by task index. curPos and teNow describe
	// the BASE state (free tasks at m-1) — exact for the tagged position
	// and the fixed suffix in every trajectory state, with free
	// positions' escalated currents read closed-form (trajCur). enPos
	// additionally carries a per-rank escalation overlay walked to the
	// current stop point (syncEnState), so the charge-energy prefix fold
	// stays a contiguous scan.
	curPos []float64
	enPos  []float64
	teNow  []float64

	// window sweep
	winAssign []int
	fallback  []int

	// sequencing
	weights    []float64
	indeg      []int
	heap       []int
	seqA, seqB []int
	ordBest    []int
	asgBest    []int

	// cost evaluation
	profile battery.Profile
}

// newScratch builds an arena sized for the scheduler's n tasks and m design
// points. Every slice is at its final capacity, so steady-state runs that
// reuse the scratch (see Runner) perform no allocation.
func (s *Scheduler) newScratch() *runScratch {
	n, m := s.n, s.m
	return &runScratch{
		assign:    make([]int, n),
		posOf:     make([]int, n),
		evSeq:     make([]int, n),
		rankOf:    make([]int, n),
		teDelta:   make([]float64, n*m),
		incAtRank: make([]int, n+1),
		jumpOf:    make([]int, n),
		candJ:     make([]int, m),
		candLB:    make([]float64, m),
		candTe:    make([]float64, m),
		candStop:  make([]int, m),
		candExh:   make([]bool, m),
		candSkip:  make([]bool, m),
		curPos:    make([]float64, n),
		enPos:     make([]float64, n),
		teNow:     make([]float64, n),
		winAssign: make([]int, n),
		fallback:  make([]int, n),
		weights:   make([]float64, n),
		indeg:     make([]int, n),
		heap:      make([]int, 0, n),
		seqA:      make([]int, n),
		seqB:      make([]int, n),
		ordBest:   make([]int, 0, n),
		asgBest:   make([]int, 0, n),
		profile:   make(battery.Profile, 0, n),
	}
}
