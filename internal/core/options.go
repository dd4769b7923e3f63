// Package core implements the paper's contribution: the iterative
// battery-aware task sequencing and design-point allocation algorithm
// (BatteryAwareSQNDPAllocation, Figures 1–2 of Khan & Vemuri, DATE 2005).
//
// Each iteration (a) runs a window-masked backward pass that assigns every
// task a design point by minimizing the suitability score
// B = SR + CR + ENR + CIF + DPF, (b) evaluates the battery cost of the
// resulting schedule with the Rakhmatov–Vrudhula model, and (c) re-sequences
// the tasks by the subgraph current weights of Equation 4. The loop stops
// as soon as an iteration fails to improve on the previous one, so a valid
// schedule is available after every iteration — the property the paper
// emphasizes for on-device use.
//
//battlint:deterministic
package core

import (
	"fmt"
	"math"

	"repro/internal/battery"
)

// InitialWeight selects the priority used by the initial list schedule
// (the paper's SequenceDecEnergy).
type InitialWeight int

const (
	// WeightAvgCurrent ranks ready tasks by mean current over their
	// design points. The paper's text says "average energy", but its
	// printed first sequence S1 for G3 is reproduced exactly by average
	// current (and not by average energy), so this is the default. See
	// ARCHITECTURE.md, "Reading the paper".
	WeightAvgCurrent InitialWeight = iota
	// WeightAvgEnergy ranks ready tasks by mean charge-energy (I·t)
	// over their design points — the paper's literal wording, kept for
	// ablation.
	WeightAvgEnergy
)

func (w InitialWeight) String() string {
	switch w {
	case WeightAvgCurrent:
		return "avg-current"
	case WeightAvgEnergy:
		return "avg-energy"
	default:
		return fmt.Sprintf("InitialWeight(%d)", int(w))
	}
}

// FactorSet is a bitmask of suitability terms, used by ablation studies to
// switch individual terms of B off.
type FactorSet uint8

// Suitability terms of B = SR + CR + ENR + CIF + DPF.
const (
	FactorSR FactorSet = 1 << iota
	FactorCR
	FactorENR
	FactorCIF
	FactorDPF

	// AllFactors enables every term (the paper's configuration).
	AllFactors = FactorSR | FactorCR | FactorENR | FactorCIF | FactorDPF
)

// Has reports whether f includes t.
func (f FactorSet) Has(t FactorSet) bool { return f&t != 0 }

// WindowPolicy selects which windows the per-iteration search evaluates.
type WindowPolicy int

const (
	// WindowSweepAll evaluates every window from the first feasible
	// start down to the full design space (the paper's EvaluateWindows).
	WindowSweepAll WindowPolicy = iota
	// WindowFirstFeasible evaluates only the narrowest feasible window;
	// used by ablations to measure what the sweep buys.
	WindowFirstFeasible
	// WindowFullOnly evaluates only the full window (all design
	// points); used by ablations.
	WindowFullOnly
)

func (w WindowPolicy) String() string {
	switch w {
	case WindowSweepAll:
		return "sweep-all"
	case WindowFirstFeasible:
		return "first-feasible"
	case WindowFullOnly:
		return "full-only"
	default:
		return fmt.Sprintf("WindowPolicy(%d)", int(w))
	}
}

// Options configures the scheduler. The zero value reproduces the paper's
// configuration (Rakhmatov battery with beta 0.273 and ten series
// terms, average-current initial order, full window sweep, all
// suitability terms, resequencing on).
type Options struct {
	// Battery selects the battery model used as the cost function: a
	// validated (kind, parameters) spec resolved exactly once per
	// scheduler construction, never per window. Nil selects
	// battery.DefaultSpec (the paper's Rakhmatov model, beta 0.273,
	// ten series terms). A spec has canonical content, so every job is
	// cacheable and can travel over the wire (the "battery" JSON
	// object; the wire's "beta" shorthand becomes a rakhmatov spec at
	// intake).
	Battery *battery.Spec
	// InitialOrder selects the first-iteration sequencing weight.
	InitialOrder InitialWeight
	// MaxIterations caps the improvement loop as a safety net; 0 means
	// 100. The paper's loop terminates on its own (costs strictly
	// decrease while it continues), so the cap is rarely reached.
	MaxIterations int
	// RecordTrace attaches a full per-iteration trace (sequences,
	// per-window costs, assignments) to the result — the data behind
	// the paper's Tables 2 and 3.
	RecordTrace bool
	// Factors selects the active suitability terms; 0 means all.
	Factors FactorSet
	// Windows selects the window evaluation policy.
	Windows WindowPolicy
	// DisableResequencing skips the Equation-4 weighted resequencing,
	// reducing the algorithm to a single window-search pass (ablation).
	DisableResequencing bool
	// DPFColumns selects how the Fig. 2 pseudocode's DPF column loop is
	// read (the paper is ambiguous for windows narrower than the full
	// design space; see ARCHITECTURE.md, "Reading the paper").
	DPFColumns DPFColumnRule
	// Approx enables the documented approximation mode: a non-negative
	// epsilon that relaxes the backward pass's candidate bound-skip.
	// With Approx = eps > 0, a candidate design point is skipped without
	// full evaluation when a conservative lower bound on its suitability
	// proves it cannot beat the running minimum by more than eps; the
	// design point chosen at every sequence position is therefore
	// guaranteed to score within eps of that position's true minimum
	// suitability B (the per-decision quality bound — see
	// ARCHITECTURE.md "Performance" for why the greedy outer loop keeps
	// this a per-decision, not whole-schedule, bound). Zero (the
	// default) is exact mode: the same bound skips only candidates
	// provably unable to win at all, and results stay bit-identical to
	// the reference evaluators. Approx changes results, so it is hashed
	// into the content-addressed cache key — approximate and exact runs
	// never share a cache entry. Suitability terms are O(1)-normalized
	// (each spans about [0,1]), so useful epsilons are small fractions;
	// values above MaxApprox are rejected.
	Approx float64
}

// MaxApprox bounds Options.Approx. The five suitability terms are each
// normalized to about [0,1], so an epsilon of 16 already out-scores any
// candidate gap — larger values are almost certainly a units mistake.
const MaxApprox = 16

// DPFColumnRule selects the DPF column-weight interpretation.
type DPFColumnRule int

const (
	// DPFWindowRelative weights the window's highest-power column 1,
	// decreasing linearly to 0 at the lowest-power column. It reduces
	// to the paper's Equation 2 for the full window and keeps the
	// stated intent for narrower ones (default).
	DPFWindowRelative DPFColumnRule = iota
	// DPFAbsolute reads the Fig. 2 loop literally: absolute columns
	// 1..(m−WindowStart) carry the decreasing weights, even though the
	// columns below WindowStart are masked out and always empty.
	DPFAbsolute
)

func (r DPFColumnRule) String() string {
	switch r {
	case DPFWindowRelative:
		return "window-relative"
	case DPFAbsolute:
		return "absolute"
	default:
		return fmt.Sprintf("DPFColumnRule(%d)", int(r))
	}
}

// DefaultMaxIterations is the improvement-loop safety cap used when
// Options.MaxIterations is zero.
const DefaultMaxIterations = 100

// ResolveModel returns the battery model the scheduler will cost
// schedules with: BatterySpec().Resolve(), so an invalid spec (say a
// negative or NaN beta) is an error here exactly as it would be on the
// wire or in the cache key. Callers costing schedules outside the
// scheduler (baselines, reports) should use this so their numbers
// cannot drift from the iterative run's.
func (o Options) ResolveModel() (battery.Model, error) {
	return o.BatterySpec().Resolve()
}

// BatterySpec returns the canonical spec of the cost function a run
// with these options uses: Battery canonicalized, or DefaultSpec when
// Battery is nil. It is what content-addressed caches hash.
func (o Options) BatterySpec() battery.Spec {
	if o.Battery == nil {
		return battery.DefaultSpec()
	}
	return o.Battery.Canonical()
}

// Canonical returns a copy of o with every result-affecting scalar
// field resolved to the value the scheduler will actually use
// (MaxIterations, Factors), leaving Battery untouched (caches hash the
// battery through BatterySpec instead). It is the form
// content-addressed caches hash, so a zero field and its explicit
// default produce the same key.
func (o Options) Canonical() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = DefaultMaxIterations
	}
	if o.Factors == 0 {
		o.Factors = AllFactors
	}
	return o
}

// withDefaults checks Approx, resolves the battery model and applies
// the Canonical defaults; NewBase is the only caller (it surfaces the
// error to its caller).
func (o Options) withDefaults() (Options, battery.Model, error) {
	if o.Approx < 0 || o.Approx > MaxApprox || math.IsNaN(o.Approx) {
		return o, nil, fmt.Errorf("core: Options.Approx must be in [0, %d], got %g", MaxApprox, o.Approx)
	}
	model, err := o.ResolveModel()
	if err != nil {
		return o, nil, err
	}
	return o.Canonical(), model, nil
}
