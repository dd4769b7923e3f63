package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sched"
)

// Canonical strategy names, matching cmd/battsched's -algo vocabulary
// plus the multi-start and recovery-rest extensions.
const (
	// StrategyIterative is the paper's iterative algorithm (default).
	StrategyIterative = "iterative"
	// StrategyMultiStart adds seeded random restarts, run concurrently.
	StrategyMultiStart = "multistart"
	// StrategyWithIdle runs the iterative algorithm and then spends the
	// leftover deadline slack as recovery rest.
	StrategyWithIdle = "withidle"
	// StrategyRVDP is the reference-[1] baseline: exact minimum-energy
	// design points (dynamic program) + Equation-5 greedy sequencing.
	StrategyRVDP = "rv-dp"
	// StrategyChowdhury is the reference-[7]-style slack-scaling
	// heuristic.
	StrategyChowdhury = "chowdhury"
	// StrategyAllFastest runs everything at the fastest design point.
	StrategyAllFastest = "all-fastest"
	// StrategyLowestPower is the deadline-aware lowest-power strawman.
	StrategyLowestPower = "lowest-power"
)

// strategyAliases maps every accepted spelling to its canonical name.
var strategyAliases = map[string]string{
	"":                  StrategyIterative,
	StrategyIterative:   StrategyIterative,
	StrategyMultiStart:  StrategyMultiStart,
	"multi-start":       StrategyMultiStart,
	StrategyWithIdle:    StrategyWithIdle,
	"with-idle":         StrategyWithIdle,
	"idle":              StrategyWithIdle,
	StrategyRVDP:        StrategyRVDP,
	"rvdp":              StrategyRVDP,
	StrategyChowdhury:   StrategyChowdhury,
	StrategyAllFastest:  StrategyAllFastest,
	StrategyLowestPower: StrategyLowestPower,
}

// Strategies returns the canonical strategy names, sorted.
func Strategies() []string {
	set := map[string]bool{}
	for _, v := range strategyAliases {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// CanonicalStrategy normalizes a strategy name ("" means iterative) or
// returns an error naming the accepted values.
func CanonicalStrategy(name string) (string, error) {
	if s, ok := strategyAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return s, nil
	}
	return "", fmt.Errorf("engine: unknown strategy %q (accepted: %s)", name, strings.Join(Strategies(), " | "))
}

// execute runs the canonical strategy for a job, filling res.
// restartWorkers is the default fan-out for multistart jobs that did
// not pin MultiStart.Workers themselves. ctx cancels the iterative
// strategies mid-search; the closed-form baselines run to completion
// (they are polynomial passes, orders of magnitude below one iterative
// window sweep) after an up-front ctx check.
func (e *Engine) execute(ctx context.Context, strategy string, job Job, res *Result, restartWorkers int) error {
	switch strategy {
	case StrategyIterative, StrategyMultiStart, StrategyWithIdle:
		s, err := core.New(job.Graph, job.Deadline, job.Options)
		if err != nil {
			return err
		}
		var r *core.Result
		switch strategy {
		case StrategyIterative:
			r, err = s.RunContext(ctx)
		case StrategyMultiStart:
			ms := job.MultiStart
			if ms.Workers == 0 {
				ms.Workers = restartWorkers
			}
			r, err = core.RunMultiStartContext(ctx, s, ms)
		case StrategyWithIdle:
			r, err = s.RunContext(ctx)
			if err == nil {
				res.Idle, err = core.OptimizeIdle(job.Graph, r.Schedule, job.Deadline, s.Model(), 0)
			}
		}
		if err != nil {
			return err
		}
		res.Schedule = r.Schedule
		res.Cost = r.Cost
		res.Duration = r.Duration
		res.Energy = r.Energy
		res.Iterations = r.Iterations
		return nil
	case StrategyRVDP, StrategyChowdhury, StrategyAllFastest, StrategyLowestPower:
		if err := ctx.Err(); err != nil {
			return err
		}
		// Resolve the battery spec up front so an invalid one is this
		// job's error (not a panic) and the costing below never fails.
		model, err := job.Options.ResolveModel()
		if err != nil {
			return err
		}
		var s *sched.Schedule
		switch strategy {
		case StrategyRVDP:
			s, err = baseline.RakhmatovSchedule(job.Graph, job.Deadline)
		case StrategyChowdhury:
			s, err = baseline.ChowdhurySchedule(job.Graph, job.Deadline, nil)
		case StrategyAllFastest:
			s, err = baseline.AllFastest(job.Graph, job.Deadline)
		case StrategyLowestPower:
			s, err = baseline.LowestPowerFeasible(job.Graph, job.Deadline)
		}
		if err != nil {
			return err
		}
		stats := s.Summarize(job.Graph, model, job.Deadline)
		res.Schedule = s
		res.Cost = stats.Cost
		res.Duration = stats.Duration
		res.Energy = stats.Energy
		return nil
	default:
		return fmt.Errorf("engine: unhandled strategy %q", strategy)
	}
}
