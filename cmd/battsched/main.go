// Command battsched schedules a task-graph JSON file onto a battery-powered
// platform with the paper's iterative battery-aware algorithm and prints
// the schedule, its battery cost and a comparison with the baselines.
//
// Usage:
//
//	battsched -graph app.json -deadline 230 [-beta 0.273] [-algo iterative]
//	battsched -fixture g3 -deadline 230 -trace
//	battsched -fixture g3 -deadline 230 -battery kibam,capacity=40000,c=0.5,rate=0.1
//
// -battery selects the battery model declaratively (kinds: rakhmatov,
// ideal, peukert, kibam, calibrated; see battery.ParseSpec for the
// parameter names). -beta b is shorthand for -battery rakhmatov,beta=b
// and is read into exactly that spec; the two flags are mutually
// exclusive. The graph schema is documented in the README; cmd/taskgen
// generates synthetic instances.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/baseline"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "task graph JSON file")
		fixture   = flag.String("fixture", "", "use a built-in graph instead: g2 or g3")
		deadline  = flag.Float64("deadline", 0, "deadline in minutes (required)")
		beta      = flag.Float64("beta", battery.DefaultBeta, "battery diffusion parameter (min^-1/2); shorthand for -battery rakhmatov,beta=...")
		batt      = flag.String("battery", "", "battery model spec, e.g. kibam,capacity=40000,c=0.5,rate=0.1 (kinds: rakhmatov | ideal | peukert | kibam | calibrated)")
		algo      = flag.String("algo", "iterative", "algorithm: iterative | rv-dp | chowdhury | all-fastest | lowest-power")
		approx    = flag.Float64("approx", 0, "approximation tolerance in B-units for the iterative algorithm (0 = exact mode; max 16)")
		trace     = flag.Bool("trace", false, "print the per-iteration trace (iterative only)")
		dot       = flag.Bool("dot", false, "also print the graph in DOT")
		timeline  = flag.Bool("timeline", false, "print a text Gantt chart with a current sparkline")
		idle      = flag.Bool("idle", false, "spend leftover slack as recovery rest (iterative only)")
		showStats = flag.Bool("stats", false, "print graph structure analysis")
	)
	flag.Parse()
	if *deadline <= 0 {
		fatal(fmt.Errorf("a positive -deadline is required"))
	}
	g, err := load(*graphPath, *fixture)
	if err != nil {
		fatal(err)
	}
	// One validated construction path for the cost model: the -battery
	// spec if given, else the -beta Rakhmatov shorthand as a spec.
	spec := battery.Spec{Kind: battery.KindRakhmatov, Beta: *beta}
	if *batt != "" {
		betaSet := false
		flag.Visit(func(f *flag.Flag) { betaSet = betaSet || f.Name == "beta" })
		if betaSet {
			fatal(fmt.Errorf("-beta and -battery are mutually exclusive (use -battery rakhmatov,beta=...)"))
		}
		if spec, err = battery.ParseSpec(*batt); err != nil {
			fatal(err)
		}
	}
	opt := core.Options{Battery: &spec, RecordTrace: *trace, Approx: *approx}
	model, err := opt.ResolveModel()
	if err != nil {
		fatal(err)
	}
	if *showStats {
		fmt.Printf("graph:     %s\n", g.Analyze(0))
	}

	var schedule *sched.Schedule
	switch strings.ToLower(*algo) {
	case "iterative":
		s, err := core.New(g, *deadline, opt)
		if err != nil {
			fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			fatal(err)
		}
		schedule = res.Schedule
		if *trace {
			fmt.Print(res.Trace.String())
		}
		fmt.Printf("iterations: %d\n", res.Iterations)
		if *idle {
			plan, err := core.OptimizeIdle(g, schedule, *deadline, model, 0)
			if err != nil {
				fatal(err)
			}
			if plan.TotalIdle() > 0 {
				fmt.Printf("idle:      %.1f min of recovery rest placed, sigma %.0f -> %.0f (%.1f%%)\n",
					plan.TotalIdle(), plan.BaseCost, plan.Cost, core.IdleSavings(plan)*100)
			} else {
				fmt.Println("idle:      no rest placement helps at this deadline")
			}
		}
	case "rv-dp":
		schedule, err = baseline.RakhmatovSchedule(g, *deadline)
	case "chowdhury":
		schedule, err = baseline.ChowdhurySchedule(g, *deadline, nil)
	case "all-fastest":
		schedule, err = baseline.AllFastest(g, *deadline)
	case "lowest-power":
		schedule, err = baseline.LowestPowerFeasible(g, *deadline)
	default:
		err = fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		fatal(err)
	}

	stats := schedule.Summarize(g, model, *deadline)
	fmt.Printf("schedule:  %s\n", schedule)
	fmt.Printf("duration:  %.1f min (deadline %.1f, slack %.1f)\n", stats.Duration, *deadline, stats.Slack)
	fmt.Printf("sigma:     %.0f mA·min (%s)\n", stats.Cost, stats.ModelName)
	fmt.Printf("energy:    %.0f mA·min delivered\n", stats.Energy)
	fmt.Printf("peak/mean: %.0f / %.0f mA, CIF %.2f\n", stats.PeakI, stats.MeanI, stats.CIF)
	if !stats.Feasible {
		fatal(fmt.Errorf("internal error: produced an infeasible schedule"))
	}
	if *timeline {
		if err := schedule.WriteTimeline(os.Stdout, g, 100); err != nil {
			fatal(err)
		}
	}
	if *dot {
		if err := g.WriteDOT(os.Stdout, "app"); err != nil {
			fatal(err)
		}
	}
}

func load(path, fixture string) (*taskgraph.Graph, error) {
	switch {
	case fixture != "":
		switch strings.ToLower(fixture) {
		case "g2":
			return taskgraph.G2(), nil
		case "g3":
			return taskgraph.G3(), nil
		default:
			return nil, fmt.Errorf("unknown fixture %q (g2 or g3)", fixture)
		}
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return taskgraph.ReadJSON(f)
	default:
		return nil, fmt.Errorf("one of -graph or -fixture is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "battsched:", err)
	os.Exit(1)
}
