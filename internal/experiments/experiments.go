// Package experiments regenerates every table and figure of the paper's
// evaluation from the reproduction's own algorithms, embedding the paper's
// reported numbers for side-by-side comparison. The cmd/paperrepro binary
// is a thin front end over this package; ARCHITECTURE.md, "Reading the
// paper", names the readings behind the cells that differ.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// Beta is the battery diffusion parameter every experiment uses (the
// paper sets 0.273 for G3 and leaves G2 unstated; see ARCHITECTURE.md,
// "Reading the paper").
const Beta = battery.DefaultBeta

func model() battery.Model { return battery.NewRakhmatov(Beta) }

// Table1 dumps the G3 task/design-point data (the paper's Table 1) from
// the fixture, so a reader can diff it against the paper directly.
func Table1() *report.Table {
	g := taskgraph.G3()
	t := &report.Table{
		Title:   "Table 1: data for example task graph G3",
		Headers: []string{"Task", "I1", "D1", "I2", "D2", "I3", "D3", "I4", "D4", "I5", "D5", "Parents"},
	}
	for _, id := range g.TaskIDs() {
		task := g.Task(id)
		cells := []interface{}{task.Name}
		for _, p := range task.Points {
			cells = append(cells, report.F0(p.Current), report.F1(p.Time))
		}
		parents := g.Parents(id)
		ps := make([]string, len(parents))
		for k, p := range parents {
			ps[k] = "T" + strconv.Itoa(p)
		}
		if len(ps) == 0 {
			cells = append(cells, "-")
		} else {
			cells = append(cells, strings.Join(ps, ","))
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes, "transcribed from the paper; validated against its generation recipe by internal/dvs tests")
	return t
}

// Table2Result carries the per-iteration sequences behind Table 2.
type Table2Result struct {
	Table *report.Table
	Trace *core.Trace
}

// paperTable2 is the paper's printed Table 2 for annotation.
var paperTable2 = map[string]string{
	"S1":  "T1,T4,T5,T7,T3,T2,T6,T8,T10,T9,T13,T12,T11,T14,T15",
	"S1w": "T1,T3,T2,T4,T5,T6,T7,T8,T10,T9,T13,T12,T11,T14,T15",
	"S2w": "T1,T3,T2,T4,T5,T6,T7,T8,T9,T10,T13,T11,T12,T14,T15",
	"S3w": "T1,T2,T4,T5,T7,T3,T6,T8,T9,T10,T13,T11,T12,T14,T15",
}

// Table2 reruns the iterative algorithm on G3 at the paper's deadline and
// reports each iteration's sequence, chosen design points and weighted
// resequencing — the reproduction of Table 2.
func Table2() (*Table2Result, error) {
	s, err := core.New(taskgraph.G3(), taskgraph.G3Deadline, core.Options{RecordTrace: true})
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 2: task sequences of G3 per iteration (deadline 230, beta 0.273)",
		Headers: []string{"Iter", "Seq", "Tasks / design points", "Paper"},
	}
	for k, it := range res.Trace.Iterations {
		name := fmt.Sprintf("S%d", k+1)
		t.AddRow(k+1, name, report.Seq(it.Sequence), paperTable2[name])
		t.AddRow("", "DP", report.DPs(it.Sequence, it.Assignment), "")
		if it.WeightedSequence != nil {
			t.AddRow("", name+"w", report.Seq(it.WeightedSequence), paperTable2[name+"w"])
		}
	}
	t.Notes = append(t.Notes,
		"S1 matches the paper exactly; later sequences diverge where the ambiguous wide-window DPF details differ (see ARCHITECTURE.md, \"Reading the paper\")",
	)
	return &Table2Result{Table: t, Trace: res.Trace}, nil
}

// paperTable3 holds the paper's printed per-window sigmas for annotation:
// row label -> window start (1-based) -> sigma.
var paperTable3 = map[string]map[int]float64{
	"S1": {1: 17169, 2: 17837, 3: 17038, 4: 16353},
	"S2": {1: 14725, 2: 16126, 3: 15929, 4: 16235},
	"S3": {1: 13737, 2: 16033, 3: 16061, 4: 16677},
	"S4": {1: 13737, 2: 15866, 3: 16240},
}

// Table3 reports the per-window battery cost and duration per iteration —
// the reproduction of Table 3.
func Table3() (*report.Table, error) {
	s, err := core.New(taskgraph.G3(), taskgraph.G3Deadline, core.Options{RecordTrace: true})
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 3: sigma (mA·min) and duration (min) per window per iteration, G3 @ 230",
		Headers: []string{"Seq", "Win 1:5", "Win 2:5", "Win 3:5", "Win 4:5", "Min", "Dur", "Paper Min"},
	}
	for k, it := range res.Trace.Iterations {
		name := fmt.Sprintf("S%d", k+1)
		cells := make([]interface{}, 0, 8)
		cells = append(cells, name)
		byStart := map[int]core.WindowTrace{}
		for _, w := range it.Windows {
			byStart[w.WindowStart] = w
		}
		for ws := 1; ws <= 4; ws++ {
			w, ok := byStart[ws]
			if !ok {
				cells = append(cells, "-")
				continue
			}
			if !w.Feasible {
				cells = append(cells, "inf")
				continue
			}
			annot := ""
			if p, ok := paperTable3[name][ws]; ok {
				annot = fmt.Sprintf(" (%s)", report.F0(p))
			}
			cells = append(cells, report.F0(w.Cost)+annot)
		}
		best := math.Inf(1)
		bestDur := 0.0
		for _, w := range it.Windows {
			if w.Feasible && w.Cost < best {
				best = w.Cost
				bestDur = w.Duration
			}
		}
		if it.WeightedCost > 0 && it.WeightedCost < best {
			best = it.WeightedCost
		}
		paperMin := ""
		if v, ok := paperTable3[name]; ok {
			pm := math.Inf(1)
			for _, x := range v {
				if x < pm {
					pm = x
				}
			}
			paperMin = report.F0(pm)
		}
		cells = append(cells, report.F0(best), report.F1(bestDur), paperMin)
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"parenthesized values are the paper's printed cells",
		"window 4:5 of iteration 1 reproduces the paper exactly (16353 @ 228.3); wider windows differ due to pseudocode ambiguity",
	)
	return t, nil
}

// ComparisonRow is one (graph, deadline) cell group of Table 4.
type ComparisonRow struct {
	Graph      string
	Deadline   float64
	Ours       float64
	Baseline   float64
	PctDiff    float64
	PaperOurs  float64
	PaperBase  float64
	PaperPct   float64
	OursDur    float64
	BaseDur    float64
	OursEnergy float64
	BaseEnergy float64
}

// paperTable4 holds the paper's printed comparison (ours, baseline [1]).
var paperTable4 = map[string]map[float64][2]float64{
	"G2": {55: {30913, 35739}, 75: {13751, 13885}, 95: {7961, 8517}},
	"G3": {100: {57429, 68120}, 150: {41801, 48650}, 230: {13737, 22686}},
}

// Table4 reruns the paper's comparison: the iterative heuristic versus the
// reference-[1] DP + Equation-5 baseline, on G2 and G3 across their
// deadlines.
func Table4() ([]ComparisonRow, *report.Table, error) {
	m := model()
	var rows []ComparisonRow
	for _, tc := range []struct {
		name string
		g    *taskgraph.Graph
		ds   []float64
	}{
		{"G2", taskgraph.G2(), taskgraph.G2Deadlines},
		{"G3", taskgraph.G3(), taskgraph.G3Deadlines},
	} {
		for _, d := range tc.ds {
			s, err := core.New(tc.g, d, core.Options{})
			if err != nil {
				return nil, nil, err
			}
			res, err := s.Run()
			if err != nil {
				return nil, nil, fmt.Errorf("%s@%g ours: %w", tc.name, d, err)
			}
			bs, err := baseline.RakhmatovSchedule(tc.g, d)
			if err != nil {
				return nil, nil, fmt.Errorf("%s@%g baseline: %w", tc.name, d, err)
			}
			bc := bs.Cost(tc.g, m)
			paper := paperTable4[tc.name][d]
			rows = append(rows, ComparisonRow{
				Graph:      tc.name,
				Deadline:   d,
				Ours:       res.Cost,
				Baseline:   bc,
				PctDiff:    (bc - res.Cost) / res.Cost * 100,
				PaperOurs:  paper[0],
				PaperBase:  paper[1],
				PaperPct:   (paper[1] - paper[0]) / paper[0] * 100,
				OursDur:    res.Duration,
				BaseDur:    bs.Duration(tc.g),
				OursEnergy: res.Energy,
				BaseEnergy: bs.Energy(tc.g),
			})
		}
	}
	t := &report.Table{
		Title:   "Table 4: battery capacity used, ours vs. algorithm [1] (mA·min)",
		Headers: []string{"Graph", "Deadline", "Ours", "Algo [1]", "% diff", "Paper ours", "Paper [1]", "Paper %"},
	}
	for _, r := range rows {
		t.AddRow(r.Graph, report.F0(r.Deadline), report.F0(r.Ours), report.F0(r.Baseline),
			report.Pct(r.PctDiff), report.F0(r.PaperOurs), report.F0(r.PaperBase), report.Pct(r.PaperPct))
	}
	t.Notes = append(t.Notes,
		"G3 baseline cells reproduce the paper exactly (68120 / 48650 / 22686); G2 uses the reconstructed edge set (ARCHITECTURE.md, \"Reading the paper\")",
	)
	return rows, t, nil
}

// ExtendedComparison runs every implemented scheduler on a graph/deadline
// and tabulates sigma, energy and duration — the repo's own extension of
// Table 4 to more baselines.
func ExtendedComparison(name string, g *taskgraph.Graph, deadline float64) (*report.Table, error) {
	m := model()
	t := &report.Table{
		Title:   fmt.Sprintf("Extended comparison on %s @ %g min", name, deadline),
		Headers: []string{"Algorithm", "sigma", "energy", "duration", "CIF"},
	}
	add := func(algo string, s *sched.Schedule, err error) error {
		if err != nil {
			t.AddRow(algo, "error: "+err.Error(), "", "", "")
			return nil
		}
		if verr := s.ValidateDeadline(g, deadline); verr != nil {
			return fmt.Errorf("%s produced an invalid schedule: %w", algo, verr)
		}
		t.AddRow(algo, report.F0(s.Cost(g, m)), report.F0(s.Energy(g)), report.F1(s.Duration(g)), report.Pct(s.CIF(g)))
		return nil
	}
	cs, err := core.New(g, deadline, core.Options{})
	if err != nil {
		return nil, err
	}
	res, err := cs.Run()
	if err != nil {
		return nil, err
	}
	if err := add("iterative (this paper)", res.Schedule, nil); err != nil {
		return nil, err
	}
	bs, err := baseline.RakhmatovSchedule(g, deadline)
	if err2 := add("DP+Eq5 [1]", bs, err); err2 != nil {
		return nil, err2
	}
	ch, err := baseline.ChowdhurySchedule(g, deadline, nil)
	if err2 := add("scale-down-from-last [7]", ch, err); err2 != nil {
		return nil, err2
	}
	af, err := baseline.AllFastest(g, deadline)
	if err2 := add("all-fastest", af, err); err2 != nil {
		return nil, err2
	}
	lp, err := baseline.LowestPowerFeasible(g, deadline)
	if err2 := add("lowest-power-feasible", lp, err); err2 != nil {
		return nil, err2
	}
	sa, _, err := baseline.Anneal(g, deadline, m, baseline.AnnealOptions{Seed: 1})
	if err2 := add("simulated annealing", sa, err); err2 != nil {
		return nil, err2
	}
	if searchable(g) {
		if opt, _, err := baseline.Optimal(g, deadline, m, baseline.OptimalOptions{MaxTasks: 9}); err == nil {
			if err2 := add("exhaustive optimum", opt, nil); err2 != nil {
				return nil, err2
			}
		}
	}
	return t, nil
}

// searchable estimates whether the exhaustive oracle can enumerate the
// instance quickly: few topological orders and a small assignment space.
func searchable(g *taskgraph.Graph) bool {
	if g.N() > 9 {
		return false
	}
	const orderCap = 64
	orders := baseline.CountTopoOrders(g, orderCap)
	if orders >= orderCap {
		return false
	}
	mPts, _ := g.UniformPointCount()
	space := float64(orders) * math.Pow(float64(mPts), float64(g.N()))
	return space <= 5e6
}

// Figure3 renders the window-masking illustration for n tasks and m design
// points (the paper draws n=5, m=4).
func Figure3(n, m int) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 3: windows over %d tasks x %d design points (x = masked out)", n, m),
		Headers: []string{"Window", "Columns considered"},
	}
	for ws := 1; ws < m; ws++ {
		var cols []string
		for j := 1; j <= m; j++ {
			if j >= ws {
				cols = append(cols, fmt.Sprintf("DP%d", j))
			} else {
				cols = append(cols, "x")
			}
		}
		t.AddRow(fmt.Sprintf("%d:%d", ws, m), strings.Join(cols, " "))
	}
	return t
}

// Figure4 narrates the DPF escalation worked example (the paper's Fig. 4)
// using the same synthetic instance the unit test pins: it reports the
// escalation steps and the resulting DPF = 1/3.
func Figure4() *report.Table {
	t := &report.Table{
		Title:   "Figure 4: DPF escalation worked example (5 tasks x 4 DPs, E = [3,4,5,1,2])",
		Headers: []string{"Step", "State"},
	}
	t.AddRow("(a)", "T5@DP4, T4@DP1 fixed; T3 tagged@DP2; free T1@DP4, T2@DP4 — deadline missed")
	t.AddRow("(b)", "first free task in E is T1 -> escalate to DP3 — deadline still missed")
	t.AddRow("(c)", "T1 -> DP2 — deadline met; free occupancy: DP2:{T1}, DP4:{T2}")
	t.AddRow("DPF", "f=1/3, x=2: (4-2)*f*1/2 = 1/3 (weights: DP1=1, DP2=2/3, DP3=1/3, DP4=0)")
	t.Notes = append(t.Notes, "reproduced programmatically by core.TestDPFWorkedExampleFig4")
	return t
}

// Figure5 dumps the G2 node data and the reconstructed edges, plus the
// graph in DOT for visual inspection.
func Figure5() (*report.Table, string) {
	g := taskgraph.G2()
	t := &report.Table{
		Title:   "Figure 5: task graph G2 (robotic arm controller) and design-point data",
		Headers: []string{"Node", "I1", "D1", "I2", "D2", "I3", "D3", "I4", "D4", "Parents"},
	}
	for _, id := range g.TaskIDs() {
		task := g.Task(id)
		cells := []interface{}{strconv.Itoa(id)}
		for _, p := range task.Points {
			cells = append(cells, report.F0(p.Current), report.F1(p.Time))
		}
		parents := g.Parents(id)
		if len(parents) == 0 {
			cells = append(cells, "ENTER")
		} else {
			ps := make([]string, len(parents))
			for k, p := range parents {
				ps[k] = strconv.Itoa(p)
			}
			cells = append(cells, strings.Join(ps, ","))
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes, "edge set reconstructed (ARCHITECTURE.md, \"Reading the paper\"): 1→{2,3,4,5}, 2→6, 3→7, 4→8, 5→9")
	var dot strings.Builder
	_ = g.WriteDOT(&dot, "G2")
	return t, dot.String()
}

// AblationRow is one configuration of the ablation study.
type AblationRow struct {
	Name string
	Cost float64
	Dur  float64
	Iter int
}

// Ablation measures what each design choice of the algorithm buys on a
// graph/deadline: initial-order weight, each suitability term, the window
// sweep, and the Equation-4 resequencing.
func Ablation(g *taskgraph.Graph, deadline float64) ([]AblationRow, *report.Table, error) {
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"full algorithm (paper)", core.Options{}},
		{"initial order: avg energy", core.Options{InitialOrder: core.WeightAvgEnergy}},
		{"no SR term", core.Options{Factors: core.AllFactors &^ core.FactorSR}},
		{"no CR term", core.Options{Factors: core.AllFactors &^ core.FactorCR}},
		{"no ENR term", core.Options{Factors: core.AllFactors &^ core.FactorENR}},
		{"no CIF term", core.Options{Factors: core.AllFactors &^ core.FactorCIF}},
		{"no DPF term", core.Options{Factors: core.AllFactors &^ core.FactorDPF}},
		{"single window (first feasible)", core.Options{Windows: core.WindowFirstFeasible}},
		{"single window (full only)", core.Options{Windows: core.WindowFullOnly}},
		{"no resequencing", core.Options{DisableResequencing: true}},
		{"DPF absolute columns", core.Options{DPFColumns: core.DPFAbsolute}},
	}
	var rows []AblationRow
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation on %d tasks @ %g min", g.N(), deadline),
		Headers: []string{"Configuration", "sigma", "duration", "iterations", "vs full"},
	}
	var full float64
	for k, c := range configs {
		s, err := core.New(g, deadline, c.opt)
		if err != nil {
			return nil, nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, AblationRow{Name: c.name, Cost: res.Cost, Dur: res.Duration, Iter: res.Iterations})
		if k == 0 {
			full = res.Cost
		}
		delta := (res.Cost - full) / full * 100
		t.AddRow(c.name, report.F0(res.Cost), report.F1(res.Duration), res.Iterations,
			fmt.Sprintf("%+.1f%%", delta))
	}
	return rows, t, nil
}

// BatteryProperties demonstrates the Section 3 claims: rate-capacity
// effect, recovery effect, and the ordering property.
func BatteryProperties() *report.Table {
	m := battery.NewRakhmatov(Beta)
	t := &report.Table{
		Title:   "Section 3: battery model properties (beta 0.273)",
		Headers: []string{"Experiment", "Result"},
	}
	// Rate-capacity: lifetime at 100 vs 400 mA for alpha = 40000.
	alpha := 40000.0
	l1, _ := battery.ConstantLoadLifetime(m, 100, alpha)
	l4, _ := battery.ConstantLoadLifetime(m, 400, alpha)
	t.AddRow("lifetime @100 mA (ideal 400.0 min)", report.F1(l1)+" min")
	t.AddRow("lifetime @400 mA (ideal 100.0 min)", report.F1(l4)+" min")
	t.AddRow("rate-capacity penalty @400 vs @100", report.Pct((1-4*l4/l1)*100)+"%")
	// Recovery: pulsed vs continuous discharge of the same charge.
	cont := battery.Profile{{Current: 400, Duration: 40}}
	pulsed := battery.Profile{}
	for k := 0; k < 4; k++ {
		pulsed = append(pulsed, battery.Interval{Current: 400, Duration: 10}, battery.Interval{Current: 0, Duration: 10})
	}
	sc := m.ChargeLost(cont, cont.TotalTime())
	sp := m.ChargeLost(pulsed, pulsed.TotalTime())
	t.AddRow("sigma continuous 400mA x 40min", report.F0(sc)+" mA·min")
	t.AddRow("sigma pulsed (10 on / 10 off) x 4", report.F0(sp)+" mA·min")
	t.AddRow("recovery-effect saving", report.Pct((sc-sp)/sc*100)+"%")
	// Ordering property on a spread of currents.
	p := battery.Profile{
		{Current: 600, Duration: 10}, {Current: 100, Duration: 10},
		{Current: 400, Duration: 10}, {Current: 250, Duration: 10},
	}
	dec := p.SortedDescending()
	inc := dec.Reversed()
	T := p.TotalTime()
	t.AddRow("sigma decreasing-current order", report.F0(m.ChargeLost(dec, T))+" mA·min")
	t.AddRow("sigma increasing-current order", report.F0(m.ChargeLost(inc, T))+" mA·min")
	return t
}

// DeadlineSweep traces sigma versus deadline for ours and the [1]
// baseline over a dense grid — the data behind the repo's sensitivity
// example (and the crossover analysis Table 4 samples at three points).
func DeadlineSweep(g *taskgraph.Graph, from, to float64, steps int) (*report.Table, error) {
	if steps < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 steps")
	}
	m := model()
	t := &report.Table{
		Title:   "Deadline sweep: sigma vs deadline",
		Headers: []string{"Deadline", "Ours", "Algo [1]", "Chowdhury [7]", "% ours vs [1]"},
	}
	for k := 0; k < steps; k++ {
		d := from + (to-from)*float64(k)/float64(steps-1)
		d = math.Round(d*10) / 10
		s, err := core.New(g, d, core.Options{})
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			t.AddRow(report.F1(d), "infeasible", "", "", "")
			continue
		}
		bs, err := baseline.RakhmatovSchedule(g, d)
		if err != nil {
			return nil, err
		}
		ch, err := baseline.ChowdhurySchedule(g, d, nil)
		if err != nil {
			return nil, err
		}
		bc := bs.Cost(g, m)
		t.AddRow(report.F1(d), report.F0(res.Cost), report.F0(bc), report.F0(ch.Cost(g, m)),
			report.Pct((bc-res.Cost)/res.Cost*100))
	}
	return t, nil
}

// IdleExtension runs the recovery-rest extension (core.RunWithIdle) over
// a deadline range: how much extra sigma the leftover slack buys when
// spent as interior rest. This goes beyond the paper (its Section 3
// motivates the recovery effect; its algorithm never inserts rest).
func IdleExtension(g *taskgraph.Graph, deadlines []float64) (*report.Table, error) {
	t := &report.Table{
		Title:   "Extension: spending deadline slack as recovery rest",
		Headers: []string{"Deadline", "sigma (no rest)", "sigma (with rest)", "rest placed", "saving"},
	}
	for _, d := range deadlines {
		res, plan, err := core.RunWithIdle(g, d, core.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(report.F0(d), report.F0(plan.BaseCost), report.F0(plan.Cost),
			report.F1(plan.TotalIdle())+" min", report.Pct(core.IdleSavings(plan)*100)+"%")
		_ = res
	}
	t.Notes = append(t.Notes,
		"rest only between tasks (trailing rest would trivially help); padded completion always meets the deadline",
	)
	return t, nil
}

// ModelComparison schedules the same graph under each battery model and
// cross-evaluates every schedule under every model — showing how model
// choice changes both the chosen schedule and the predicted cost.
func ModelComparison(g *taskgraph.Graph, deadline float64) (*report.Table, error) {
	_, iMax := g.CurrentRange()
	specs := []battery.Spec{
		{Kind: battery.KindRakhmatov, Beta: Beta},
		{Kind: battery.KindIdeal},
		{Kind: battery.KindPeukert, Exponent: 1.2, RefCurrent: iMax / 4},
		{Kind: battery.KindKiBaM, Capacity: 1e6, WellFraction: 0.6, RateConstant: 0.05},
	}
	models := make([]battery.Model, len(specs))
	t := &report.Table{
		Title:   fmt.Sprintf("Cross-model comparison @ %g min (rows: model optimized for; columns: model evaluated under)", deadline),
		Headers: []string{"Optimized under"},
	}
	for i, spec := range specs {
		models[i] = spec.MustResolve()
		t.Headers = append(t.Headers, models[i].Name())
	}
	for i := range specs {
		s, err := core.New(g, deadline, core.Options{Battery: &specs[i]})
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		cells := []interface{}{models[i].Name()}
		p := res.Schedule.Profile(g)
		for _, eval := range models {
			cells = append(cells, report.F0(eval.ChargeLost(p, p.TotalTime())))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Names lists the experiment identifiers cmd/paperrepro accepts, sorted.
func Names() []string {
	names := []string{"table1", "table2", "table3", "table4", "figure3", "figure4", "figure5", "ablation", "battery", "sweep", "extended", "idle", "models", "synthetic"}
	sort.Strings(names)
	return names
}
