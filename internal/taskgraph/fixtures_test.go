package taskgraph

import (
	"math"
	"sync"
	"testing"
)

func TestG3Shape(t *testing.T) {
	g := G3()
	if g.N() != 15 {
		t.Fatalf("G3 has %d tasks, want 15", g.N())
	}
	if m, ok := g.UniformPointCount(); !ok || m != 5 {
		t.Fatalf("G3 point count = %d,%v want 5,true", m, ok)
	}
	// Spot-check the parent lists against Table 1.
	wantParents := map[int][]int{
		1: {}, 2: {1}, 6: {2, 3}, 7: {4, 5}, 8: {6, 7},
		14: {11, 12, 13}, 15: {14},
	}
	for id, want := range wantParents {
		got := g.Parents(id)
		if len(got) != len(want) {
			t.Fatalf("Parents(%d) = %v, want %v", id, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("Parents(%d) = %v, want %v", id, got, want)
			}
		}
	}
	if got := g.Roots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("G3 roots = %v", got)
	}
	if got := g.Leaves(); len(got) != 1 || got[0] != 15 {
		t.Fatalf("G3 leaves = %v", got)
	}
}

// TestG3ColumnTimes pins the column completion times the window search
// depends on: CT(5) = 258 > 230 >= CT(4) = 219.3, which is why the paper's
// run evaluates exactly windows 4:5 through 1:5.
func TestG3ColumnTimes(t *testing.T) {
	g := G3()
	want := []float64{85.2, 131.5, 175.5, 219.3, 258.0}
	for j, w := range want {
		ct, err := g.ColumnTime(j)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ct-w) > 1e-9 {
			t.Errorf("CT(%d) = %.4f, want %.1f", j+1, ct, w)
		}
	}
	if g.MinTotalTime() > G3Deadline {
		t.Fatal("G3 must be feasible at deadline 230")
	}
}

// TestG3DerivationRule verifies the fixture against the paper's stated
// generation recipe: currents scale with the cube of the DP1-relative
// voltage factors and durations stretch along the reversed factor list
// (Table 1 carries integer currents and 0.1-minute times, so we check to
// that rounding).
func TestG3DerivationRule(t *testing.T) {
	g := G3()
	factors := []float64{1, 0.85, 0.68, 0.51, 0.33}
	for _, id := range g.TaskIDs() {
		pts := g.Task(id).Points
		i1 := pts[0].Current
		d5 := pts[4].Time
		for j := 0; j < 5; j++ {
			wantI := math.Round(i1 * math.Pow(factors[j], 3))
			if math.Abs(pts[j].Current-wantI) > 1 {
				t.Errorf("T%d DP%d current %g, recipe %g", id, j+1, pts[j].Current, wantI)
			}
			wantD := math.Round(d5*factors[4-j]*10) / 10
			if math.Abs(pts[j].Time-wantD) > 0.11 {
				t.Errorf("T%d DP%d time %g, recipe %g", id, j+1, pts[j].Time, wantD)
			}
		}
	}
}

func TestG2Shape(t *testing.T) {
	g := G2()
	if g.N() != 9 {
		t.Fatalf("G2 has %d tasks, want 9", g.N())
	}
	if m, ok := g.UniformPointCount(); !ok || m != 4 {
		t.Fatalf("G2 point count = %d,%v want 4,true", m, ok)
	}
	if got := g.Roots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("G2 roots = %v", got)
	}
	if got := g.Leaves(); len(got) != 4 {
		t.Fatalf("G2 leaves = %v, want the four second-level tasks", got)
	}
	// All three Table 4 deadlines must be feasible, and the loosest must
	// not be trivially satisfiable by the all-slowest assignment for the
	// problem to be interesting at 55.
	if g.MinTotalTime() > G2Deadlines[0] {
		t.Fatalf("G2 min time %.1f exceeds tightest deadline %g", g.MinTotalTime(), G2Deadlines[0])
	}
	if g.MaxTotalTime() <= G2Deadlines[0] {
		t.Fatalf("G2 max time %.1f should exceed the tightest deadline", g.MaxTotalTime())
	}
}

// TestG2DerivationRule verifies the fixture against the paper's recipe for
// G2: factors relative to the slowest point DP4 (the printed "1.66" is
// actually 5/3 — 60·1.66³ rounds to 274, but the table says 278 = 60·(5/3)³),
// currents cubed, durations inverse.
func TestG2DerivationRule(t *testing.T) {
	g := G2()
	factors := []float64{2.5, 5.0 / 3.0, 1.25, 1}
	for _, id := range g.TaskIDs() {
		pts := g.Task(id).Points
		i4 := pts[3].Current
		d4 := pts[3].Time
		for j := 0; j < 4; j++ {
			wantI := math.Round(i4 * math.Pow(factors[j], 3))
			if math.Abs(pts[j].Current-wantI) > 1 {
				t.Errorf("N%d DP%d current %g, recipe %g", id, j+1, pts[j].Current, wantI)
			}
			wantD := math.Round(d4/factors[j]*10) / 10
			if math.Abs(pts[j].Time-wantD) > 0.11 {
				t.Errorf("N%d DP%d time %g, recipe %g", id, j+1, pts[j].Time, wantD)
			}
		}
	}
}

// TestG3EnergyRange pins the ENR normalization constants (hand-computed
// from Table 1): Emin = 6044, Emax = 55321.6 mA·min.
func TestG3EnergyRange(t *testing.T) {
	g := G3()
	eMin, eMax := g.EnergyRange()
	if math.Abs(eMin-6044) > 1 {
		t.Errorf("Emin = %.1f, want 6044", eMin)
	}
	if math.Abs(eMax-55321.6) > 1 {
		t.Errorf("Emax = %.1f, want 55321.6", eMax)
	}
	lo, hi := g.CurrentRange()
	if lo != 14 || hi != 938 {
		t.Errorf("CurrentRange = %g..%g, want 14..938", lo, hi)
	}
}

func TestFixtureRegistry(t *testing.T) {
	for name, wantN := range map[string]int{"g2": 9, "G2": 9, "g3": 15, "G3": 15} {
		g, canonical, err := Fixture(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() != wantN {
			t.Fatalf("%s: %d tasks, want %d", name, g.N(), wantN)
		}
		if canonical != "g2" && canonical != "g3" {
			t.Fatalf("%s: canonical name %q", name, canonical)
		}
	}
	if _, _, err := Fixture("g9"); err == nil {
		t.Fatal("unknown fixture should error")
	}
}

// TestFixtureShared: Fixture builds each graph once per process, so
// every spelling of a name returns the same *Graph, while G2 and G3
// still build private copies.
func TestFixtureShared(t *testing.T) {
	for _, names := range [][2]string{{"g2", "G2"}, {"g3", "G3"}} {
		a, _, err := Fixture(names[0])
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Fixture(names[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Fixture(%q) and Fixture(%q) returned different graphs", names[0], names[1])
		}
	}
	shared, _, _ := Fixture("g3")
	if G3() == shared {
		t.Error("G3 returned the shared fixture, want a private copy")
	}
}

// TestFixtureConcurrentReaders reads one shared fixture from many
// goroutines at once, including the lazily built reachability lists,
// and checks every reader sees what a private copy holds. Run it with
// -race.
func TestFixtureConcurrentReaders(t *testing.T) {
	ref := G3()
	var wantReach []int
	for i := 0; i < ref.N(); i++ {
		wantReach = append(wantReach, len(ref.ReachableIndices(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, _, err := Fixture("g3")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < g.N(); i++ {
				if got := len(g.ReachableIndices(i)); got != wantReach[i] {
					t.Errorf("task %d reaches %d tasks, want %d", i, got, wantReach[i])
				}
				if got, want := g.TaskAt(i).Points, ref.TaskAt(i).Points; len(got) != len(want) || got[0] != want[0] {
					t.Errorf("task %d points differ from a private copy", i)
				}
			}
			if g.MinTotalTime() != ref.MinTotalTime() {
				t.Error("MinTotalTime differs from a private copy")
			}
		}()
	}
	wg.Wait()
}
