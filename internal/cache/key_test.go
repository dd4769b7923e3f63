package cache

import (
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// TestKeyGolden pins the exact key bytes: a disk store addresses its
// entries by these keys, so any change to them — however the hashing
// is implemented — orphans every stored result and must come with a
// keyVersion bump instead.
func TestKeyGolden(t *testing.T) {
	// Tasks listed out of ID order with edges added out of parent
	// order, plus names, voltages and an empty parent list: every part
	// of the canonical graph encoding is exercised.
	inline, err := taskgraph.FromSpec(taskgraph.Spec{Tasks: []taskgraph.TaskSpec{
		{ID: 9, Name: "sink", Points: []taskgraph.PointSpec{{Current: 50, Time: 2}, {Current: 80, Time: 1.5, Voltage: 1.1, Name: "fast"}}, Parents: []int{7, 2}},
		{ID: 2, Points: []taskgraph.PointSpec{{Current: 120, Time: 3}}},
		{ID: 7, Name: "mid", Points: []taskgraph.PointSpec{{Current: 90, Time: 4}, {Current: 30, Time: 8}}, Parents: []int{2}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	kibam := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	for _, tc := range []struct {
		name string
		job  engine.Job
		want string
	}{
		{"g2", engine.Job{Graph: taskgraph.G2(), Deadline: 75}, "b93b044f8094497612a8e76558daee14848fdf4e9e35ab1df477d9a809ef5a0e"},
		{"g3", engine.Job{Graph: taskgraph.G3(), Deadline: 230}, "0edd47e9952ba48f1f23d97fdf7b775ffc6a396bdafd94d167d5d3d71add1957"},
		{"inline", engine.Job{Graph: inline, Deadline: 12.5, Strategy: engine.StrategyIterative}, "3406281755731fe5ec4dbf02bdc20433a2de94a25fe74c39c95633d3aaed7a1a"},
		{"multistart", engine.Job{Graph: taskgraph.G3(), Deadline: 230, Strategy: engine.StrategyMultiStart,
			MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 7}}, "ca59aaffe4b1193e6036e3241b927957c4c8859e69db3c9d7fa13d60f8392fca"},
		{"kibam", engine.Job{Graph: taskgraph.G3(), Deadline: 230, Options: core.Options{Battery: &kibam}}, "c24254292cc4f361b530200e7d986cdf4990392fdad30793eb306bdfc09f09b0"},
	} {
		got, ok := Key(tc.job)
		if !ok {
			t.Fatalf("%s: not cacheable", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkKey prices the key of a 20-task, five-point inline graph —
// the whole cost of a cache hit beyond the lookup itself.
func BenchmarkKey(b *testing.B) {
	g, err := taskgraph.ForkJoin(4, 2, 11, func(i int) []taskgraph.DesignPoint {
		pts := make([]taskgraph.DesignPoint, 5)
		for j := range pts {
			pts[j] = taskgraph.DesignPoint{Current: float64(900 - 150*j + i), Time: float64(3 + 2*j), Name: "DP" + string(rune('1'+j))}
		}
		return pts
	})
	if err != nil {
		b.Fatal(err)
	}
	job := engine.Job{Graph: g, Deadline: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := Key(job); !ok {
			b.Fatal("not cacheable")
		}
	}
}
