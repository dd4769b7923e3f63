package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/taskgraph"
)

// TestBatterySpecOptionsBitIdentical proves the default spec is
// bit-identical (float bits, exact order/assignment/iterations) to zero
// options. That every other spec resolves to exactly its constructor's
// model is internal/battery's TestSpecResolveMatchesConstructors.
func TestBatterySpecOptionsBitIdentical(t *testing.T) {
	g := taskgraph.G3()
	t.Run("default-vs-zero-options", func(t *testing.T) {
		spec := battery.DefaultSpec()
		got, err := mustScheduler(t, g, taskgraph.G3Deadline, Options{Battery: &spec}).Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustScheduler(t, g, taskgraph.G3Deadline, Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
	})
}

// requireBitIdentical compares two results the equivalence suite's way:
// float fields as raw bits, structures exactly.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(got.Duration) != math.Float64bits(want.Duration) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.Iterations != want.Iterations {
		t.Fatalf("scalar mismatch: got (%x, %x, %x, %d), want (%x, %x, %x, %d)",
			math.Float64bits(got.Cost), math.Float64bits(got.Duration), math.Float64bits(got.Energy), got.Iterations,
			math.Float64bits(want.Cost), math.Float64bits(want.Duration), math.Float64bits(want.Energy), want.Iterations)
	}
	if len(got.Schedule.Order) != len(want.Schedule.Order) {
		t.Fatalf("order length mismatch")
	}
	for k := range got.Schedule.Order {
		if got.Schedule.Order[k] != want.Schedule.Order[k] {
			t.Fatalf("order mismatch at %d: %v vs %v", k, got.Schedule.Order, want.Schedule.Order)
		}
	}
	for id, j := range want.Schedule.Assignment {
		if got.Schedule.Assignment[id] != j {
			t.Fatalf("assignment mismatch for task %d: %d vs %d", id, got.Schedule.Assignment[id], j)
		}
	}
}

func TestBatterySpecOptionErrors(t *testing.T) {
	g := taskgraph.G3()

	// Invalid spec: New fails with the battery package's field-naming
	// error instead of panicking deep in a window sweep.
	bad := battery.Spec{Kind: battery.KindKiBaM, Capacity: 100, WellFraction: 0.5, RateConstant: -1}
	if _, err := New(g, taskgraph.G3Deadline, Options{Battery: &bad}); err == nil || !strings.Contains(err.Error(), "rate_constant") {
		t.Fatalf("New with invalid spec: %v", err)
	}

	// A rakhmatov spec is validated too, so a non-physical beta is an
	// error, not a silently-squared sign.
	negative := battery.Spec{Kind: battery.KindRakhmatov, Beta: -0.273}
	if _, err := New(g, taskgraph.G3Deadline, Options{Battery: &negative}); err == nil || !strings.Contains(err.Error(), "\"beta\"") {
		t.Fatalf("New with negative beta: %v", err)
	}
	nan := battery.Spec{Kind: battery.KindRakhmatov, Beta: math.NaN()}
	if _, err := (Options{Battery: &nan}).ResolveModel(); err == nil {
		t.Fatal("ResolveModel with NaN beta should error")
	}
}

func TestOptionsBatterySpec(t *testing.T) {
	// The zero options' spec is the default battery.
	spec := Options{}.BatterySpec()
	if string(spec.AppendCanonical(nil)) != string(battery.DefaultSpec().AppendCanonical(nil)) {
		t.Fatalf("zero options spec = %+v", spec)
	}
	// A set spec is reported canonicalized — the form caches hash.
	got := Options{Battery: &battery.Spec{Kind: " Rakhmatov ", Beta: 0.35}}.BatterySpec()
	if want := (battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.35, Terms: battery.DefaultTerms}); !reflect.DeepEqual(got, want) {
		t.Fatalf("spec = %+v, want %+v", got, want)
	}
}

// TestRunnerSteadyStateZeroAllocWithSpec extends the zero-alloc
// guarantee to spec-based options: resolution happens once in New, so
// the steady state stays allocation-free exactly as for the default
// configuration.
func TestRunnerSteadyStateZeroAllocWithSpec(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	spec := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	s := mustScheduler(t, taskgraph.G3(), taskgraph.G3Deadline, Options{Battery: &spec})
	r := s.NewRunner()
	if _, err := r.Run(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Runner.Run with a battery spec allocates %v per run, want 0", allocs)
	}
}
