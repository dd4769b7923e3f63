package cache

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/store"
)

// fakeClock is a manually-advanced clock for deterministic breaker
// timing — no sleeps in these tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(cfg BreakerConfig) (*breaker, *fakeClock) {
	b := newBreaker(cfg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerStateMachine(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 3, Window: 30 * time.Second, Probe: 10 * time.Second})
	boom := errors.New("boom")

	// Closed: errors below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied op %d", i)
		}
		b.record(boom)
	}
	if got := b.stateName(); got != breakerClosed {
		t.Fatalf("state after 2 errors = %s, want closed", got)
	}

	// The third error inside the window trips it.
	b.allow()
	b.record(boom)
	if got := b.stateName(); got != breakerOpen {
		t.Fatalf("state after 3 errors = %s, want open", got)
	}
	if got := b.tripCount(); got != 1 {
		t.Fatalf("tripCount = %d, want 1", got)
	}

	// Open: everything is denied until the probe interval elapses.
	for i := 0; i < 3; i++ {
		if b.allow() {
			t.Fatalf("open breaker allowed op %d", i)
		}
	}
	if got := b.skipCount(); got != 3 {
		t.Fatalf("skipCount = %d, want 3", got)
	}

	// After the probe interval: exactly one probe is admitted.
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	if got := b.stateName(); got != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second op while the probe is in flight")
	}

	// Probe fails → back to open for another interval.
	b.record(boom)
	if got := b.stateName(); got != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", got)
	}
	if got := b.tripCount(); got != 2 {
		t.Fatalf("tripCount after failed probe = %d, want 2", got)
	}
	if b.allow() {
		t.Fatal("reopened breaker allowed an op immediately")
	}

	// Second probe succeeds → closed, error history cleared.
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("second probe denied")
	}
	b.record(nil)
	if got := b.stateName(); got != breakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", got)
	}
	// One fresh error must not re-trip (history was cleared).
	b.allow()
	b.record(boom)
	if got := b.stateName(); got != breakerClosed {
		t.Fatalf("state after 1 post-recovery error = %s, want closed", got)
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 3, Window: 10 * time.Second, Probe: time.Second})
	boom := errors.New("boom")

	// Three errors, but spread wider than the window: never trips.
	for i := 0; i < 3; i++ {
		b.allow()
		b.record(boom)
		clk.advance(6 * time.Second)
	}
	if got := b.stateName(); got != breakerClosed {
		t.Fatalf("state with sparse errors = %s, want closed", got)
	}

	// Three errors inside one window: trips.
	for i := 0; i < 3; i++ {
		b.allow()
		b.record(boom)
	}
	if got := b.stateName(); got != breakerOpen {
		t.Fatalf("state with burst errors = %s, want open", got)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: -1})
	if b != nil {
		t.Fatal("Threshold<0 should return a nil (disabled) breaker")
	}
	// Nil breakers are always closed and always allow.
	if !b.allow() || b.stateName() != breakerClosed || b.tripCount() != 0 || b.skipCount() != 0 {
		t.Fatal("nil breaker is not a transparent pass-through")
	}
	b.record(errors.New("boom")) // must not panic
}

// TestCacheDegradesToMemoryOnly is the integration test: a cache over a
// store whose disk fails every write trips the breaker, after which the
// cache keeps serving — computes land in memory, disk is bypassed, and
// the counters show it.
func TestCacheDegradesToMemoryOnly(t *testing.T) {
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpSync, Every: 1, Err: syscall.EIO})
	st, _, err := store.OpenFS(t.TempDir(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	c := newTier(t, 8, st, BreakerConfig{Threshold: 3, Window: time.Minute, Probe: time.Hour})

	res := func(i int) engine.Result { return engine.Result{Strategy: "iterative", Cost: float64(i)} }
	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }

	// Each unique key: clean disk miss, compute, queued write-behind.
	for i := 0; i < 3; i++ {
		got, cached := c.Do(key(i), func() engine.Result { return res(i) })
		if cached || got.Cost != float64(i) {
			t.Fatalf("Do(%d): cached=%v cost=%v", i, cached, got.Cost)
		}
	}
	// Close drains the writer, whose three failed puts trip the
	// breaker; every later write runs synchronously.
	c.Close()
	if got := c.Stats().DiskBreakerState; got != breakerOpen {
		t.Fatalf("breaker state after 3 write failures = %s, want open", got)
	}

	// Degraded: serving continues, disk untouched.
	writesBefore := in.Count(fault.OpSync)
	for i := 3; i < 6; i++ {
		if got, _ := c.Do(key(i), func() engine.Result { return res(i) }); got.Cost != float64(i) {
			t.Fatalf("degraded Do(%d): cost=%v", i, got.Cost)
		}
	}
	// Memory hits still work.
	if got, cached := c.Do(key(3), func() engine.Result {
		t.Fatal("memory hit recomputed")
		return engine.Result{}
	}); !cached || got.Cost != 3 {
		t.Fatalf("memory hit while degraded: cached=%v cost=%v", cached, got.Cost)
	}
	if after := in.Count(fault.OpSync); after != writesBefore {
		t.Fatalf("disk writes while open: %d -> %d, want unchanged", writesBefore, after)
	}

	s := c.Stats()
	if s.DiskBreakerOpen != 1 {
		t.Errorf("disk_breaker_open = %d, want 1", s.DiskBreakerOpen)
	}
	// 3 degraded keys × (1 skipped read + 1 skipped write) = 6.
	if s.DiskSkipped != 6 {
		t.Errorf("disk_skipped = %d, want 6", s.DiskSkipped)
	}
	if s.DiskErrors != 3 {
		t.Errorf("disk_errors = %d, want 3", s.DiskErrors)
	}
}

// TestCacheBreakerRecovery: after the probe interval, one disk op is
// let through; when the disk has healed, the breaker closes and
// write-through resumes.
func TestCacheBreakerRecovery(t *testing.T) {
	// Exactly 3 one-shot sync faults: the disk "heals" afterwards.
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpSync, Nth: 1, Err: syscall.EIO},
		fault.Rule{Op: fault.OpSync, Nth: 2, Err: syscall.EIO},
		fault.Rule{Op: fault.OpSync, Nth: 3, Err: syscall.EIO})
	st, _, err := store.OpenFS(t.TempDir(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	c := newTier(t, 8, st, BreakerConfig{Threshold: 3, Window: time.Minute, Probe: 10 * time.Second})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.brk.now = clk.now

	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	for i := 0; i < 3; i++ {
		c.Do(key(i), func() engine.Result { return engine.Result{Strategy: "iterative"} })
	}
	c.Close() // the writer's three failed puts reach the breaker
	if got := c.DiskBreakerState(); got != breakerOpen {
		t.Fatalf("state = %s, want open", got)
	}

	// Probe interval elapses; the next disk op is the probe. It is a
	// clean read (miss, no error), which closes the breaker.
	clk.advance(11 * time.Second)
	c.Do(key(10), func() engine.Result { return engine.Result{Strategy: "iterative"} })
	if got := c.DiskBreakerState(); got != breakerClosed {
		t.Fatalf("state after healed probe = %s, want closed", got)
	}

	// Write-through is live again: a new compute reaches the disk.
	c.Do(key(11), func() engine.Result { return engine.Result{Strategy: "iterative"} })
	if st.Len() == 0 {
		t.Error("no entries on disk after recovery — write-through did not resume")
	}
}
