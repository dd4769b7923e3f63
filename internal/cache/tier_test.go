package cache

// Two-tier behavior: the disk store under the LRU turns a fresh
// in-memory cache into a warm one — memory misses are answered from
// disk without running compute, disk hits are promoted into memory,
// computed results are written behind (Close drains them), and
// canceled computations are never persisted.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/store"
)

func tierKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func tierResult(cost float64) engine.Result {
	return engine.Result{
		Strategy: "iterative",
		Cost:     cost,
		Schedule: &sched.Schedule{Order: []int{1, 0}, Assignment: map[int]int{0: 0, 1: 1}},
	}
}

func openTier(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, _, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newTier is NewTiered whose writer is stopped when the test ends,
// before its temp directory is removed.
func newTier(t *testing.T, maxEntries int, st *store.Store, bc BreakerConfig) *Cache {
	t.Helper()
	c := NewTiered(maxEntries, st, bc)
	t.Cleanup(c.Close)
	return c
}

// TestTierWriteThroughAndDiskHit: a computed result lands on disk once
// Close has drained the writer; a second cache sharing the store (fresh
// memory — a "restarted process") answers the same key from disk
// without computing, promotes it into memory, and the counters tell
// that story exactly.
func TestTierWriteThroughAndDiskHit(t *testing.T) {
	dir := t.TempDir()
	want := tierResult(42)

	c1 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	got, hit := c1.Do(tierKey(0), func() engine.Result { return want })
	if hit || got.Cost != want.Cost {
		t.Fatalf("first Do: hit=%v res=%+v", hit, got)
	}
	c1.Close()
	if st := c1.Stats(); st.Misses != 1 || st.DiskMisses != 1 || st.DiskEntries != 1 {
		t.Fatalf("after compute: %+v", st)
	}

	c2 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	computed := false
	got, hit = c2.Do(tierKey(0), func() engine.Result { computed = true; return tierResult(-1) })
	if computed {
		t.Fatal("disk-resident key recomputed")
	}
	if !hit || !reflect.DeepEqual(got.Schedule, want.Schedule) || got.Cost != want.Cost {
		t.Fatalf("disk hit: hit=%v res=%+v", hit, got)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("after disk hit: %+v", st)
	}
	if st.Entries != 1 {
		t.Fatal("disk hit not promoted into memory")
	}
	// Promotion means the next lookup never touches disk again.
	if _, hit = c2.Do(tierKey(0), func() engine.Result { return tierResult(-1) }); !hit {
		t.Fatal("promoted entry missed")
	}
	if st = c2.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("after promoted hit: %+v", st)
	}
}

// TestTierDiskHitIsDeepCopy: mutating a disk-served result must not
// corrupt the promoted memory canon.
func TestTierDiskHitIsDeepCopy(t *testing.T) {
	dir := t.TempDir()
	c1 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	c1.Do(tierKey(0), func() engine.Result { return tierResult(7) })
	c1.Close()

	c2 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	got, _ := c2.Do(tierKey(0), func() engine.Result { return tierResult(-1) })
	got.Schedule.Order[0] = -99
	again, hit := c2.Do(tierKey(0), func() engine.Result { return tierResult(-1) })
	if !hit || again.Schedule.Order[0] == -99 {
		t.Fatalf("mutating a disk-served result corrupted the canon: %+v", again.Schedule)
	}
}

// TestTierCanceledNotPersisted: a canceled leader stores nothing in
// either tier.
func TestTierCanceledNotPersisted(t *testing.T) {
	st := openTier(t, t.TempDir())
	c := newTier(t, 0, st, BreakerConfig{})
	res, hit := c.Do(tierKey(0), func() engine.Result {
		return engine.Result{Err: engine.CanceledError(context.Canceled)}
	})
	if hit || !errors.Is(res.Err, engine.ErrCanceled) {
		t.Fatalf("canceled compute: hit=%v err=%v", hit, res.Err)
	}
	c.Close()
	if st.Len() != 0 {
		t.Fatal("canceled result written to disk")
	}
	if c.Len() != 0 {
		t.Fatal("canceled result stored in memory")
	}
}

// TestTierErrorResultsPersist: deterministic per-job errors are part of
// the canon and survive the tier boundary like any other result.
func TestTierErrorResultsPersist(t *testing.T) {
	dir := t.TempDir()
	c1 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	c1.Do(tierKey(0), func() engine.Result {
		return engine.Result{Strategy: "iterative", Err: errors.New("core: infeasible deadline")}
	})
	c1.Close()

	c2 := newTier(t, 0, openTier(t, dir), BreakerConfig{})
	got, hit := c2.Do(tierKey(0), func() engine.Result { return tierResult(-1) })
	if !hit || got.Err == nil || got.Err.Error() != "core: infeasible deadline" {
		t.Fatalf("error result after restart: hit=%v res=%+v", hit, got)
	}
}

// TestTierNilStoreIsMemoryOnly: a nil disk tier behaves exactly like
// New(n) and reports zero disk counters.
func TestTierNilStoreIsMemoryOnly(t *testing.T) {
	c := NewTiered(0, nil, BreakerConfig{})
	c.Do(tierKey(0), func() engine.Result { return tierResult(1) })
	st := c.Stats()
	if st.Misses != 1 || st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskEntries != 0 {
		t.Fatalf("nil-store stats: %+v", st)
	}
}
