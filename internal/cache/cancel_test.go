package cache

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// TestDoContextWaiterDetaches: a waiter whose context dies leaves the
// single-flight queue immediately with ErrCanceled — and the shared
// computation is not poisoned: the leader still completes, stores, and
// serves everyone else.
func TestDoContextWaiterDetaches(t *testing.T) {
	c := New(0)
	const key = "detach-key"
	gate := make(chan struct{})

	leaderDone := make(chan engine.Result, 1)
	go func() {
		res, _ := c.Do(key, func() engine.Result {
			<-gate
			return engine.Result{Cost: 42}
		})
		leaderDone <- res
	}()
	waitForFlight(t, c, key)

	// The waiter joins the flight, then its request dies.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan engine.Result, 1)
	go func() {
		res, _ := c.DoContext(ctx, key, func() engine.Result {
			t.Error("detached waiter must not compute")
			return engine.Result{}
		})
		waiterDone <- res
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the flight
	cancel()

	var waiterRes engine.Result
	select {
	case waiterRes = <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not detach from the flight")
	}
	if !errors.Is(waiterRes.Err, engine.ErrCanceled) {
		t.Fatalf("waiter err = %v, want ErrCanceled", waiterRes.Err)
	}

	// The flight is unharmed: release the leader and check the canon.
	close(gate)
	if res := <-leaderDone; res.Cost != 42 || res.Err != nil {
		t.Fatalf("leader result corrupted: %+v", res)
	}
	stored, ok := c.Get(key)
	if !ok || stored.Cost != 42 {
		t.Fatalf("stored entry corrupted: ok=%v %+v", ok, stored)
	}
	if hit, ok := c.Do(key, func() engine.Result { return engine.Result{Cost: -1} }); !ok || hit.Cost != 42 {
		t.Fatalf("later caller must hit the stored 42: ok=%v %+v", ok, hit)
	}
}

// TestDoContextCanceledLeaderNotStored: a computation aborted by its
// caller's cancellation must not be cached — the aborted flight is
// discarded and a live waiter retries, computing the real result
// itself.
func TestDoContextCanceledLeaderNotStored(t *testing.T) {
	c := New(0)
	const key = "abort-key"
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	gate := make(chan struct{})

	leaderDone := make(chan engine.Result, 1)
	go func() {
		res, _ := c.DoContext(leaderCtx, key, func() engine.Result {
			<-gate
			// A ctx-observing compute reports cancellation this way.
			return engine.Result{Err: engine.ErrCanceled}
		})
		leaderDone <- res
	}()
	waitForFlight(t, c, key)

	// A healthy waiter joins before the leader aborts.
	waiterDone := make(chan engine.Result, 1)
	go func() {
		res, _ := c.DoContext(context.Background(), key, func() engine.Result {
			return engine.Result{Cost: 99}
		})
		waiterDone <- res
	}()
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	close(gate)

	if res := <-leaderDone; !errors.Is(res.Err, engine.ErrCanceled) {
		t.Fatalf("leader err = %v, want ErrCanceled", res.Err)
	}
	var waiterRes engine.Result
	select {
	case waiterRes = <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered from the aborted flight")
	}
	if waiterRes.Err != nil || waiterRes.Cost != 99 {
		t.Fatalf("retrying waiter got %+v, want its own cost-99 result", waiterRes)
	}
	if stored, ok := c.Get(key); !ok || stored.Cost != 99 {
		t.Fatalf("cache must hold the waiter's result, not the aborted one: ok=%v %+v", ok, stored)
	}
}

// TestRunBatchContextCachedCancel: the cached engine inherits the batch
// cancellation contract, and a canceled run leaves no canceled results
// behind in the cache — a later identical batch recomputes and succeeds.
func TestRunBatchContextCachedCancel(t *testing.T) {
	c := New(0)
	e := Engine{Cache: c, Workers: 1}
	jobs := []engine.Job{g3Job(230), g3Job(150), g3Job(100)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, hits := e.RunBatchContext(ctx, jobs)
	for i, res := range results {
		if !errors.Is(res.Err, engine.ErrCanceled) {
			t.Fatalf("job %d err = %v, want ErrCanceled", i, res.Err)
		}
		if hits[i] {
			t.Fatalf("job %d reported a cache hit under a dead ctx", i)
		}
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("canceled batch stored %d entries, want 0", got)
	}

	// The cache is clean: the same batch on a live ctx computes fully.
	results, _ = e.RunBatchContext(context.Background(), jobs)
	for i, res := range results {
		if res.Err != nil || res.Schedule == nil {
			t.Fatalf("post-cancel job %d failed: %+v", i, res)
		}
	}
}

// TestGateWaitCanceled: a computation queued behind a full Gate gives up
// with ErrCanceled when its ctx is done. It never computes — every slot
// stays with its holder — and it stores nothing.
func TestGateWaitCanceled(t *testing.T) {
	c := New(0)
	e := Engine{Cache: c, Workers: 1, Gate: make(chan struct{}, 2)}
	e.Gate <- struct{}{}
	e.Gate <- struct{}{}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan engine.Result, 1)
	go func() {
		res, _ := e.RunContext(ctx, g3Job(230))
		done <- res
	}()
	select {
	case res := <-done:
		if !errors.Is(res.Err, engine.ErrCanceled) || res.Schedule != nil {
			t.Fatalf("res = %+v, want a bare ErrCanceled", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request still waiting for a Gate slot")
	}
	if n := len(e.Gate); n != 2 {
		t.Fatalf("Gate holds %d slot(s), want the 2 taken before the call", n)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("canceled request stored %d entries, want 0", n)
	}
}

// TestWaiterTimeoutDetaches: Timeout is excluded from the cache key, so
// a budgeted job can dedup onto a budget-free leader — and its budget
// must still hold: the waiter detaches with ErrCanceled when its
// timeout_ms expires instead of riding the leader's (much longer)
// computation to the end. The leader is unaffected and stores normally.
func TestWaiterTimeoutDetaches(t *testing.T) {
	c := New(0)
	e := Engine{Cache: c, Workers: 1}
	// ~4096 restarts ≈ a second of sequential search — three orders of
	// magnitude past the waiter's budget.
	slow := engine.Job{Graph: taskgraph.G3(), Deadline: 230, Strategy: "multistart",
		MultiStart: core.MultiStartOptions{Restarts: 4096, Seed: 5}}
	key, ok := Key(slow)
	if !ok {
		t.Fatal("slow job must be cacheable")
	}

	leaderDone := make(chan engine.Result, 1)
	go func() {
		res, _ := e.RunContext(context.Background(), slow)
		leaderDone <- res
	}()
	waitForFlight(t, c, key)

	budgeted := slow
	budgeted.Timeout = 25 * time.Millisecond
	res, hit := e.RunContext(context.Background(), budgeted)
	if hit || !errors.Is(res.Err, engine.ErrCanceled) {
		// A broken budget would instead ride the flight and come back a
		// successful dedup.
		t.Fatalf("budgeted waiter: hit=%v err=%v, want timeout detach", hit, res.Err)
	}

	if res := <-leaderDone; res.Err != nil || res.Schedule == nil {
		t.Fatalf("leader must be unaffected: %+v", res)
	}
	if stored, ok := c.Get(key); !ok || stored.Err != nil {
		t.Fatalf("leader's result must be stored: ok=%v %+v", ok, stored)
	}
}

// waitForFlight blocks until key has a registered in-flight computation.
func waitForFlight(t *testing.T, c *Cache, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, inFlight := c.flights[key]
		c.mu.Unlock()
		if inFlight {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(time.Millisecond)
	}
}
