// Package cache memoizes scheduling results behind a content-addressed
// key, turning the batch engine into a serving layer: a production host
// sees streams of repeated (graph, deadline, strategy) requests, and
// every algorithm in this repository is deterministic, so an identical
// request can be answered from memory instead of re-running the
// iterative search and its thousands of Rakhmatov–Vrudhula battery-cost
// evaluations.
//
// The package has two halves:
//
//   - Cache: a bounded, concurrency-safe LRU from canonical content
//     hash (see Key) to engine.Result, with single-flight deduplication —
//     identical requests arriving concurrently compute once and share
//     the result. An optional disk tier (internal/store) sits under the
//     LRU: memory misses consult it before computing, disk hits are
//     promoted into memory, and computed results are written behind by
//     one writer goroutine, so the cache survives a process restart
//     without a response ever waiting on an fsync.
//   - Engine: a drop-in cached counterpart of engine.Engine. Its
//     RunBatch has the same ordering, per-job-error and determinism
//     guarantees as the uncached engine; only wall-clock time changes.
//
// Stored results are canonical (request identity stripped) and
// immutable: lookups return deep copies, so callers can mutate what
// they get back without corrupting the cache. Per-job errors are cached
// too — a deterministic failure (infeasible deadline, unknown strategy)
// costs the engine only once.
//
//battlint:deterministic
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
)

// DefaultMaxEntries bounds a Cache created with New(0). A cached result
// is a schedule plus a few scalars — roughly proportional to the task
// count — so the default is sized for tens of MB at worst, not for a
// memory budget that needs tuning.
const DefaultMaxEntries = 1024

// Cache is a bounded LRU of canonical scheduling results, safe for
// concurrent use. The zero value is not ready; use New.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *entry
	flights map[string]*flight       // keys being computed right now

	// disk is the optional second tier, consulted on memory miss and
	// written behind on store. Disk reads happen outside mu, from inside
	// the single-flight leader, so a slow disk never blocks memory hits
	// and a key is read from disk at most once per miss. Disk writes
	// (puts and a disk hit's recency touch) happen on the writer
	// goroutine, fed through wq.
	disk *store.Store
	// brk guards every disk access: when the disk accumulates errors
	// past the configured threshold, the breaker opens and the cache
	// degrades to memory-only serving (reads bypassed, writes skipped)
	// instead of paying EIO latency per request. Nil when disabled or
	// when there is no disk tier.
	brk *breaker

	hits      atomic.Uint64
	misses    atomic.Uint64
	dedups    atomic.Uint64
	evictions atomic.Uint64
	bypasses  atomic.Uint64

	// wq is the write-behind queue (nil without a disk tier), drained
	// in order by one writer goroutine that closes wdone when it exits.
	// wmu orders every send against Close: a sender holds the read
	// lock, and Close closes wq under the write lock, so no send can
	// race the close. After Close (wclosed), writes run synchronously.
	// These fields come last: placed between brk and hits, they made
	// perfbench's memory-hit workload (sync-hot) measure ~4% slower.
	wmu     sync.RWMutex
	wq      chan diskOp
	wclosed bool
	wdone   chan struct{}
}

// writeBehindDepth is the write-behind queue's capacity. A full queue
// blocks the leader that enqueues, and never drops the write: a dropped
// write is a stored job the next process life recomputes. The depth
// only has to absorb a burst of misses (one /v1/batch chunk finishing
// at once) while the writer fsyncs; past it, leaders wait on the disk
// as they did when every write was synchronous.
const writeBehindDepth = 256

// diskOp is one queued disk write: a computed result to Put, or, when
// touch is set, a disk hit's recency refresh (store.Touch).
type diskOp struct {
	key   string
	res   engine.Result
	touch bool
}

// entry is one stored result; it lives in both ll and entries.
type entry struct {
	key string
	res engine.Result
}

// flight is one in-progress computation; waiters block on done and then
// read res and canceled (the close of done publishes the writes).
// canceled marks a leader that aborted without producing a result —
// nothing was stored, and live waiters should retry rather than adopt
// the leader's cancellation.
type flight struct {
	done     chan struct{}
	res      engine.Result
	canceled bool
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to compute.
	Misses uint64 `json:"misses"`
	// Dedups counts lookups that piggybacked on a concurrent identical
	// computation (single-flight) instead of computing their own.
	Dedups uint64 `json:"dedups"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Bypasses counts requests that were not cacheable (nil graph,
	// unknown strategy, invalid battery spec) and went straight to the
	// engine. Every valid battery spec is cacheable and never counted
	// here.
	Bypasses uint64 `json:"bypasses"`
	// Entries is the current number of stored results.
	Entries int `json:"entries"`
	// The disk_* counters mirror the optional disk tier (all zero when
	// none is attached): DiskHits counts memory misses answered from
	// disk (Hits counts memory only, Misses counts computations —
	// disjoint by construction), DiskMisses counts memory misses that
	// had to compute, DiskErrors counts corrupt entries discarded and
	// IO failures (each degraded to a miss or a skipped write), and
	// DiskEvictions counts entries dropped by the disk byte budget.
	// DiskEntries/DiskBytes are the current on-disk population.
	DiskHits      uint64 `json:"disk_hits"`
	DiskMisses    uint64 `json:"disk_misses"`
	DiskErrors    uint64 `json:"disk_errors"`
	DiskEvictions uint64 `json:"disk_evictions"`
	DiskEntries   int    `json:"disk_entries"`
	DiskBytes     int64  `json:"disk_bytes"`
	// DiskBreakerState is the disk circuit breaker's current state
	// (closed|open|half-open; closed when no disk tier is attached),
	// DiskBreakerOpen counts how many times it has tripped open, and
	// DiskSkipped counts disk operations bypassed while it was open —
	// each one a read or write the cache degraded to memory-only.
	DiskBreakerState string `json:"disk_breaker_state"`
	DiskBreakerOpen  uint64 `json:"disk_breaker_open"`
	DiskSkipped      uint64 `json:"disk_skipped"`
}

// New returns an empty cache bounded at maxEntries results (0 means
// DefaultMaxEntries).
func New(maxEntries int) *Cache {
	return NewTiered(maxEntries, nil, BreakerConfig{})
}

// NewTiered is New with a disk tier layered under the LRU: memory
// misses consult disk before computing (promoting hits into memory),
// and computed results are written behind, so the cache's contents
// survive a restart of the process that owns disk's directory. A nil
// disk is exactly New. With a disk, NewTiered starts the cache's writer
// goroutine: every store write (a computed result's Put, a disk hit's
// recency Touch) is queued to it instead of running on the caller's
// path, so a miss is answered before its entry is fsynced. Call Close
// to drain the queue and stop the writer. The disk tier is strictly
// best-effort — every disk failure degrades to a miss or a skipped
// write (counted in Stats.DiskErrors), never an error or a wrong
// result. A circuit breaker guards the tier: when it returns
// bc.Threshold errors within bc.Window, the breaker opens and the
// cache serves memory-only (disk reads bypassed, writes skipped — both
// counted in Stats.DiskSkipped) until a half-open probe after bc.Probe
// succeeds. A zero bc is the default breaker (see BreakerConfig);
// bc.Threshold < 0 disables it.
func NewTiered(maxEntries int, disk *store.Store, bc BreakerConfig) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	c := &Cache{
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
		disk:    disk,
	}
	if disk != nil {
		c.brk = newBreaker(bc)
		c.wq = make(chan diskOp, writeBehindDepth)
		c.wdone = make(chan struct{})
		go c.writeBehind()
	}
	return c
}

// Do returns the cached result for key, computing it with compute on a
// miss. Concurrent calls with the same key compute once: the first
// caller runs compute, the rest wait and share its result. The returned
// bool reports whether the call was served without running compute
// itself (a stored hit or a single-flight dedup). The result is a deep
// copy — mutating it cannot corrupt the cache. compute must be
// deterministic for the key and must not panic (engine.RunBatch already
// converts job panics into per-job errors).
func (c *Cache) Do(key string, compute func() engine.Result) (engine.Result, bool) {
	return c.DoContext(context.Background(), key, compute)
}

// DoContext is Do with request-scoped cancellation, designed so one
// caller's cancellation can never poison the shared computation:
//
//   - A waiter whose ctx dies detaches immediately with an
//     engine.ErrCanceled result; the leader's flight and the entry it
//     will store are untouched, and other waiters still share it.
//   - A leader whose compute is canceled (its result carries
//     engine.ErrCanceled — ctx died or the job's Timeout fired) stores
//     nothing: the aborted flight is discarded and still-live waiters
//     retry, the first of them becoming the new leader. A cancellation
//     is not a deterministic property of the key, so it must never be
//     served to anyone else.
//
// compute is expected to observe the same ctx and return an
// ErrCanceled result promptly once it is done.
func (c *Cache) DoContext(ctx context.Context, key string, compute func() engine.Result) (engine.Result, bool) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			res := el.Value.(*entry).res
			c.mu.Unlock()
			c.hits.Add(1)
			return CloneResult(res), true
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				// Detach: the flight keeps computing for its leader
				// and any remaining waiters.
				return engine.Result{Err: engine.CanceledError(ctx.Err())}, false
			}
			if f.canceled {
				if ctx.Err() != nil {
					return engine.Result{Err: engine.CanceledError(ctx.Err())}, false
				}
				continue // leader aborted; retry, possibly as the new leader
			}
			c.dedups.Add(1)
			return CloneResult(f.res), true
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		// The single-flight leader consults the disk tier before
		// computing: outside mu (a disk read must never block memory
		// hits) and inside the flight (concurrent identical requests
		// share one disk read exactly as they share one computation).
		// A disk hit is promoted into the memory LRU and completes the
		// flight as if it had been computed; its recency touch is queued
		// after the waiters are released.
		if res, ok := c.diskGet(key); ok {
			c.mu.Lock()
			delete(c.flights, key)
			c.store(key, res)
			c.mu.Unlock()
			f.res = res
			close(f.done)
			c.diskWrite(diskOp{key: key, touch: true})
			return CloneResult(res), true
		}

		c.misses.Add(1)
		res := compute()
		// Strip the per-request identity so the stored canon serves any
		// later request regardless of its position or name; front ends
		// re-attach both (see Engine.Run).
		res.Index, res.Name = 0, ""

		c.mu.Lock()
		delete(c.flights, key)
		if errors.Is(res.Err, engine.ErrCanceled) {
			c.mu.Unlock()
			f.canceled = true
			close(f.done)
			return res, false
		}
		c.store(key, res)
		c.mu.Unlock()
		f.res = res
		close(f.done)
		// Write-behind after the flight completes: waiters are already
		// unblocked and the memory entry is live, so this request waits
		// for the disk only when the writer's queue is full.
		if c.disk != nil {
			c.diskWrite(diskOp{key: key, res: res})
		}
		return CloneResult(res), false
	}
}

// diskGet consults the disk tier; a nil tier is a permanent miss, and
// an open breaker bypasses the read — the miss recomputes instead of
// waiting on a disk already known to be failing. A hit's recency touch
// is the caller's to queue.
func (c *Cache) diskGet(key string) (engine.Result, bool) {
	if c.disk == nil || !c.brk.allow() {
		return engine.Result{}, false
	}
	res, ok, err := c.disk.Read(key)
	c.brk.record(err)
	return res, ok
}

// diskWrite queues op for the writer goroutine, blocking while the
// queue is full, or applies it on the caller's goroutine once Close has
// stopped the writer. The read lock is held across the send so Close
// cannot close wq under it; the send cannot wait forever, because the
// writer never takes wmu and drains wq until Close closes it.
func (c *Cache) diskWrite(op diskOp) {
	c.wmu.RLock()
	if !c.wclosed {
		c.wq <- op
		c.wmu.RUnlock()
		return
	}
	c.wmu.RUnlock()
	c.diskApply(op)
}

// writeBehind is the writer goroutine: it applies queued ops in order
// until Close closes the queue.
func (c *Cache) writeBehind() {
	defer close(c.wdone)
	for op := range c.wq {
		c.diskApply(op)
	}
}

// diskApply performs one disk write. A put is best-effort: the store
// counts failures in its Errors counter, the breaker counts them toward
// its trip threshold, and an open breaker skips the write. A touch is
// best-effort recency bookkeeping and reports nothing.
func (c *Cache) diskApply(op diskOp) {
	if op.touch {
		c.disk.Touch(op.key)
		return
	}
	if !c.brk.allow() {
		return
	}
	c.brk.record(c.disk.Put(op.key, op.res))
}

// Close drains the write-behind queue and stops the writer goroutine;
// it returns once every write queued before it has reached the store.
// A write after Close goes to the store on the caller's goroutine, so
// a computation that races shutdown still persists its result. Close
// is a no-op without a disk tier and safe to call more than once.
func (c *Cache) Close() {
	if c.wq == nil {
		return
	}
	c.wmu.Lock()
	if !c.wclosed {
		c.wclosed = true
		close(c.wq)
	}
	c.wmu.Unlock()
	<-c.wdone
}

// Get returns the stored result for key without computing anything and
// without consulting the disk tier. A found entry is served exactly as
// DoContext serves a memory hit: it becomes the most recently used and
// counts in Stats.Hits. A missing one counts nowhere — the caller's
// fallback (typically DoContext) does the counting.
func (c *Cache) Get(key string) (engine.Result, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return engine.Result{}, false
	}
	c.ll.MoveToFront(el)
	res := el.Value.(*entry).res
	c.mu.Unlock()
	c.hits.Add(1)
	return CloneResult(res), true
}

// store inserts (or refreshes) key under the LRU bound. Caller holds mu.
func (c *Cache) store(key string, res engine.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, res: res})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// MaxEntries returns the LRU bound: the most results the memory tier
// holds at once.
func (c *Cache) MaxEntries() int { return c.max }

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters (including the disk tier's, when one is
// attached).
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		Evictions: c.evictions.Load(),
		Bypasses:  c.bypasses.Load(),
		Entries:   c.Len(),
	}
	st.DiskBreakerState = c.brk.stateName()
	if c.disk != nil {
		ds := c.disk.Stats()
		st.DiskHits = ds.Hits
		st.DiskMisses = ds.Misses
		st.DiskErrors = ds.Errors
		st.DiskEvictions = ds.Evictions
		st.DiskEntries = ds.Entries
		st.DiskBytes = ds.Bytes
		st.DiskBreakerOpen = c.brk.tripCount()
		st.DiskSkipped = c.brk.skipCount()
	}
	return st
}

// DiskBreakerState returns the disk circuit breaker's current state
// (closed|open|half-open) — closed when no disk tier is attached. The
// server's /readyz reports it per-subsystem.
func (c *Cache) DiskBreakerState() string { return c.brk.stateName() }

// HasDisk reports whether a disk tier is attached.
func (c *Cache) HasDisk() bool { return c.disk != nil }

// CloneResult deep-copies the pointer-typed fields of a result so two
// holders never alias the same Schedule/Idle storage. Err is shared
// (errors are immutable by convention). The cache uses it on every
// lookup so callers can mutate what they get back without corrupting
// the stored canon; other retaining layers (the async queue's terminal
// snapshots) share it for the same no-aliasing invariant.
func CloneResult(r engine.Result) engine.Result {
	if r.Schedule != nil {
		r.Schedule = r.Schedule.Clone()
	}
	if r.Idle != nil {
		cp := core.IdlePlan{
			After:    append([]float64(nil), r.Idle.After...),
			Cost:     r.Idle.Cost,
			BaseCost: r.Idle.BaseCost,
		}
		r.Idle = &cp
	}
	return r
}
