package cache

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

func g3Job(deadline float64) engine.Job {
	return engine.Job{Graph: taskgraph.G3(), Deadline: deadline}
}

// TestKeyCanonical: equal content hashes equal, different content
// hashes different, result-neutral knobs are excluded.
func TestKeyCanonical(t *testing.T) {
	base, ok := Key(g3Job(230))
	if !ok || base == "" {
		t.Fatal("G3 job must be cacheable")
	}

	// A graph rebuilt from its own spec is the same content.
	spec := taskgraph.G3().ToSpec("renamed")
	g, err := taskgraph.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := Key(engine.Job{Graph: g, Deadline: 230}); k != base {
		t.Fatal("rebuilt graph must hash to the same key")
	}

	// Result-neutral fields must not change the key.
	neutral := g3Job(230)
	neutral.Name = "labelled"
	neutral.MultiStart = core.MultiStartOptions{Restarts: 9, Seed: 3, Workers: 4} // ignored: strategy is iterative
	if k, _ := Key(neutral); k != base {
		t.Fatal("name/MultiStart-for-iterative must be excluded from the key")
	}

	// Result-affecting fields must change it.
	for name, job := range map[string]engine.Job{
		"deadline": g3Job(231),
		"strategy": {Graph: taskgraph.G3(), Deadline: 230, Strategy: engine.StrategyMultiStart},
		"beta":     {Graph: taskgraph.G3(), Deadline: 230, Options: core.Options{Battery: &battery.Spec{Kind: battery.KindRakhmatov, Beta: 0.5}}},
		"windows":  {Graph: taskgraph.G3(), Deadline: 230, Options: core.Options{Windows: core.WindowFullOnly}},
		"graph":    {Graph: taskgraph.G2(), Deadline: 230},
	} {
		k, ok := Key(job)
		if !ok {
			t.Fatalf("%s variant must be cacheable", name)
		}
		if k == base {
			t.Fatalf("%s variant must change the key", name)
		}
	}

	// Multistart config matters once the strategy is multistart.
	ms1 := engine.Job{Graph: taskgraph.G3(), Deadline: 230, Strategy: "multistart", MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 1}}
	ms2 := ms1
	ms2.MultiStart.Seed = 2
	k1, _ := Key(ms1)
	k2, _ := Key(ms2)
	if k1 == k2 {
		t.Fatal("multistart seed must change the key")
	}
	ms3 := ms1
	ms3.MultiStart.Workers = 8
	if k3, _ := Key(ms3); k3 != k1 {
		t.Fatal("multistart Workers must not change the key")
	}

	// Zero-valued fields hash at their resolved defaults: spelling a
	// default out must land on the same entry as leaving it zero.
	explicit := g3Job(230)
	explicit.Options.Battery = &battery.Spec{Kind: battery.KindRakhmatov, Beta: battery.DefaultBeta, Terms: battery.DefaultTerms}
	explicit.Options.MaxIterations = core.DefaultMaxIterations
	explicit.Options.Factors = core.AllFactors
	if k, _ := Key(explicit); k != base {
		t.Fatal("explicit option defaults must hash like zero values")
	}
	msDefault := engine.Job{Graph: taskgraph.G3(), Deadline: 230, Strategy: "multistart"}
	msExplicit := msDefault
	msExplicit.MultiStart.Restarts = core.DefaultRestarts
	kd, _ := Key(msDefault)
	ke, _ := Key(msExplicit)
	if kd != ke {
		t.Fatal("explicit default restart count must hash like zero")
	}
}

// TestKeyUncacheable: nil graphs, unknown strategies and invalid battery
// specs bypass the cache. Valid Options.Battery specs do NOT — see
// spec_test.go.
func TestKeyUncacheable(t *testing.T) {
	if _, ok := Key(engine.Job{Deadline: 10}); ok {
		t.Fatal("nil graph must be uncacheable")
	}
	if _, ok := Key(engine.Job{Graph: taskgraph.G3(), Deadline: 10, Strategy: "nonsense"}); ok {
		t.Fatal("unknown strategy must be uncacheable")
	}
	invalid := g3Job(230)
	invalid.Options.Battery = &battery.Spec{Kind: "fluxcap"}
	if _, ok := Key(invalid); ok {
		t.Fatal("invalid battery spec must be uncacheable (its per-job error is cheaper than hashing)")
	}
}

// TestDoHitMissAndClone: second lookup is a hit with equal content, and
// mutating a returned result does not corrupt the stored canon.
func TestDoHitMissAndClone(t *testing.T) {
	c := New(0)
	e := Engine{Cache: c, Workers: 1}

	first, hit := e.Run(g3Job(230))
	if hit || first.Err != nil {
		t.Fatalf("first run: hit=%v err=%v", hit, first.Err)
	}
	second, hit := e.Run(g3Job(230))
	if !hit {
		t.Fatal("second identical run must be a cache hit")
	}
	if !reflect.DeepEqual(first.Schedule, second.Schedule) || first.Cost != second.Cost {
		t.Fatal("cached result must equal the computed one")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// Vandalize the returned copy; the canon must be unaffected.
	second.Schedule.Order[0] = -99
	second.Schedule.Assignment[1] = -99
	third, _ := e.Run(g3Job(230))
	if third.Schedule.Order[0] == -99 || third.Schedule.Assignment[1] == -99 {
		t.Fatal("mutating a returned result corrupted the cache")
	}
}

// TestLRUEviction: the bound holds and the oldest entry goes first.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	for i, d := range []float64{100, 150, 230} {
		key, ok := Key(g3Job(d))
		if !ok {
			t.Fatal("expected cacheable")
		}
		c.Do(key, func() engine.Result { return engine.Result{Cost: d} })
		if want := min(i+1, 2); c.Len() != want {
			t.Fatalf("after insert %d: len = %d, want %d", i, c.Len(), want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	k100, _ := Key(g3Job(100))
	if _, ok := c.Get(k100); ok {
		t.Fatal("oldest entry must have been evicted")
	}
	k230, _ := Key(g3Job(230))
	if _, ok := c.Get(k230); !ok {
		t.Fatal("newest entry must survive")
	}
}

// TestGetCountsAsHit: Get serves a stored result as DoContext serves a
// memory hit — counted in Hits and made most recently used — while a
// missing key counts nowhere and computes nothing.
func TestGetCountsAsHit(t *testing.T) {
	c := New(2)
	keys := make([]string, 3)
	for i, d := range []float64{100, 150, 230} {
		keys[i], _ = Key(g3Job(d))
	}
	for _, k := range keys[:2] {
		c.Do(k, func() engine.Result { return engine.Result{Cost: 1} })
	}
	if _, ok := c.Get(keys[2]); ok {
		t.Fatal("Get found a key never stored")
	}
	if res, ok := c.Get(keys[0]); !ok || res.Cost != 1 {
		t.Fatalf("Get(stored) = %+v, %v", res, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	// keys[0] is now the most recent, so storing a third evicts keys[1].
	c.Do(keys[2], func() engine.Result { return engine.Result{Cost: 1} })
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("Get did not refresh the entry's recency")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("the least recently used entry survived")
	}
}

// TestSingleFlight: concurrent identical requests compute once; the
// waiters share the leader's result.
func TestSingleFlight(t *testing.T) {
	c := New(0)
	var computes atomic.Int32
	gate := make(chan struct{})
	key := "test-key"

	leaderDone := make(chan engine.Result, 1)
	go func() {
		res, _ := c.Do(key, func() engine.Result {
			computes.Add(1)
			<-gate // hold the flight open until the waiters have joined
			return engine.Result{Cost: 42}
		})
		leaderDone <- res
	}()

	// Wait until the leader's flight is registered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, inFlight := c.flights[key]
		c.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]engine.Result, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], hits[i] = c.Do(key, func() engine.Result {
				computes.Add(1)
				return engine.Result{Cost: -1}
			})
		}(i)
	}
	// Release the leader. Waiters that joined the flight dedup; any
	// that arrive after it completes hit the stored entry — either way
	// compute must have run exactly once and everyone sees cost 42.
	close(gate)
	wg.Wait()
	<-leaderDone

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := range results {
		if results[i].Cost != 42 {
			t.Fatalf("waiter %d got cost %v, want the leader's 42", i, results[i].Cost)
		}
		if !hits[i] {
			t.Fatalf("waiter %d not reported as served-from-flight", i)
		}
	}
}

// TestEngineMatchesUncached: for a mixed batch, the cached engine's
// results must be identical to engine.RunBatch's, for any worker count
// and for warm and cold caches alike.
func TestEngineMatchesUncached(t *testing.T) {
	jobs := []engine.Job{
		{Name: "a", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "dup-of-a", Graph: taskgraph.G3(), Deadline: 230},
		{Name: "b", Graph: taskgraph.G2(), Deadline: 75, Strategy: "rv-dp"},
		{Name: "infeasible", Graph: taskgraph.G2(), Deadline: 1},
		{Name: "nil-graph"},
		{Name: "ms", Graph: taskgraph.G2(), Deadline: 55, Strategy: "multistart", MultiStart: core.MultiStartOptions{Restarts: 4, Seed: 7}},
	}
	want := engine.RunBatch(jobs, 3)

	for _, workers := range []int{1, 4} {
		// A 2-slot Gate on the 4-worker engine also exercises the
		// global computation bound without changing any result.
		ce := Engine{Cache: New(0), Workers: workers}
		if workers == 4 {
			ce.Gate = make(chan struct{}, 2)
		}
		for pass := 0; pass < 2; pass++ {
			got, hits := ce.RunBatch(jobs)
			// Every computation, the multistart one included, gave back
			// the one slot it took.
			if n := len(ce.Gate); n != 0 {
				t.Fatalf("workers=%d pass=%d: %d Gate slot(s) still held", workers, pass, n)
			}
			for i := range want {
				if !resultsEquivalent(want[i], got[i]) {
					t.Fatalf("workers=%d pass=%d job %d: cached result differs:\nwant %+v\ngot  %+v",
						workers, pass, i, want[i], got[i])
				}
			}
			if pass == 1 {
				// Everything cacheable must now hit (all but the
				// nil-graph bypass).
				for i, h := range hits {
					if i == 4 {
						if h {
							t.Fatal("nil-graph job cannot be a cache hit")
						}
						continue
					}
					if !h {
						t.Fatalf("workers=%d warm pass job %d was not a hit", workers, i)
					}
				}
			}
		}
	}
}

// resultsEquivalent compares results modulo error identity (cached
// errors are the same value; uncached ones are fresh but equal text).
func resultsEquivalent(a, b engine.Result) bool {
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Err != nil {
		return a.Err.Error() == b.Err.Error() && a.Index == b.Index && a.Name == b.Name
	}
	return a.Index == b.Index && a.Name == b.Name && a.Strategy == b.Strategy &&
		a.Cost == b.Cost && a.Duration == b.Duration && a.Energy == b.Energy &&
		a.Iterations == b.Iterations && reflect.DeepEqual(a.Schedule, b.Schedule) &&
		reflect.DeepEqual(a.Idle, b.Idle)
}

// TestEngineNilCachePassThrough: Engine without a Cache is a plain
// engine.
func TestEngineNilCachePassThrough(t *testing.T) {
	ce := Engine{Workers: 2}
	res, hit := ce.Run(g3Job(230))
	if hit || res.Err != nil || res.Schedule == nil {
		t.Fatalf("pass-through run failed: hit=%v res=%+v", hit, res)
	}
}

// TestKeyApprox: the approximation tolerance changes results, so it must
// change the key — and the zero (exact-mode) spelling must stay on the
// baseline entry.
func TestKeyApprox(t *testing.T) {
	base, ok := Key(g3Job(230))
	if !ok {
		t.Fatal("G3 job must be cacheable")
	}
	exact := g3Job(230)
	exact.Options.Approx = 0
	if k, _ := Key(exact); k != base {
		t.Fatal("explicit Approx: 0 must share the exact-mode entry")
	}
	approx := g3Job(230)
	approx.Options.Approx = 0.5
	ka, ok := Key(approx)
	if !ok {
		t.Fatal("approx job must be cacheable")
	}
	if ka == base {
		t.Fatal("an approximate run must never answer an exact request")
	}
	other := g3Job(230)
	other.Options.Approx = 1.5
	if ko, _ := Key(other); ko == ka {
		t.Fatal("distinct tolerances must hash distinctly")
	}
}
