package server

// A byte-identical repeat on /v1/schedule is answered from its body
// digest without decoding (handleSchedule). These tests hold that path
// to the full one: the same status, X-Cache value and body bytes, and
// the same moves of the /metrics counters, whatever the job.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/battery"
	"repro/internal/dvs"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// reply is what a /v1/schedule client can observe of one answer.
type reply struct {
	status     int
	xcache     string
	retryAfter string
	body       string
}

// schedule posts body to /v1/schedule through h.
func schedule(h http.Handler, body string) reply {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	return reply{w.Code, w.Header().Get("X-Cache"), w.Header().Get("Retry-After"), w.Body.String()}
}

// counters are the /metrics values a served job moves.
type counters struct {
	hits, misses, dedups, bypasses uint64
	jobs, errors, canceled         uint64
	kinds                          map[string]uint64
}

func countersOf(s *Server) counters {
	m := s.Metrics()
	c := counters{jobs: m.JobsTotal, errors: m.ErrorCount, canceled: m.Canceled, kinds: map[string]uint64{}}
	if m.Cache != nil {
		c.hits, c.misses, c.dedups, c.bypasses = m.Cache.Hits, m.Cache.Misses, m.Cache.Dedups, m.Cache.Bypasses
	}
	for k, n := range m.ModelKinds {
		c.kinds[k] = n
	}
	return c
}

// minus is the move from before to c.
func (c counters) minus(before counters) counters {
	d := counters{
		hits: c.hits - before.hits, misses: c.misses - before.misses,
		dedups: c.dedups - before.dedups, bypasses: c.bypasses - before.bypasses,
		jobs: c.jobs - before.jobs, errors: c.errors - before.errors,
		canceled: c.canceled - before.canceled, kinds: map[string]uint64{},
	}
	for k, n := range c.kinds {
		if n != before.kinds[k] {
			d.kinds[k] = n - before.kinds[k]
		}
	}
	return d
}

// warm fills s's cache with the bodies' results through /v1/batch,
// which records no alias.
func warm(t *testing.T, s *Server, bodies ...string) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(strings.Join(bodies, "\n"))))
	if w.Code != http.StatusOK {
		t.Fatalf("warm-up batch: %d %s", w.Code, w.Body)
	}
	for _, b := range bodies {
		if hasAlias(s, b) {
			t.Fatalf("/v1/batch recorded an alias for %s", b)
		}
	}
}

// hasAlias reports whether s would answer body from its digest.
func hasAlias(s *Server, body string) bool {
	_, ok := s.repeats.get(sha256.Sum256([]byte(body)))
	return ok
}

// repeatMatches posts body twice to a server whose cache already holds
// its result: the first request takes the full path and hits, the
// second is answered from the digest. Both must be observably the same,
// down to every counter they move.
func repeatMatches(t *testing.T, s *Server, body string) reply {
	t.Helper()
	h := s.Handler()
	c0 := countersOf(s)
	first := schedule(h, body)
	c1 := countersOf(s)
	if first.xcache != "hit" {
		t.Fatalf("warm full path: X-Cache %q, want hit: %s", first.xcache, first.body)
	}
	if !hasAlias(s, body) {
		t.Fatalf("full path served %d without recording an alias: %s", first.status, body)
	}
	second := schedule(h, body)
	c2 := countersOf(s)
	if second != first {
		t.Fatalf("repeat differs from the full path:\nfull:   %+v\nrepeat: %+v", first, second)
	}
	if full, repeat := c1.minus(c0), c2.minus(c1); !reflect.DeepEqual(full, repeat) {
		t.Fatalf("repeat moved the counters %+v, the full path %+v", repeat, full)
	}
	return second
}

// TestScheduleRepeatsByteIdentical: every route-oracle job, posted twice
// to a warm server, is answered the same by the full path and by its
// digest; so is a whitespace variant of it, which takes the full path
// first because its bytes differ.
func TestScheduleRepeatsByteIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	lines := routeCorpus(t)
	warm(t, s, lines...)
	for _, line := range lines {
		got := repeatMatches(t, s, line)
		var res wire.Result
		if err := json.Unmarshal([]byte(got.body), &res); err != nil || res.Error != "" {
			t.Fatalf("%s: %v %s", line, err, got.body)
		}
		if want := line[len(`{"name":"`):strings.Index(line, `",`)]; res.Name != want {
			t.Fatalf("repeat echoed name %q, want %q", res.Name, want)
		}
		spaced := strings.Replace(line, `,"deadline":`, `, "deadline" : `, 1)
		if spaced == line {
			t.Fatalf("no whitespace variant of %s", line)
		}
		if again := repeatMatches(t, s, spaced); again != got {
			t.Fatalf("whitespace variant answered differently:\n%+v\n%+v", again, got)
		}
	}
}

// TestScheduleRepeatCases: the jobs whose answers the digest path must
// reproduce exactly — a named job, an infeasible one, a daemon default
// battery, the beta shorthand — each repeated after a cold first sight
// and after a warm full-path hit; then the two cases it must hand back
// to the full path: a result the LRU evicted, and a draining server.
func TestScheduleRepeatCases(t *testing.T) {
	kibam := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	for _, tc := range []struct {
		name   string
		cfg    Config
		body   string
		status int
		kind   string
	}{
		{"named", Config{}, `{"name":"arm-75","fixture":"g2","deadline":75}`, http.StatusOK, battery.KindRakhmatov},
		{"infeasible", Config{}, `{"name":"too-tight","fixture":"g3","deadline":10}`, http.StatusUnprocessableEntity, battery.KindRakhmatov},
		{"default battery", Config{DefaultBattery: &kibam}, `{"fixture":"g3","deadline":230}`, http.StatusOK, battery.KindKiBaM},
		{"beta shorthand", Config{DefaultBattery: &kibam}, `{"fixture":"g3","deadline":230,"beta":0.5}`, http.StatusOK, battery.KindRakhmatov},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 2
			cold := New(tc.cfg)
			t.Cleanup(cold.Close)
			c0 := countersOf(cold)
			first := schedule(cold.Handler(), tc.body)
			if first.status != tc.status || first.xcache != "miss" {
				t.Fatalf("first sight: %d X-Cache %q, want %d miss: %s", first.status, first.xcache, tc.status, first.body)
			}
			if d := countersOf(cold).minus(c0); d.misses != 1 || d.jobs != 1 || d.kinds[tc.kind] != 1 {
				t.Fatalf("first sight moved %+v, want one %s miss", d, tc.kind)
			}
			c1 := countersOf(cold)
			second := schedule(cold.Handler(), tc.body)
			if second.status != first.status || second.xcache != "hit" || second.body != first.body {
				t.Fatalf("repeat after a miss: %+v, want the first answer %+v as a hit", second, first)
			}
			if d := countersOf(cold).minus(c1); d.hits != 1 || d.jobs != 1 || d.kinds[tc.kind] != 1 {
				t.Fatalf("repeat moved %+v, want one %s hit", d, tc.kind)
			}

			warmed := New(tc.cfg)
			t.Cleanup(warmed.Close)
			warm(t, warmed, tc.body)
			if got := repeatMatches(t, warmed, tc.body); got != second {
				t.Fatalf("warm server answered %+v, cold one %+v", got, second)
			}
		})
	}

	t.Run("evicted", func(t *testing.T) {
		s := New(Config{Workers: 2, CacheEntries: 1})
		t.Cleanup(s.Close)
		h := s.Handler()
		const a = `{"name":"a","fixture":"g3","deadline":230}`
		first := schedule(h, a)
		// A batch result takes the LRU's only slot but records no alias,
		// so a's alias survives its result.
		warm(t, s, `{"fixture":"g2","deadline":75}`)
		if !hasAlias(s, a) || s.Cache().Len() != 1 {
			t.Fatalf("setup: alias %v, %d cached", hasAlias(s, a), s.Cache().Len())
		}
		c0 := countersOf(s)
		again := schedule(h, a)
		if again != first || again.xcache != "miss" {
			t.Fatalf("evicted repeat: %+v, want the first answer %+v", again, first)
		}
		if d := countersOf(s).minus(c0); d.misses != 1 || d.hits != 0 || d.jobs != 1 {
			t.Fatalf("evicted repeat moved %+v, want one miss", d)
		}
		if next := schedule(h, a); next.body != first.body || next.xcache != "hit" {
			t.Fatalf("repeat after the fallback: %+v, want a hit with the first body", next)
		}
	})

	t.Run("draining", func(t *testing.T) {
		s := New(Config{Workers: 2})
		h := s.Handler()
		const a = `{"fixture":"g2","deadline":75}`
		schedule(h, a)
		schedule(h, a)
		if !hasAlias(s, a) {
			t.Fatal("no alias recorded")
		}
		s.Close()
		c0 := countersOf(s)
		got := schedule(h, a)
		if got.status != http.StatusServiceUnavailable || got.retryAfter == "" {
			t.Fatalf("repeat on a draining server: %+v, want 503 with Retry-After", got)
		}
		if m := s.Metrics(); m.Rejected != 1 {
			t.Fatalf("rejected = %d, want 1", m.Rejected)
		}
		if d := countersOf(s).minus(c0); d.jobs != 0 || d.hits != 0 {
			t.Fatalf("a rejected repeat moved %+v", d)
		}
	})
}

// TestScheduleRepeatConcurrent: many goroutines repeat a few bodies at
// once through a cache too small for all of them, so recording, reading
// and replacing aliases race with evictions; every answer must equal the
// body's first one, and every request must count as one job.
func TestScheduleRepeatConcurrent(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 3})
	t.Cleanup(s.Close)
	h := s.Handler()
	var bodies []string
	for _, d := range []int{75, 80, 85, 90, 95} {
		bodies = append(bodies, fmt.Sprintf(`{"name":"g2-%d","fixture":"g2","deadline":%d}`, d, d))
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		want[i] = schedule(h, b).body
	}
	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(bodies)
				if got := schedule(h, bodies[i]); got.status != http.StatusOK || got.body != want[i] {
					t.Errorf("goroutine %d round %d: %d %s, want %s", g, r, got.status, got.body, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := s.Metrics(); m.JobsTotal != uint64(len(bodies)+goroutines*rounds) {
		t.Fatalf("jobs_total = %d, want %d", m.JobsTotal, len(bodies)+goroutines*rounds)
	}
	if n := len(s.repeats.m); n > s.Cache().MaxEntries() {
		t.Fatalf("%d aliases outlive a %d-entry cache", n, s.Cache().MaxEntries())
	}
}

// BenchmarkScheduleRepeat posts one 20-task inline body (the serving
// benchmark's sync-hot shape) to /v1/schedule over and over: after the
// first request every one is a memory hit answered from its digest.
func BenchmarkScheduleRepeat(b *testing.B) {
	recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
	refs := make([][2]float64, 20)
	for i := range refs {
		refs[i] = [2]float64{300 + float64(37*i%650), 3 + float64(i%9)}
	}
	points, err := recipe.PointsFunc(refs)
	if err != nil {
		b.Fatal(err)
	}
	g, err := taskgraph.ForkJoin(4, 2, 11, points)
	if err != nil {
		b.Fatal(err)
	}
	spec := g.ToSpec("bench-20")
	body, err := json.Marshal(wire.Job{Graph: &spec, Deadline: (g.MinTotalTime() + g.MaxTotalTime()) / 2})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	b.Cleanup(s.Close)
	h := s.Handler()
	req := string(body)
	if r := schedule(h, req); r.status != http.StatusOK {
		b.Fatalf("first request: %d %s", r.status, r.body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := schedule(h, req); r.xcache != "hit" {
			b.Fatalf("repeat %d: X-Cache %q", i, r.xcache)
		}
	}
}
