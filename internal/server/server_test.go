package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/taskgraph"
	"repro/internal/wire"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestScheduleCacheHit is the serving story end to end: the same
// request twice must yield byte-identical result payloads, with the
// second served from cache (X-Cache: hit, hit counter incremented).
func TestScheduleCacheHit(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"fixture":"g3","deadline":230,"strategy":"multistart","restarts":4,"seed":7}`

	resp1, data1 := post(t, ts.URL+"/v1/schedule", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}

	resp2, data2 := post(t, ts.URL+"/v1/schedule", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", resp2.StatusCode, data2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}

	// Cache status lives in headers only, so a hit returns exactly the
	// bytes a miss computed.
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cached body differs:\nmiss: %s\nhit:  %s", data1, data2)
	}
	var r1 wire.Result
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatalf("bad result body %q: %v", data1, err)
	}
	if r1.Cost <= 0 || len(r1.Order) != 15 {
		t.Fatalf("implausible schedule: %+v", r1)
	}

	st := s.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestScheduleRejectsBadRequests is the decode-time gate over HTTP:
// malformed JSON, NaN deadlines and negative currents are 400s with an
// error envelope, infeasible-but-well-formed jobs are 422s.
func TestScheduleRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"malformed json", `not json`, http.StatusBadRequest, "invalid character"},
		{"NaN deadline", `{"fixture":"g3","deadline":NaN}`, http.StatusBadRequest, "invalid character"},
		{"negative deadline", `{"fixture":"g3","deadline":-1}`, http.StatusBadRequest, "must be positive"},
		{"negative current", `{"graph":{"tasks":[{"id":1,"points":[{"current":-5,"time":1}]}]},"deadline":5}`, http.StatusBadRequest, "current"},
		{"unknown strategy", `{"fixture":"g3","deadline":230,"strategy":"nonsense"}`, http.StatusBadRequest, "unknown strategy"},
		{"unknown fixture", `{"fixture":"g9","deadline":230}`, http.StatusBadRequest, "unknown fixture"},
		{"both graph and fixture", `{"fixture":"g3","graph":{"tasks":[]},"deadline":230}`, http.StatusBadRequest, "both"},
		{"infeasible deadline", `{"fixture":"g3","deadline":1}`, http.StatusUnprocessableEntity, "deadline cannot be met"},
	} {
		resp, data := post(t, ts.URL+"/v1/schedule", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error == "" {
			t.Errorf("%s: no error envelope in %q (%v)", tc.name, data, err)
			continue
		}
		if !strings.Contains(env.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, env.Error, tc.want)
		}
	}
}

// TestBatchNDJSON: the battbatch contract over HTTP — in-order results,
// per-line errors, blank lines skipped.
func TestBatchNDJSON(t *testing.T) {
	_, ts := newTestServer(t)
	body := strings.Join([]string{
		`{"name":"a","fixture":"g3","deadline":230}`,
		``,
		`not json`,
		`{"name":"c","fixture":"g2","deadline":75,"strategy":"rv-dp"}`,
		`{"name":"d","fixture":"g3","deadline":1}`,
	}, "\n")

	resp, data := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d result lines, want 4:\n%s", len(lines), data)
	}
	var results []wire.Result
	for _, l := range lines {
		var r wire.Result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		results = append(results, r)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("line %d has index %d", i, r.Index)
		}
	}
	if results[0].Error != "" || results[0].Name != "a" || results[0].Cost <= 0 {
		t.Fatalf("job a should succeed: %+v", results[0])
	}
	if results[1].Error == "" {
		t.Fatalf("unparseable line should carry its parse error: %+v", results[1])
	}
	if results[2].Error != "" || results[2].Strategy != "rv-dp" {
		t.Fatalf("job c should succeed under rv-dp: %+v", results[2])
	}
	if results[3].Error == "" || results[3].Order != nil {
		t.Fatalf("job d should be infeasible: %+v", results[3])
	}
}

// TestBatchDeterministicAndCached: a repeated batch answers entirely
// from cache with an identical scheduling payload.
func TestBatchDeterministicAndCached(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"fixture":"g2","deadline":55}
{"fixture":"g2","deadline":75,"strategy":"withidle"}
{"fixture":"g3","deadline":150,"strategy":"chowdhury"}`

	resp1, data1 := post(t, ts.URL+"/v1/batch", body)
	resp2, data2 := post(t, ts.URL+"/v1/batch", body)
	if !bytes.Equal(data1, data2) {
		t.Fatalf("repeated batch body differs:\n%s\n---\n%s", data1, data2)
	}
	if h := resp1.Header.Get("X-Cache-Hits"); h != "0/3" {
		t.Fatalf("first batch X-Cache-Hits = %q, want 0/3", h)
	}
	if h := resp2.Header.Get("X-Cache-Hits"); h != "3/3" {
		t.Fatalf("second batch X-Cache-Hits = %q, want 3/3", h)
	}
	if st := s.Cache().Stats(); st.Hits < 3 {
		t.Fatalf("repeated batch should hit 3 times, stats %+v", st)
	}
}

// TestBatchJobCap: a batch over the 10000-job limit is rejected
// outright (413), before any scheduling work.
func TestBatchJobCap(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := strings.Repeat(`{"fixture":"g2","deadline":75}`+"\n", maxBatchJobs+1)
	resp, data := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "batch has 10001 jobs, limit is 10000") {
		t.Fatalf("error should name the count and the limit: %s", data)
	}
	if s.Metrics().JobsTotal != 0 {
		t.Fatal("capped batch must not run any jobs")
	}
}

// TestBatchCapBoundary: the cap counts non-blank lines, whatever they
// hold — 10001 cheap lines are refused on every batch route, and
// exactly 10000 are admitted, each answered with its own error.
func TestBatchCapBoundary(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	lines := func(n int) string { return strings.Repeat("{}\n\n", n) }

	for _, route := range []string{"/v1/batch", "/v1/jobs/batch", "/v1/jobs/stream"} {
		resp, data := post(t, ts.URL+route, lines(maxBatchJobs+1))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413 (%.200s)", route, resp.StatusCode, data)
		}
	}

	resp, data := post(t, ts.URL+"/v1/batch", lines(maxBatchJobs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%.200s)", resp.StatusCode, data)
	}
	out := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(out) != maxBatchJobs {
		t.Fatalf("%d result lines, want %d", len(out), maxBatchJobs)
	}
	for i, line := range out {
		if !strings.Contains(line, `"error":`) {
			t.Fatalf("line %d carries no error: %s", i, line)
		}
	}
	if s.Metrics().JobsTotal != 0 {
		t.Fatal("undecodable lines must not run any jobs")
	}
}

// TestJobLinesMatchesDecodeJobs: the cap's line count is exactly the
// number of slots wire.DecodeJobs returns, for blank, whitespace-only,
// CRLF and unterminated lines alike.
func TestJobLinesMatchesDecodeJobs(t *testing.T) {
	for _, body := range []string{
		"",
		"\n\n",
		"{}",
		"{}\n",
		" \t\n{}\r\n\r\n{}",
		"{\"fixture\":\"g2\",\"deadline\":75}\n  \nnot json\n\v\f\n{}",
	} {
		wjobs, _, _ := wire.DecodeJobs([]byte(body))
		if got := jobLines([]byte(body)); got != len(wjobs) {
			t.Errorf("jobLines(%q) = %d, DecodeJobs gives %d slots", body, got, len(wjobs))
		}
	}
}

// TestBadBatchLinesNeverReachEngine: a batch line that fails to decode
// is answered with its own error on both batch routes without touching
// the engine — it is neither a served job nor a cache bypass.
func TestBadBatchLinesNeverReachEngine(t *testing.T) {
	const body = `{"name":"a","fixture":"g2","deadline":75}
{"name":"bad","fixture":"g9","deadline":75}
{"name":"c","fixture":"g3","deadline":230}
`
	for _, route := range []string{"/v1/batch", "/v1/jobs/stream?ordered=1"} {
		t.Run(route, func(t *testing.T) {
			s, ts := newJobsServer(t, Config{Workers: 2})
			resp, data := post(t, ts.URL+route, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != 3 {
				t.Fatalf("got %d result lines, want 3:\n%s", len(lines), data)
			}
			var bad wire.Result
			if err := json.Unmarshal([]byte(lines[1]), &bad); err != nil {
				t.Fatal(err)
			}
			if bad.Name != "bad" || !strings.Contains(bad.Error, `unknown fixture "g9"`) {
				t.Fatalf("bad line should carry its decode error: %s", lines[1])
			}
			m := s.Metrics()
			if m.JobsTotal != 2 || m.Cache.Bypasses != 0 {
				t.Fatalf("jobs_total = %d, bypasses = %d; want 2 and 0", m.JobsTotal, m.Cache.Bypasses)
			}
		})
	}
}

// TestFixturesEndpoint serves the shared registry.
func TestFixturesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts.URL+"/v1/fixtures")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var infos []taskgraph.FixtureInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "g2" || infos[1].Name != "g3" {
		t.Fatalf("unexpected registry: %+v", infos)
	}
	if infos[1].Tasks != 15 || len(infos[1].Deadlines) != 3 {
		t.Fatalf("g3 info wrong: %+v", infos[1])
	}
}

// TestHealthzAndMetrics: liveness plus counter plumbing.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	post(t, ts.URL+"/v1/schedule", `{"fixture":"g2","deadline":75}`)
	post(t, ts.URL+"/v1/schedule", `{"fixture":"g2","deadline":75}`)

	_, data = get(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	if snap.Requests["schedule"] != 2 || snap.Requests["healthz"] != 1 {
		t.Fatalf("request counters wrong: %+v", snap)
	}
	if snap.Cache == nil || snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Fatalf("cache counters wrong: %+v", snap.Cache)
	}
	if snap.JobsTotal != 2 || snap.InFlight != 0 {
		t.Fatalf("job/in-flight counters wrong: %+v", snap)
	}
}

// TestMethodNotAllowed: the method-scoped mux turns a GET on a POST
// route into a 405.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/v1/schedule")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestCloseFailsQueuedRequestsFast: once the server is draining, a
// request gets an immediate 503 instead of blocking graceful shutdown.
func TestCloseFailsQueuedRequestsFast(t *testing.T) {
	s := New(Config{})
	s.Close()
	s.Close() // idempotent

	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"fixture":"g2","deadline":75}`))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not fail fast after Close")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
}

// TestDrainRejectsEverySyncRequest: after Close, an idle server
// answers every sync request with 503 + Retry-After — never a race
// between a free slot and the drain that lets some requests run (and
// then fail as canceled) — and counts each one in `rejected`.
func TestDrainRejectsEverySyncRequest(t *testing.T) {
	s, ts := newTestServer(t)
	s.Close()
	const n = 50
	for _, route := range []string{"/v1/schedule", "/v1/batch"} {
		for i := 0; i < n; i++ {
			resp, data := post(t, ts.URL+route, `{"fixture":"g2","deadline":75}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s request %d after Close: status %d, want 503: %s", route, i, resp.StatusCode, data)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s request %d after Close: 503 without Retry-After", route, i)
			}
		}
	}
	m := s.Metrics()
	if m.Rejected != 2*n || m.JobsTotal != 0 {
		t.Fatalf("rejected = %d, jobs_total = %d; want %d and 0", m.Rejected, m.JobsTotal, 2*n)
	}
}

// TestAccessLog emits one JSON line per request with the load-bearing
// fields.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: log.New(&buf, "", 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts.URL+"/healthz")
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, line)
	}
	if rec["method"] != "GET" || rec["path"] != "/healthz" || rec["status"] != float64(200) {
		t.Fatalf("access log fields wrong: %v", rec)
	}
}
