package server

// The cross-route differential oracle: one seeded corpus of jobs goes
// through every route a job can take to a result, and every route must
// produce the same result bytes for the same job. Only the fields that
// describe the request rather than the job — its batch index and the
// name the submitter attached — may differ, and they are normalized
// away before comparing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/taskgraph"
	"repro/internal/wire"
)

// routeCorpus returns the oracle's job lines: g2, g3 and one seeded
// inline graph, under the iterative, multistart, withidle and rv-dp
// strategies, costed under every battery kind. Each line is named, so
// the routes that echo names and the ones that cannot (polling by id)
// are both exercised.
func routeCorpus(t *testing.T) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var fastest float64
	g, err := taskgraph.Random(rng, 12, 0.3, func(int) []taskgraph.DesignPoint {
		c, d := 100+400*rng.Float64(), 1+9*rng.Float64()
		fastest += d
		return []taskgraph.DesignPoint{
			{Current: c, Time: d},
			{Current: 0.6 * c, Time: 1.5 * d},
			{Current: 0.35 * c, Time: 2.2 * d},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := json.Marshal(g.ToSpec("random12"))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct{ name, field string }{
		{"g2", `"fixture":"g2","deadline":75`},
		{"g3", `"fixture":"g3","deadline":230`},
		{"random12", fmt.Sprintf(`"graph":%s,"deadline":%g`, inline, 1.5*fastest)},
	}
	strategies := []struct{ name, field string }{
		{"iterative", `"strategy":"iterative"`},
		{"multistart", `"strategy":"multistart","restarts":3,"seed":5`},
		{"withidle", `"strategy":"withidle"`},
		{"rv-dp", `"strategy":"rv-dp"`},
	}
	batteries := []struct{ name, field string }{
		{"rakhmatov", `"battery":{"kind":"rakhmatov","beta":0.35}`},
		{"ideal", `"battery":{"kind":"ideal"}`},
		{"peukert", `"battery":{"kind":"peukert","exponent":1.2}`},
		{"kibam", `"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}`},
		{"calibrated", `"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478},{"current":200,"lifetime":228.9}]}`},
	}
	var lines []string
	for _, g := range graphs {
		for _, s := range strategies {
			for _, b := range batteries {
				lines = append(lines, fmt.Sprintf(`{"name":"%s/%s/%s",%s,%s,%s}`,
					g.name, s.name, b.name, g.field, s.field, b.field))
			}
		}
	}
	return lines
}

// requestFields matches the start of an encoded wire.Result: the index
// and the optional name, the only fields that depend on the request.
var requestFields = regexp.MustCompile(`^\{"index":\d+,(?:"name":"[^"]*",)?`)

// normalize strips a result line down to the job's own bytes.
func normalize(t *testing.T, line []byte) string {
	t.Helper()
	line = bytes.TrimSpace(line)
	if !requestFields.Match(line) {
		t.Fatalf("not a result line: %s", line)
	}
	return string(requestFields.ReplaceAll(line, []byte(`{"index":0,`)))
}

// resultLines splits an NDJSON response into normalized results, placed
// by their index (so out-of-order streams line up).
func resultLines(t *testing.T, data []byte, n int) []string {
	t.Helper()
	out := make([]string, n)
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r wire.Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		if r.Index < 0 || r.Index >= n || out[r.Index] != "" {
			t.Fatalf("result index %d out of range or repeated: %s", r.Index, line)
		}
		out[r.Index] = normalize(t, line)
	}
	return out
}

// submitted posts every line to /v1/jobs and returns the job ids.
func submitted(t *testing.T, url string, lines []string) []string {
	t.Helper()
	ids := make([]string, len(lines))
	for i, line := range lines {
		st, resp := submitJob(t, url, line)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}
	return ids
}

// routes maps each route to a function that serves the corpus through
// it on a fresh server and returns one normalized result per line.
var routes = []struct {
	name  string
	serve func(t *testing.T, lines []string) []string
}{
	{"POST /v1/schedule", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		out := make([]string, len(lines))
		for i, line := range lines {
			_, data := post(t, ts.URL+"/v1/schedule", line)
			out[i] = normalize(t, data)
		}
		return out
	}},
	{"POST /v1/batch", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		_, data := post(t, ts.URL+"/v1/batch", strings.Join(lines, "\n"))
		return resultLines(t, data, len(lines))
	}},
	{"POST /v1/jobs + poll", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		out := make([]string, len(lines))
		for i, id := range submitted(t, ts.URL, lines) {
			pollUntil(t, ts.URL, id, terminal)
			_, data := get(t, ts.URL+"/v1/jobs/"+id)
			var st struct {
				State  string          `json:"state"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(data, &st); err != nil || st.State != wire.StateDone {
				t.Fatalf("poll %d: %v %s", i, err, data)
			}
			out[i] = normalize(t, st.Result)
		}
		return out
	}},
	{"GET /v1/jobs/{id}/stream", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		out := make([]string, len(lines))
		for i, id := range submitted(t, ts.URL, lines) {
			_, data := get(t, ts.URL+"/v1/jobs/"+id+"/stream")
			out[i] = normalize(t, data)
		}
		return out
	}},
	{"POST /v1/jobs/stream", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		_, data := post(t, ts.URL+"/v1/jobs/stream", strings.Join(lines, "\n"))
		return resultLines(t, data, len(lines))
	}},
	{"POST /v1/jobs/stream?ordered=1", func(t *testing.T, lines []string) []string {
		_, ts := newJobsServer(t, Config{Workers: 2})
		_, data := post(t, ts.URL+"/v1/jobs/stream?ordered=1", strings.Join(lines, "\n"))
		return resultLines(t, data, len(lines))
	}},
	{"warm start from disk", func(t *testing.T, lines []string) []string {
		dir := t.TempDir()
		st1, _ := openStore(t, dir)
		s1, ts1 := newJobsServer(t, Config{Workers: 2, CacheStore: st1})
		post(t, ts1.URL+"/v1/batch", strings.Join(lines, "\n"))
		ts1.Close()
		s1.Close()

		st2, _ := openStore(t, dir)
		s2, ts2 := newJobsServer(t, Config{Workers: 2, CacheStore: st2})
		out := make([]string, len(lines))
		for i, line := range lines {
			_, data := post(t, ts2.URL+"/v1/schedule", line)
			out[i] = normalize(t, data)
		}
		if cs := s2.Cache().Stats(); cs.Misses != 0 || cs.DiskHits != uint64(len(lines)) {
			t.Fatalf("warm server did not answer from disk: %+v", cs)
		}
		return out
	}},
	{"cache.Engine", func(t *testing.T, lines []string) []string {
		wjobs, jobs, errs := wire.DecodeJobs([]byte(strings.Join(lines, "\n")))
		ce := cache.Engine{Workers: 2}
		results, _ := ce.RunBatchContext(context.Background(), jobs)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range wire.Results(wjobs, results, errs) {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return resultLines(t, buf.Bytes(), len(lines))
	}},
}

// TestRoutesByteIdentical is the oracle: every route yields the same
// result bytes for every job in the corpus.
func TestRoutesByteIdentical(t *testing.T) {
	lines := routeCorpus(t)
	want := routes[0].serve(t, lines)
	for i, got := range want {
		var r wire.Result
		if err := json.Unmarshal([]byte(got), &r); err != nil || r.Error != "" || r.Cost <= 0 {
			t.Fatalf("corpus job %d must schedule cleanly: %v %s", i, err, got)
		}
	}
	for _, route := range routes[1:] {
		t.Run(route.name, func(t *testing.T) {
			got := route.serve(t, lines)
			for i := range lines {
				if got[i] != want[i] {
					t.Errorf("job %d (%s) differs from %s:\n got: %s\nwant: %s",
						i, lines[i][:strings.Index(lines[i], ",")], routes[0].name, got[i], want[i])
				}
			}
		})
	}
}
