package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestTailRule(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.90, true}, {99, 0.90, false}, {5000, 0.5, true},
	} {
		err := tailProblem(sorted(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("n=%d q=%g: tailProblem = %v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, above := percentile(sorted(1000), 0.99); v != 989 || above != 10 {
		t.Errorf("p99 of 0..999 = %g with %d above, want 989 with 10", v, above)
	}
}

// stubDaemon answers POST /v1/schedule with answer(body).
func stubDaemon(t *testing.T, answer func(body []byte) (int, []byte)) *client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		status, out := answer(body)
		w.WriteHeader(status)
		w.Write(out)
	}))
	t.Cleanup(ts.Close)
	return &client{hc: newHTTPClient(), base: ts.URL}
}

// TestFailuresAreCounted drives a stub daemon that answers correctly,
// with a 500, or with a wrong result, and checks only correct answers
// count as done.
func TestFailuresAreCounted(t *testing.T) {
	corpus := hotCorpus(5)[:4]
	correct := func(body []byte) (int, []byte) {
		lines, err := inProcess(request{path: "/v1/schedule", body: body})
		if err != nil {
			t.Error(err)
			return http.StatusInternalServerError, nil
		}
		return http.StatusOK, lines[0]
	}
	// wrongResult keeps the shape of a real answer but swaps the first
	// two tasks, which breaks the topological order.
	wrongResult := func(body []byte) (int, []byte) {
		_, out := correct(body)
		var res wire.Result
		json.Unmarshal(out, &res)
		res.Order[0], res.Order[1] = res.Order[1], res.Order[0]
		return http.StatusOK, mustJSON(res)
	}
	slowDeadline := func(body []byte) (int, []byte) {
		_, out := correct(body)
		var res wire.Result
		json.Unmarshal(out, &res)
		for id := range res.Assignment {
			res.Assignment[id] = 4 // slowest design point everywhere
		}
		return http.StatusOK, mustJSON(res)
	}
	for _, c := range []struct {
		name   string
		answer func([]byte) (int, []byte)
		ok     bool
	}{
		{"correct", correct, true},
		{"status 500", func([]byte) (int, []byte) { return http.StatusInternalServerError, []byte(`{"error":"boom"}`) }, false},
		{"wrong order", wrongResult, false},
		{"deadline missed", slowDeadline, false},
		{"not json", func([]byte) (int, []byte) { return http.StatusOK, []byte("{") }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := stubDaemon(t, c.answer)
			next := func(pos int) request { return corpus[pos%len(corpus)] }
			ph := runPhase(cl, newMemo(hotGraphs), next, 0, 8, 2, 1, time.Now(), time.Millisecond)
			failed := 0
			for _, o := range ph.ops {
				if o.err != nil {
					failed++
				}
			}
			if len(ph.ops) < 8 {
				t.Fatalf("%d operations, want at least 8", len(ph.ops))
			}
			if c.ok && failed != 0 {
				t.Fatalf("%d of %d correct answers counted as failed: %v", failed, len(ph.ops), ph.ops[0].err)
			}
			if !c.ok && failed != len(ph.ops) {
				t.Fatalf("%d of %d bad answers counted as failed", failed, len(ph.ops))
			}
			if c.ok {
				if err := checkSample(ph.sample); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestChangedAnswerFails checks a recurring job must be answered with
// the same bytes every time.
func TestChangedAnswerFails(t *testing.T) {
	req := hotCorpus(5)[0]
	lines, err := inProcess(req)
	if err != nil {
		t.Fatal(err)
	}
	m := newMemo(hotGraphs)
	if _, err := m.check(req.jobs[0], lines[0]); err != nil {
		t.Fatal(err)
	}
	changed := bytes.Replace(lines[0], []byte(`"index":0`), []byte(`"index":0 `), 1)
	if _, err := m.check(req.jobs[0], changed); err == nil {
		t.Fatal("a changed answer to a recurring job passed")
	}
}

func TestQuietWindowsKeepTheLeastStolenHalf(t *testing.T) {
	var ws []hostWindow
	for i, steal := range []float64{3, 0, 5, 0, 1} {
		ws = append(ws, hostWindow{from: time.Duration(i) * time.Second, to: time.Duration(i+1) * time.Second, stealPct: steal})
	}
	q := quietWindows(ws)
	if len(q) != 3 || q[0].from != time.Second || q[1].from != 3*time.Second || q[2].from != 4*time.Second {
		t.Fatalf("quiet windows %v, want the ones starting at 1s, 3s and 4s", q)
	}
	if within(q, 2500*time.Millisecond) || !within(q, 3500*time.Millisecond) {
		t.Fatal("within misplaces a time")
	}
}
