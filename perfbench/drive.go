package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// client speaks to one daemon over loopback HTTP with at most two
// connections — the machine has two CPUs, and more clients would
// measure the OS scheduler instead of the program.
type client struct {
	hc   *http.Client
	base string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// send issues one workload request and returns the result line of each
// of its jobs, in order. Async jobs are submitted and then read from
// their stream, so the answer arrives the moment the job is terminal.
func (c *client) send(req request) ([][]byte, error) {
	status, body, err := c.do(http.MethodPost, req.path, req.body)
	if err != nil {
		return nil, err
	}
	switch req.path {
	case "/v1/schedule":
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d: %s", req.path, status, body)
		}
		return [][]byte{body}, nil
	case "/v1/batch":
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d: %s", req.path, status, body)
		}
		lines := splitLines(body)
		if len(lines) != len(req.jobs) {
			return nil, fmt.Errorf("POST %s: %d result lines for %d jobs", req.path, len(lines), len(req.jobs))
		}
		return lines, nil
	case "/v1/jobs":
		if status != http.StatusAccepted && status != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d: %s", req.path, status, body)
		}
		var st wire.JobStatus
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			return nil, fmt.Errorf("POST %s: undecodable job status %q", req.path, body)
		}
		status, body, err = c.do(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET stream %s: status %d: %s", st.ID, status, body)
		}
		return [][]byte{body}, nil
	}
	return nil, fmt.Errorf("no client for %s", req.path)
}

// memo holds the known answers of recurring jobs (see jobRef.memo):
// the first answer is checked in full, every later one must repeat it
// byte for byte.
type memo struct {
	mu    sync.Mutex
	lines [][]byte
	costs []float64
}

func newMemo(n int) *memo { return &memo{lines: make([][]byte, n), costs: make([]float64, n)} }

// check verifies one job's answer, returning its cost σ.
func (m *memo) check(ref jobRef, line []byte) (float64, error) {
	if ref.memo < 0 {
		return checkResult(ref, line)
	}
	m.mu.Lock()
	known, cost := m.lines[ref.memo], m.costs[ref.memo]
	m.mu.Unlock()
	if known != nil {
		if !bytes.Equal(known, line) {
			return 0, fmt.Errorf("answer to recurring job %d changed", ref.memo)
		}
		return cost, nil
	}
	cost, err := checkResult(ref, line)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.lines[ref.memo], m.costs[ref.memo] = append([]byte(nil), line...), cost
	m.mu.Unlock()
	return cost, nil
}

// op is the outcome of one timed request.
type op struct {
	pos   int
	start time.Duration // since the phase began
	lat   time.Duration
	jobs  int
	costs []float64 // per job, on success
	err   error
}

// sampled is a request kept, with its answer, for the in-process
// byte-identity check after timing.
type sampled struct {
	pos   int
	req   request
	lines [][]byte
}

// phase is a closed-loop run of the timed request sequence.
type phase struct {
	ops    []op
	wall   time.Duration
	sample []sampled
}

// runPhase drives the sequence from position first with `clients`
// closed-loop clients until both dur has passed since start and every
// position below first+minPositions has been sent. Positions below
// first+keep are kept for the byte-identity check.
func runPhase(c *client, m *memo, next func(pos int) request, first, minPositions, keep, clients int, start time.Time, dur time.Duration) phase {
	var (
		claim atomic.Int64
		mu    sync.Mutex
		ph    phase
		wg    sync.WaitGroup
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []op
			for {
				i := int(claim.Add(1) - 1)
				if i >= minPositions && time.Since(start) >= dur {
					break
				}
				pos := first + i
				req := next(pos)
				t0 := time.Now()
				lines, err := c.send(req)
				o := op{pos: pos, start: t0.Sub(start), lat: time.Since(t0), jobs: len(req.jobs), err: err}
				if err == nil {
					o.costs = make([]float64, len(req.jobs))
					for j, ref := range req.jobs {
						if o.costs[j], err = m.check(ref, lines[j]); err != nil {
							o.err = fmt.Errorf("position %d job %d: %w", pos, j, err)
							break
						}
					}
				}
				if i < keep && o.err == nil {
					mu.Lock()
					ph.sample = append(ph.sample, sampled{pos: pos, req: req, lines: lines})
					mu.Unlock()
				}
				ops = append(ops, o)
			}
			mu.Lock()
			ph.ops = append(ph.ops, ops...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	sort.Slice(ph.ops, func(a, b int) bool { return ph.ops[a].pos < ph.ops[b].pos })
	sort.Slice(ph.sample, func(a, b int) bool { return ph.sample[a].pos < ph.sample[b].pos })
	return ph
}

// warm sends positions [0, n) one at a time; any failure is fatal, since
// set-up that fails leaves nothing meaningful to time.
func warm(c *client, m *memo, next func(pos int) request, n int) error {
	for pos := 0; pos < n; pos++ {
		req := next(pos)
		lines, err := c.send(req)
		if err != nil {
			return fmt.Errorf("warm-up position %d: %w", pos, err)
		}
		for j, ref := range req.jobs {
			if _, err := m.check(ref, lines[j]); err != nil {
				return fmt.Errorf("warm-up position %d job %d: %w", pos, j, err)
			}
		}
	}
	return nil
}

// metrics reads the daemon's GET /metrics counters.
func (c *client) metrics() (serverMetrics, error) {
	var m serverMetrics
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", status)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// serverMetrics is the part of the daemon's /metrics body the benchmark
// uses to confirm each workload exercised the path it claims to.
type serverMetrics struct {
	Cache *struct {
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Dedups   uint64 `json:"dedups"`
		DiskHits uint64 `json:"disk_hits"`
	} `json:"cache"`
	JobsAsync struct {
		Coalesced uint64 `json:"coalesced"`
	} `json:"jobs_async"`
}

var errNoCache = errors.New("daemon reports no cache")
