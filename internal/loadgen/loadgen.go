// Package loadgen is the load-generation and SLO-verification harness
// behind cmd/battload: it drives a live battschedd's async job API with
// a configurable fleet of virtual clients (closed-loop concurrency or
// open-loop arrival rate, mixed priorities, optional duplicate
// submissions to exercise coalescing), records latency histograms for
// the submit, poll and end-to-end phases, and verifies the serving
// contract under load — every accepted job reaches exactly one terminal
// state, none are lost, none complete twice.
//
// The harness is deliberately client-shaped: it talks to the server
// over real HTTP (no shortcuts through internal state), so what it
// measures is what a user sees, and what it verifies is the wire
// contract. A run condenses into a Result that is checked against the
// serving contract and an SLO, and serialized as JSON. perfbench/, not
// this harness, is the repository's serving benchmark: loadgen's
// latency numbers gate SLOs in smoke runs and are not recorded.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Mode selects how virtual clients consume job results.
type Mode string

const (
	// ModePoll submits then polls GET /v1/jobs/{id} until terminal —
	// the REST-idiomatic path, and the one that measures poll latency.
	ModePoll Mode = "poll"
	// ModeStream submits then blocks on GET /v1/jobs/{id}/stream — one
	// long-poll connection per job instead of a poll loop.
	ModeStream Mode = "stream"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL roots the target server, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// Client is the HTTP client; nil builds one sized for Concurrency
	// (idle connection pool large enough that virtual clients do not
	// fight over two keep-alive sockets, the net/http default).
	Client *http.Client
	// Mode is poll (default) or stream.
	Mode Mode
	// Jobs is how many submissions the run makes in total. Required.
	Jobs int
	// Concurrency is the virtual-client fleet size. Required.
	Concurrency int
	// Rate, when positive, paces submissions to an open-loop target
	// arrival rate (submissions/second) across the whole fleet; 0 runs
	// closed-loop (each client submits as soon as its previous job
	// finished).
	Rate float64
	// PollInterval is the first poll's delay in ModePoll; subsequent
	// polls back off 1.5x up to MaxPollInterval. Defaults 2ms / 50ms.
	PollInterval    time.Duration
	MaxPollInterval time.Duration
	// NoRetry429 disables resubmitting admission-rejected jobs. By
	// default a 429/503 submission waits the server's Retry-After hint
	// (capped at 1s) and tries again, so backpressure sheds load
	// without losing it — the rejection still counts in the report.
	NoRetry429 bool
	// VerifyTerminal re-polls each job once after observing a terminal
	// state and counts a state change as a double completion. Cheap
	// (terminal polls are lookups) and on by default in battload's
	// assert mode; leave false for pure-throughput measurement.
	VerifyTerminal bool
	// VerifyBytes records each done job's result JSON keyed by job ID
	// and counts any later observation of the same ID whose bytes differ
	// — the determinism half of the serving contract. Duplicate
	// submissions (DupEvery) and chaos-driven resubmissions both
	// re-observe IDs, so this is what proves "byte-identical results"
	// under faults rather than assuming it.
	VerifyBytes bool
	// Resilient routes submissions and polls through internal/client's
	// retrying Client instead of raw HTTP: transport errors (a killed or
	// restarting server) and 429/503 rejections are absorbed with capped
	// deterministic backoff, and a job that vanishes mid-poll (a restart
	// wiped the in-memory queue) is resubmitted under its content
	// address. This is the mode chaos runs use — the contract should
	// hold through faults *because* the client is resilient.
	Resilient bool
	// ResilientAttempts / ResilientBackoff tune the embedded client
	// (defaults 8 attempts from 50ms: ~6s of cumulative patience, enough
	// to ride out a SIGKILL + restart).
	ResilientAttempts int
	ResilientBackoff  time.Duration
	// NewJob builds the i-th submission (0-based). Required. See
	// JobSpec for the standard deterministic generator.
	NewJob func(i int) wire.Job
	// SLO, when non-nil, is checked after the run; violations land in
	// Result.Violations.
	SLO *SLO
}

// runState is the shared accounting one run's workers feed.
type runState struct {
	submit, poll, e2e Hist

	attempted      atomic.Int64 // submissions started
	unsent         atomic.Int64 // ctx ended before the submission was attempted
	accepted       atomic.Int64 // submissions the queue admitted (or answered from retention)
	rejected       atomic.Int64 // 429 responses observed (incl. retried ones)
	unavailable    atomic.Int64 // 503 responses observed
	rejectedFinal  atomic.Int64 // submissions that gave up unadmitted (NoRetry429 or ctx ended mid-backoff)
	errorsFinal    atomic.Int64 // submissions that ended in a non-backpressure error
	done           atomic.Int64 // terminal: result delivered
	doneWithError  atomic.Int64 // subset of done whose result carries a scheduling error
	expired        atomic.Int64 // terminal: ttl_ms lapsed
	aborted        atomic.Int64 // terminal: aborted (drain or DELETE)
	lost           atomic.Int64 // accepted but no terminal state observed — the invariant violation
	doubleTerminal atomic.Int64 // terminal state changed after first observation — the other violation
	polls          atomic.Int64 // GET /v1/jobs/{id} requests issued
	resubmits      atomic.Int64 // resilient-mode resubmissions after a poll 404

	byteMismatch atomic.Int64 // same job ID observed with differing result bytes
	results      sync.Map     // job ID -> first observed result JSON (VerifyBytes)
}

// Run executes one load run and reports. The error is only for
// unusable configuration; server-side misbehavior is data, not an
// error — it lands in the Result for Verify and the SLO check.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: Config.BaseURL required")
	}
	if cfg.NewJob == nil {
		return nil, errors.New("loadgen: Config.NewJob required")
	}
	if cfg.Jobs <= 0 || cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("loadgen: Jobs (%d) and Concurrency (%d) must be positive", cfg.Jobs, cfg.Concurrency)
	}
	if cfg.Mode == "" {
		cfg.Mode = ModePoll
	}
	if cfg.Mode != ModePoll && cfg.Mode != ModeStream {
		return nil, fmt.Errorf("loadgen: unknown mode %q", cfg.Mode)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.MaxPollInterval < cfg.PollInterval {
		cfg.MaxPollInterval = 25 * cfg.PollInterval
	}
	httpc := cfg.Client
	if httpc == nil {
		httpc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        2 * cfg.Concurrency,
			MaxIdleConnsPerHost: 2 * cfg.Concurrency,
			IdleConnTimeout:     30 * time.Second,
		}}
	}

	var rc *client.Client
	if cfg.Resilient {
		attempts := cfg.ResilientAttempts
		if attempts <= 0 {
			attempts = 8
		}
		backoff := cfg.ResilientBackoff
		if backoff <= 0 {
			backoff = 50 * time.Millisecond
		}
		var err error
		rc, err = client.New(client.Config{
			BaseURL:     cfg.BaseURL,
			HTTPClient:  httpc,
			MaxAttempts: attempts,
			BaseBackoff: backoff,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
	}

	st := &runState{}
	var pace chan struct{}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	if cfg.Rate > 0 {
		pace = make(chan struct{}, cfg.Concurrency)
		go pacer(pctx, cfg.Rate, pace)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Jobs {
					return
				}
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						st.unsent.Add(1)
						continue // drain the remaining indexes as unsent
					}
				} else if ctx.Err() != nil {
					st.unsent.Add(1)
					continue
				}
				runOne(ctx, httpc, rc, cfg, st, i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)

	res := &Result{
		Mode:           string(cfg.Mode),
		Concurrency:    cfg.Concurrency,
		RateTarget:     cfg.Rate,
		Jobs:           cfg.Jobs,
		DurationMS:     ms(elapsed),
		Attempted:      st.attempted.Load(),
		Unsent:         st.unsent.Load(),
		Accepted:       st.accepted.Load(),
		Rejected:       st.rejected.Load(),
		Unavailable:    st.unavailable.Load(),
		RejectedFinal:  st.rejectedFinal.Load(),
		Errors:         st.errorsFinal.Load(),
		Done:           st.done.Load(),
		DoneWithError:  st.doneWithError.Load(),
		Expired:        st.expired.Load(),
		Aborted:        st.aborted.Load(),
		Lost:           st.lost.Load(),
		DoubleTerminal: st.doubleTerminal.Load(),
		ByteMismatch:   st.byteMismatch.Load(),
		Resubmits:      st.resubmits.Load(),
		Polls:          st.polls.Load(),
		Submit:         st.submit.Summary(),
		Poll:           st.poll.Summary(),
		E2E:            st.e2e.Summary(),
	}
	if rc != nil {
		cs := rc.Stats()
		res.Client = &cs
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.ThroughputJPS = float64(res.Done) / secs
	}
	if cfg.SLO != nil {
		res.Violations = cfg.SLO.check(res)
	}
	return res, nil
}

// pacer feeds tokens at the target rate. A millisecond tick with
// fractional accumulation holds rates from well under one to hundreds
// of thousands per second; tokens beyond the fleet's buffer are dropped
// (a fully busy closed fleet cannot absorb a higher arrival rate — the
// backlog would just hide in the channel).
func pacer(ctx context.Context, rate float64, out chan<- struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	acc := 0.0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			acc += rate / 1000
			for ; acc >= 1; acc-- {
				select {
				case out <- struct{}{}:
				default:
				}
			}
		}
	}
}

// runOne drives one submission through its whole lifecycle.
func runOne(ctx context.Context, httpc *http.Client, rc *client.Client, cfg Config, st *runState, i int) {
	st.attempted.Add(1)
	job := cfg.NewJob(i)
	if rc != nil {
		runOneResilient(ctx, rc, cfg, st, job)
		return
	}
	body, err := json.Marshal(job)
	if err != nil {
		st.errorsFinal.Add(1)
		return
	}
	begin := time.Now()
	status, ok := submit(ctx, httpc, cfg, st, body)
	if !ok {
		return // accounting already done
	}
	st.accepted.Add(1)

	if terminalState(status.State) {
		// Answered from retention (or raced to done): the submit round
		// trip was the whole journey.
		st.e2e.Observe(time.Since(begin))
		recordTerminal(ctx, rawStatus(httpc, cfg, st), cfg, st, status.ID, status.State, status.Result)
		return
	}
	switch cfg.Mode {
	case ModeStream:
		streamOne(ctx, httpc, cfg, st, status.ID, begin)
	default:
		pollOne(ctx, httpc, cfg, st, status.ID, begin)
	}
}

// runOneResilient is runOne on top of internal/client: the retrying
// client absorbs transport faults and backpressure; this loop only has
// to handle what retries cannot — a job ID the server no longer knows,
// which the content address makes safe to resubmit.
func runOneResilient(ctx context.Context, rc *client.Client, cfg Config, st *runState, job wire.Job) {
	begin := time.Now()
	t0 := time.Now()
	status, err := rc.Submit(ctx, job)
	if err != nil {
		var se *client.StatusError
		switch {
		case errors.As(err, &se) && se.Code == http.StatusTooManyRequests:
			st.rejected.Add(1)
			st.rejectedFinal.Add(1)
		case errors.As(err, &se) && se.Code == http.StatusServiceUnavailable:
			st.unavailable.Add(1)
			st.rejectedFinal.Add(1)
		default:
			st.errorsFinal.Add(1)
		}
		return
	}
	st.submit.Observe(time.Since(t0))
	st.accepted.Add(1)

	sf := resilientStatus(rc)
	if terminalState(status.State) {
		st.e2e.Observe(time.Since(begin))
		recordTerminal(ctx, sf, cfg, st, status.ID, status.State, status.Result)
		return
	}
	interval := cfg.PollInterval
	for {
		if !sleepCtx(ctx, interval) {
			st.lost.Add(1)
			return
		}
		p0 := time.Now()
		next, err := rc.Status(ctx, status.ID)
		st.polls.Add(1)
		st.poll.Observe(time.Since(p0))
		if client.IsNotFound(err) {
			// The server forgot the job: a restart wiped the in-memory
			// queue, or retention aged the terminal out between polls.
			// Resubmitting under the content address coalesces or
			// replays — never double-runs.
			st.resubmits.Add(1)
			next, err = rc.Submit(ctx, job)
		}
		if err != nil {
			// Retries are already spent inside the client; a submission
			// that still cannot reach the server is lost from where this
			// client stands.
			st.lost.Add(1)
			return
		}
		if terminalState(next.State) {
			st.e2e.Observe(time.Since(begin))
			recordTerminal(ctx, sf, cfg, st, status.ID, next.State, next.Result)
			return
		}
		if interval = interval * 3 / 2; interval > cfg.MaxPollInterval {
			interval = cfg.MaxPollInterval
		}
	}
}

// resilientStatus adapts the retrying client to the statusFunc shape
// recordTerminal's verification poll wants.
func resilientStatus(rc *client.Client) statusFunc {
	return func(ctx context.Context, id string) (wire.JobStatus, int, error) {
		status, err := rc.Status(ctx, id)
		if err != nil {
			var se *client.StatusError
			if errors.As(err, &se) {
				return status, se.Code, nil
			}
			return status, 0, err
		}
		return status, http.StatusOK, nil
	}
}

// submit POSTs the job until accepted, retrying backpressure rejections
// unless configured not to. ok=false means the submission ended here
// (already accounted).
func submit(ctx context.Context, httpc *http.Client, cfg Config, st *runState, body []byte) (wire.JobStatus, bool) {
	url := strings.TrimRight(cfg.BaseURL, "/") + "/v1/jobs"
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			st.errorsFinal.Add(1)
			return wire.JobStatus{}, false
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := httpc.Do(req)
		if err != nil {
			st.errorsFinal.Add(1)
			return wire.JobStatus{}, false
		}
		rb, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			st.submit.Observe(time.Since(t0))
			var status wire.JobStatus
			if rerr != nil || json.Unmarshal(rb, &status) != nil || status.ID == "" {
				st.errorsFinal.Add(1)
				return wire.JobStatus{}, false
			}
			return status, true
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				st.rejected.Add(1)
			} else {
				st.unavailable.Add(1)
			}
			if cfg.NoRetry429 {
				st.rejectedFinal.Add(1)
				return wire.JobStatus{}, false
			}
			if !sleepCtx(ctx, retryAfter(resp)) {
				st.rejectedFinal.Add(1)
				return wire.JobStatus{}, false
			}
		default:
			st.errorsFinal.Add(1)
			return wire.JobStatus{}, false
		}
	}
}

// retryAfter reads the server's backoff hint, capped to keep a stuck
// header from stalling the run.
func retryAfter(resp *http.Response) time.Duration {
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		d := time.Duration(s) * time.Second
		if d > time.Second {
			d = time.Second
		}
		return d
	}
	return 50 * time.Millisecond
}

// sleepCtx sleeps d or until ctx ends, reporting whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// pollOne polls the job until a terminal state, with backoff.
func pollOne(ctx context.Context, httpc *http.Client, cfg Config, st *runState, id string, begin time.Time) {
	interval := cfg.PollInterval
	for {
		if !sleepCtx(ctx, interval) {
			st.lost.Add(1)
			return
		}
		status, code, err := getStatus(ctx, httpc, cfg, st, id)
		if err != nil || code == http.StatusNotFound {
			// A job the server no longer knows (or a transport failure
			// that outlives one retry-at-next-interval) is a lost job
			// from where the client stands.
			if ctx.Err() != nil || code == http.StatusNotFound {
				st.lost.Add(1)
				return
			}
		} else if terminalState(status.State) {
			st.e2e.Observe(time.Since(begin))
			recordTerminal(ctx, rawStatus(httpc, cfg, st), cfg, st, id, status.State, status.Result)
			return
		}
		if interval = interval * 3 / 2; interval > cfg.MaxPollInterval {
			interval = cfg.MaxPollInterval
		}
	}
}

// getStatus is one poll round trip.
func getStatus(ctx context.Context, httpc *http.Client, cfg Config, st *runState, id string) (wire.JobStatus, int, error) {
	url := strings.TrimRight(cfg.BaseURL, "/") + "/v1/jobs/" + id
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return wire.JobStatus{}, 0, err
	}
	t0 := time.Now()
	resp, err := httpc.Do(req)
	if err != nil {
		return wire.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	st.polls.Add(1)
	st.poll.Observe(time.Since(t0))
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return wire.JobStatus{}, resp.StatusCode, nil
	}
	var status wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return wire.JobStatus{}, resp.StatusCode, err
	}
	return status, resp.StatusCode, nil
}

// streamOne blocks on the job's stream endpoint until its single
// terminal line arrives. More than one line is a double completion.
func streamOne(ctx context.Context, httpc *http.Client, cfg Config, st *runState, id string, begin time.Time) {
	url := strings.TrimRight(cfg.BaseURL, "/") + "/v1/jobs/" + id + "/stream"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		st.lost.Add(1)
		return
	}
	resp, err := httpc.Do(req)
	if err != nil {
		st.lost.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		st.lost.Add(1)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<24)
	lines := 0
	var line wire.Result
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if lines == 0 {
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				st.errorsFinal.Add(1)
				return
			}
		}
		lines++
	}
	if lines == 0 {
		st.lost.Add(1)
		return
	}
	if lines > 1 {
		st.doubleTerminal.Add(1)
	}
	st.e2e.Observe(time.Since(begin))
	state := wire.StateDone
	switch line.Code {
	case wire.CodeExpired:
		state = wire.StateExpired
	case wire.CodeAborted:
		state = wire.StateAborted
	}
	var res *wire.Result
	if state == wire.StateDone {
		res = &line
	}
	recordTerminal(ctx, rawStatus(httpc, cfg, st), cfg, st, id, state, res)
}

// statusFunc is one status lookup: the raw poll or the resilient
// client's, so recordTerminal's verification re-poll works in both
// modes.
type statusFunc func(ctx context.Context, id string) (wire.JobStatus, int, error)

// rawStatus adapts getStatus to the statusFunc shape.
func rawStatus(httpc *http.Client, cfg Config, st *runState) statusFunc {
	return func(ctx context.Context, id string) (wire.JobStatus, int, error) {
		return getStatus(ctx, httpc, cfg, st, id)
	}
}

// recordTerminal counts a terminal observation and, when verification
// is on, confirms the state held: a job observed done must still be
// done one poll later — anything else is a second completion. With
// VerifyBytes it also pins the result bytes per job ID: a second
// observation of the same ID (a duplicate submission, a chaos
// resubmission) must carry byte-identical JSON.
func recordTerminal(ctx context.Context, sf statusFunc, cfg Config, st *runState, id, state string, res *wire.Result) {
	switch state {
	case wire.StateDone:
		st.done.Add(1)
		if res != nil && res.Error != "" {
			st.doneWithError.Add(1)
		}
		if cfg.VerifyBytes && res != nil {
			b, err := json.Marshal(res)
			if err == nil {
				if prev, loaded := st.results.LoadOrStore(id, string(b)); loaded && prev.(string) != string(b) {
					st.byteMismatch.Add(1)
				}
			}
		}
	case wire.StateExpired:
		st.expired.Add(1)
	case wire.StateAborted:
		st.aborted.Add(1)
	default:
		st.doubleTerminal.Add(1) // a "terminal" we do not recognize is corrupt state
		return
	}
	if !cfg.VerifyTerminal {
		return
	}
	again, code, err := sf(ctx, id)
	if err != nil || code != http.StatusOK {
		return // retention pruning or shutdown; absence is not a second state
	}
	if again.State != state {
		st.doubleTerminal.Add(1)
	}
}

// terminalState mirrors wire's terminal set.
func terminalState(s string) bool {
	return s == wire.StateDone || s == wire.StateExpired || s == wire.StateAborted
}
