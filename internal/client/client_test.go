package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wire"
)

// newRealServer spins up the actual battschedd serving stack.
func newRealServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastBackoff keeps test retries in the milliseconds.
func fastBackoff(base string, httpc *http.Client) Config {
	return Config{
		BaseURL:     base,
		HTTPClient:  httpc,
		MaxAttempts: 5,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
}

func testJob() wire.Job {
	return wire.Job{Fixture: "g3", Deadline: 230, Strategy: "iterative"}
}

func TestJitterDeterministic(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		a := jitter("somekey", attempt)
		b := jitter("somekey", attempt)
		if a != b {
			t.Fatalf("jitter(somekey,%d) varies: %v vs %v", attempt, a, b)
		}
		if a < 0.5 || a >= 1.0 {
			t.Fatalf("jitter(somekey,%d) = %v, want [0.5,1.0)", attempt, a)
		}
	}
	if jitter("a", 0) == jitter("b", 0) && jitter("a", 1) == jitter("b", 1) {
		t.Error("jitter does not spread across keys")
	}
}

// TestSubmitRetriesTransportFault: a connection-reset-shaped failure
// on the first attempt is absorbed; the second attempt answers.
func TestSubmitRetriesTransportFault(t *testing.T) {
	_, ts := newRealServer(t, server.Config{})
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpRoundTrip, Nth: 1, Err: syscall.ECONNRESET})
	c := newClient(t, fastBackoff(ts.URL, &http.Client{Transport: &fault.Transport{Injector: in}}))

	status, err := c.Submit(context.Background(), testJob())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if status.ID == "" {
		t.Fatalf("status: %+v", status)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Attempts != 2 {
		t.Errorf("stats = %+v, want 1 retry / 2 attempts", st)
	}
}

// TestSubmitRetries503And429: synthesized backpressure responses with
// Retry-After are retried and the header honored (counted).
func TestSubmitRetries503And429(t *testing.T) {
	_, ts := newRealServer(t, server.Config{})
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpRoundTrip, Nth: 1, Status: 503},
		fault.Rule{Op: fault.OpRoundTrip, Nth: 2, Status: 429})
	c := newClient(t, fastBackoff(ts.URL, &http.Client{Transport: &fault.Transport{Injector: in}}))

	start := time.Now()
	status, err := c.Submit(context.Background(), testJob())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if status.ID == "" {
		t.Fatalf("status: %+v", status)
	}
	st := c.Stats()
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
	if st.RetryAfter != 2 {
		t.Errorf("retry_after_honored = %d, want 2", st.RetryAfter)
	}
	// The injected Retry-After is 1s and must floor the wait: two
	// honored headers mean >= 2s of waiting.
	if d := time.Since(start); d < 2*time.Second {
		t.Errorf("call took %v, want >= 2s (Retry-After floors the backoff)", d)
	}
}

// TestNoRetryOn400: a malformed request fails once, immediately.
func TestNoRetryOn400(t *testing.T) {
	_, ts := newRealServer(t, server.Config{})
	c := newClient(t, fastBackoff(ts.URL, nil))

	_, err := c.Submit(context.Background(), wire.Job{Fixture: "no-such-fixture", Deadline: 1, Strategy: "iterative"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if st := c.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want exactly one attempt", st)
	}
}

// TestDrainRejectionsRetryAndExhaust: a draining server answers 503 +
// Retry-After everywhere; the client retries (honoring the header
// absent a healthy replica to land on) and surfaces the 503 once
// attempts exhaust — never hangs, never mislabels it permanent.
func TestDrainRejectionsRetryAndExhaust(t *testing.T) {
	srv, ts := newRealServer(t, server.Config{})
	srv.Close()

	c := newClient(t, Config{
		BaseURL:     ts.URL,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	_, err := c.Submit(context.Background(), testJob())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503", err)
	}
	st := c.Stats()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 retry", st)
	}
	if st.RetryAfter != 1 {
		t.Errorf("retry_after_honored = %d, want 1 (drain 503 carries the header)", st.RetryAfter)
	}
}

// TestDeadlinePropagation: a latency fault longer than the caller's
// deadline aborts the call at the deadline, not after the full wait.
func TestDeadlinePropagation(t *testing.T) {
	_, ts := newRealServer(t, server.Config{})
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpRoundTrip, Every: 1, Delay: 2 * time.Second})
	c := newClient(t, fastBackoff(ts.URL, &http.Client{Transport: &fault.Transport{Injector: in}}))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, testJob())
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("call took %v, want ~50ms (deadline must cut the injected delay short)", d)
	}
}

// TestQueueFullRetryAfter: the real server's 429 (queue full) carries
// Retry-After and the client honors it — the async-submit leg of the
// Retry-After sweep.
func TestQueueFullRetryAfter(t *testing.T) {
	// Workers=1 + a queue of 1: one slow multistart occupies the lone
	// worker, one fills the lone queue slot, then distinct submissions
	// start bouncing with 429.
	_, ts := newRealServer(t, server.Config{
		Workers: 1, QueueWorkers: 1, MaxQueued: 1,
	})
	c := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 1})

	slow := func(seed int) wire.Job {
		return wire.Job{Fixture: "g3", Deadline: 230, Strategy: "multistart", Restarts: 4000, Seed: int64(seed)}
	}
	var got429 bool
	for i := 1; i < 12 && !got429; i++ {
		_, err := c.Submit(context.Background(), slow(i))
		var se *StatusError
		if errors.As(err, &se) {
			if se.Code != http.StatusTooManyRequests {
				t.Fatalf("submit %d: err = %v, want 429", i, err)
			}
			got429 = true
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !got429 {
		t.Fatal("queue of capacity 1 accepted 11 slow submissions without a 429")
	}

	// The queue is full right now; a retrying client's first attempt
	// bounces and the wait must honor the server's Retry-After: 1 floor
	// (the client's own backoff here is single-digit milliseconds).
	c2 := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	start := time.Now()
	c2.Submit(context.Background(), slow(99))
	if st := c2.Stats(); st.RetryAfter != 1 {
		t.Errorf("retry_after_honored = %d, want 1 (429 carries the header)", st.RetryAfter)
	}
	if d := time.Since(start); d < time.Second {
		t.Errorf("retried 429 took %v, want >= 1s (honoring Retry-After: 1)", d)
	}
}
