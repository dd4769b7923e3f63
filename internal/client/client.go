// Package client is the resilient Go client for the battschedd HTTP
// API: the piece that turns the server's backpressure and fault
// contracts into something a caller can lean on without writing a retry
// loop of their own. It offers the async API's submit (Submit) and
// poll (Status) calls and its own resilience counters (Stats);
// loadgen's resilient mode builds its job loop on them.
//
// The retry discipline:
//
//   - Only idempotent operations retry. Both calls are idempotent by
//     construction — a job's identity is the SHA-256 content address
//     of its canonical request, so resubmitting the same job coalesces
//     onto the same computation server-side, and GET is idempotent by
//     HTTP semantics. A client for a different API should not copy
//     this blanket policy; it is earned by the content addressing, not
//     assumed.
//   - Transport errors (connection refused/reset — the shape of a
//     crashed or restarting server) and 429/503 rejections retry with
//     capped exponential backoff. A Retry-After header, when present,
//     is honored as the floor of the wait: the server knows its drain
//     and queue state better than any client-side guess.
//   - Backoff jitter is deterministic — an FNV-1a hash of (key,
//     attempt) spreads concurrent clients apart without a PRNG, the
//     same no-randomness discipline as the rest of the repository, so
//     a failing run replays exactly.
//   - Deadlines propagate: every request carries the caller's context,
//     and backoff sleeps abort the moment the context dies. The context
//     is the total budget across all attempts.
//   - Other 4xx responses never retry: the request itself is wrong, and
//     the same bytes will fail the same way. A 404 from Status means
//     the server no longer knows the job (IsNotFound); resubmitting it
//     is the caller's call, and safe because of the content address.
//
//battlint:deterministic
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Config tunes a Client. The zero value (plus a BaseURL) is usable.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Required.
	BaseURL string
	// HTTPClient performs the requests; nil means http.DefaultClient.
	// Fault tests inject a fault.Transport here.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per logical call (first try + retries);
	// 0 means DefaultMaxAttempts. The caller's context deadline is the
	// other bound — whichever ends first.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal wait; 0 means
	// DefaultBaseBackoff. Attempt k waits min(BaseBackoff<<k, MaxBackoff)
	// scaled by the deterministic jitter, or Retry-After when larger.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means DefaultMaxBackoff.
	MaxBackoff time.Duration
}

// Client defaults: four attempts ride out a restart without stretching
// a genuinely-down server past ~1s of waiting; 100ms–5s spans the gap
// between a queue-full blip and a drain.
const (
	DefaultMaxAttempts = 4
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Stats counts what the client absorbed so harnesses can prove the
// resilience was exercised, not just survived.
type Stats struct {
	// Attempts counts every HTTP request sent, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts requests that were re-sent after a retryable
	// failure (transport error, 429, 503).
	Retries uint64 `json:"retries"`
	// RetryAfter counts retries whose wait honored a server Retry-After
	// header rather than the client's own backoff.
	RetryAfter uint64 `json:"retry_after_honored"`
}

// Client is a resilient battschedd API client. Safe for concurrent use.
type Client struct {
	cfg Config

	attempts   atomic.Uint64
	retries    atomic.Uint64
	retryAfter atomic.Uint64
}

// New builds a client; Config.BaseURL must be set.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	return &Client{cfg: cfg}, nil
}

// Stats snapshots the resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:   c.attempts.Load(),
		Retries:    c.retries.Load(),
		RetryAfter: c.retryAfter.Load(),
	}
}

// StatusError is a non-retryable (or retries-exhausted) HTTP failure:
// the status code plus the server's error envelope.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Msg)
}

// retryable reports whether a response status is worth another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// jitter maps (key, attempt) to a deterministic factor in [0.5, 1.0):
// enough spread to de-synchronize a fleet of clients retrying the same
// moment, with no PRNG — the same inputs always wait the same time.
func jitter(key string, attempt int) float64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	fmt.Fprintf(h, "#%d", attempt)
	return 0.5 + float64(h.Sum64()%1024)/2048
}

// backoff computes attempt's wait (0-based: the wait before attempt+1).
func (c *Client) backoff(key string, attempt int) time.Duration {
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff || d <= 0 { // <<'s overflow guard
		d = c.cfg.MaxBackoff
	}
	return time.Duration(float64(d) * jitter(key, attempt))
}

// sleep waits for d or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterOf parses a Retry-After header (seconds form) from resp;
// 0 when absent or unparsable.
func retryAfterOf(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	s, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || s <= 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// doRetry performs one logical call: up to MaxAttempts requests with
// backoff between them, honoring Retry-After, bounded by ctx. body may
// be nil (GET/DELETE); key seeds the deterministic jitter — callers
// pass the job's content address or the resource id, so identical
// retried work backs off identically. On success the decoded JSON body
// lands in out (when non-nil). Non-retryable statuses return a
// *StatusError immediately.
func (c *Client) doRetry(ctx context.Context, method, path, key string, body []byte, out any) error {
	httpc := c.cfg.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		// After the last attempt there is no retry to pace, so its
		// failure exits immediately — no sleep, no Retry-After honor.
		last := attempt == c.cfg.MaxAttempts-1
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		c.attempts.Add(1)
		resp, err := httpc.Do(req)
		if err != nil {
			// Transport-level failure: the shape of a dead, restarting
			// or fault-injected server. Retry unless the caller's
			// context is the reason.
			if ctx.Err() != nil {
				return fmt.Errorf("client: %w", ctx.Err())
			}
			lastErr = fmt.Errorf("client: %w", err)
			if last {
				continue
			}
			if serr := sleep(ctx, c.backoff(key, attempt)); serr != nil {
				return fmt.Errorf("client: %w", serr)
			}
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			lastErr = fmt.Errorf("client: reading response: %w", rerr)
			if last {
				continue
			}
			if serr := sleep(ctx, c.backoff(key, attempt)); serr != nil {
				return fmt.Errorf("client: %w", serr)
			}
			continue
		}
		if retryable(resp.StatusCode) {
			lastErr = &StatusError{Code: resp.StatusCode, Msg: errorMsg(data)}
			if last {
				continue
			}
			wait := c.backoff(key, attempt)
			if ra := retryAfterOf(resp); ra > 0 {
				c.retryAfter.Add(1)
				if ra > wait {
					wait = ra
				}
			}
			if serr := sleep(ctx, wait); serr != nil {
				return fmt.Errorf("client: %w", serr)
			}
			continue
		}
		if resp.StatusCode >= 400 {
			return &StatusError{Code: resp.StatusCode, Msg: errorMsg(data)}
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decoding %s response: %w", path, err)
			}
		}
		return nil
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// errorMsg extracts the server's {"error": ...} envelope, falling back
// to the raw body.
func errorMsg(data []byte) string {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error != "" {
		return env.Error
	}
	return string(data)
}

// Submit enqueues one async job: POST /v1/jobs with retry. The returned
// status carries the job's content-addressed ID for polling.
func (c *Client) Submit(ctx context.Context, job wire.Job) (wire.JobStatus, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return wire.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	// The canonical JSON bytes key the jitter in place of the content
	// address (the server computes the true SHA-256 ID; equal jobs get
	// equal keys either way, which is all the jitter needs).
	var st wire.JobStatus
	err = c.doRetry(ctx, http.MethodPost, "/v1/jobs", string(body), body, &st)
	return st, err
}

// Status polls one job: GET /v1/jobs/{id} with retry. A 404 (unknown or
// aged-out job) returns a *StatusError with Code 404 (see IsNotFound).
func (c *Client) Status(ctx context.Context, id string) (wire.JobStatus, error) {
	var st wire.JobStatus
	err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+id, id, nil, &st)
	return st, err
}

// IsNotFound reports whether err is a 404 StatusError.
func IsNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}
