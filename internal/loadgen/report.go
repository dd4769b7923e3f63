// Result and SLO checking: a load run condenses to one Result, which
// battload -o serializes as JSON.
package loadgen

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
)

// Result is the outcome of one load run at one concurrency level.
type Result struct {
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	RateTarget  float64 `json:"rate_target,omitempty"`
	Jobs        int     `json:"jobs"`
	DurationMS  float64 `json:"duration_ms"`

	// Submission accounting. Attempted = Accepted + RejectedFinal +
	// Errors; Attempted + Unsent = Jobs.
	Attempted     int64 `json:"attempted"`
	Unsent        int64 `json:"unsent,omitempty"`
	Accepted      int64 `json:"accepted"`
	Rejected      int64 `json:"rejected_429,omitempty"`
	Unavailable   int64 `json:"unavailable_503,omitempty"`
	RejectedFinal int64 `json:"rejected_final,omitempty"`
	Errors        int64 `json:"errors,omitempty"`

	// Terminal accounting. Accepted = Done + Expired + Aborted + Lost.
	Done          int64 `json:"done"`
	DoneWithError int64 `json:"done_with_error,omitempty"`
	Expired       int64 `json:"expired,omitempty"`
	Aborted       int64 `json:"aborted,omitempty"`

	// The invariant violations a correct server never produces.
	// ByteMismatch is only counted when Config.VerifyBytes is on: two
	// observations of the same job ID whose result JSON differs.
	Lost           int64 `json:"lost"`
	DoubleTerminal int64 `json:"double_terminal"`
	ByteMismatch   int64 `json:"byte_mismatch"`

	// Resubmits counts resilient-mode re-submissions after the server
	// forgot a job ID (restart or retention ageout).
	Resubmits int64 `json:"resubmits,omitempty"`

	Polls         int64   `json:"polls,omitempty"`
	ThroughputJPS float64 `json:"throughput_jobs_per_sec"`

	Submit LatencySummary `json:"submit"`
	Poll   LatencySummary `json:"poll"`
	E2E    LatencySummary `json:"e2e"`

	// Client carries the resilient client's own counters (attempts,
	// retries, Retry-After honors) when the run was Resilient — the
	// proof the resilience was exercised, not just configured.
	Client *client.Stats `json:"client,omitempty"`

	// Violations lists failed SLO clauses (empty/omitted when the run
	// had no SLO or passed it).
	Violations []string `json:"violations,omitempty"`
}

// Verify checks the serving contract the run observed: every accepted
// job reached exactly one terminal state. It returns nil when the
// contract held and a single describing error otherwise.
func (r *Result) Verify() error {
	var probs []string
	if r.Lost > 0 {
		probs = append(probs, fmt.Sprintf("%d job(s) lost (accepted but no terminal state observed)", r.Lost))
	}
	if r.DoubleTerminal > 0 {
		probs = append(probs, fmt.Sprintf("%d double completion(s) (terminal state changed after first observation)", r.DoubleTerminal))
	}
	if r.ByteMismatch > 0 {
		probs = append(probs, fmt.Sprintf("%d byte-divergent result(s) (same job ID, different result JSON)", r.ByteMismatch))
	}
	if got := r.Done + r.Expired + r.Aborted + r.Lost; got != r.Accepted {
		probs = append(probs, fmt.Sprintf("terminal accounting mismatch: accepted %d but done+expired+aborted+lost = %d", r.Accepted, got))
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("loadgen: contract violated at c=%d: %s", r.Concurrency, strings.Join(probs, "; "))
}

// SLO is the service-level objective a run is held to. Zero durations
// disable their clause; MaxErrorRate < 0 disables the rate clause
// (0 means "no errors allowed").
type SLO struct {
	// SubmitP99 bounds the 99th-percentile accepted-submission latency.
	SubmitP99 time.Duration `json:"submit_p99,omitempty"`
	// PollP99 bounds the 99th-percentile status-poll latency.
	PollP99 time.Duration `json:"poll_p99,omitempty"`
	// E2EP99 bounds the 99th-percentile submit-to-done latency.
	E2EP99 time.Duration `json:"e2e_p99,omitempty"`
	// MaxErrorRate bounds Errors/Attempted.
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
}

// check evaluates the SLO against a finished run.
func (s *SLO) check(r *Result) []string {
	var v []string
	clause := func(name string, gotMS float64, want time.Duration) {
		if want > 0 && gotMS > ms(want) {
			v = append(v, fmt.Sprintf("%s %.3fms exceeds SLO %s", name, gotMS, want))
		}
	}
	clause("submit p99", r.Submit.P99MS, s.SubmitP99)
	clause("poll p99", r.Poll.P99MS, s.PollP99)
	clause("e2e p99", r.E2E.P99MS, s.E2EP99)
	if s.MaxErrorRate >= 0 && r.Attempted > 0 {
		if rate := float64(r.Errors) / float64(r.Attempted); rate > s.MaxErrorRate {
			v = append(v, fmt.Sprintf("error rate %.4f exceeds SLO %.4f", rate, s.MaxErrorRate))
		}
	}
	return v
}
