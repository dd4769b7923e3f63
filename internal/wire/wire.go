// Package wire defines the JSON wire schemas shared by every front end
// of the batch engine: the battbatch CLI and the battschedd HTTP server
// both speak exactly this vocabulary, so a job line that works piped
// into battbatch works verbatim as a battschedd request body (and vice
// versa), and the two front ends cannot drift apart.
//
// A Job is one scheduling request — a graph (by fixture name or inline
// spec), a deadline, a strategy and its knobs. A Result is one outcome —
// either a schedule with its battery cost or an "error" string. Units
// follow the rest of the repository: currents in mA, times and deadlines
// in minutes, charge in mA·min (see docs/API.md for the full schema
// reference).
//
// Decoding is strict: unknown fields and trailing data are rejected,
// and non-finite or non-positive numbers (NaN/Inf deadlines, negative
// currents, …) are caught at decode time — Job.Validate checks the job
// fields, the taskgraph builder checks inline graph content — with an
// error naming the offending field, before any scheduling work starts.
//
//battlint:deterministic
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// Job is the JSON schema of one scheduling request: one NDJSON line of
// battbatch / POST /v1/batch, or the whole body of POST /v1/schedule.
type Job struct {
	// Name optionally labels the job; it is echoed in the Result.
	Name string `json:"name,omitempty"`
	// Fixture names a built-in paper graph (g2 | g3). Mutually
	// exclusive with Graph; exactly one must be set.
	Fixture string `json:"fixture,omitempty"`
	// Graph is an inline task graph in the taskgen/battsched JSON
	// schema.
	Graph *taskgraph.Spec `json:"graph,omitempty"`
	// Deadline is the completion deadline in minutes (finite, > 0).
	Deadline float64 `json:"deadline"`
	// Strategy selects the algorithm; empty means "iterative". See
	// engine.Strategies for the accepted names.
	Strategy string `json:"strategy,omitempty"`
	// Beta is shorthand for a Rakhmatov battery with this diffusion
	// parameter: ToEngine turns a non-zero value into the spec
	// {"kind":"rakhmatov","beta":b}, so the two spellings share a cache
	// entry. 0 selects no battery (the default applies). Mutually
	// exclusive with Battery.
	Beta float64 `json:"beta,omitempty"`
	// Battery declaratively selects the battery model the job is
	// costed under: a kind (rakhmatov | ideal | peukert | kibam |
	// calibrated) plus that kind's validated numeric parameters (see
	// battery.Spec and docs/API.md). Absent means the paper's default
	// Rakhmatov configuration. Spec jobs are fully cacheable — the
	// canonical spec bytes are part of the result cache key.
	Battery *battery.Spec `json:"battery,omitempty"`
	// Approx enables the scheduler's documented approximation mode for
	// the iterative strategies: a per-decision suitability tolerance in
	// [0, 16] B-units (see core.Options.Approx). 0 — the default — is
	// exact mode, bit-identical to the paper's algorithm. Approx changes
	// results, so it is part of the cache key: approximate and exact
	// runs of the same job never share an entry.
	Approx float64 `json:"approx,omitempty"`
	// Restarts/Seed/RestartWorkers configure the multistart strategy;
	// RestartWorkers 0 inherits the runner's worker bound. A cache.Engine
	// with a Gate (battschedd) runs restarts in sequence and ignores it.
	Restarts       int   `json:"restarts,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	RestartWorkers int   `json:"restart_workers,omitempty"`
	// TimeoutMS bounds this job's computation in milliseconds once it
	// starts (0 = unbounded). A job that exceeds it fails with the
	// "canceled" result code; jobs that finish in time are unaffected,
	// so the field never changes a completed result's bytes.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority orders the job in the async queue (POST /v1/jobs and the
	// batch/stream variants): 0–9, higher runs earlier, FIFO within a
	// level. The sync endpoints accept and ignore it — there is no queue
	// to order. Result-neutral, so it is excluded from the cache key and
	// coalesced submissions of the same job may carry different
	// priorities (the job runs at the highest of them).
	Priority int `json:"priority,omitempty"`
	// TTLMS bounds the job's whole async lifetime in milliseconds —
	// queue wait plus computation, counted from submission (0 inherits
	// the server's default TTL, which is unbounded unless configured).
	// A job that exceeds it lands in the "expired" terminal state. Distinct from TimeoutMS, which starts only when computation
	// does; sync endpoints ignore TTLMS (their wait is the open
	// connection itself). Like Priority it is result-neutral and
	// excluded from the cache key.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// Result is the JSON schema of one scheduling outcome: one NDJSON line
// of battbatch / POST /v1/batch output, or the whole body of a POST
// /v1/schedule response. Exactly one of {Order+Assignment, Error} is
// populated.
type Result struct {
	// Index is the job's position in its batch (0 for single requests).
	Index int `json:"index"`
	// Name echoes Job.Name.
	Name string `json:"name,omitempty"`
	// Strategy is the canonical strategy name that ran.
	Strategy string `json:"strategy,omitempty"`
	// Cost is sigma at completion under the job's battery model, mA·min.
	Cost float64 `json:"cost,omitempty"`
	// Duration is the schedule completion time, minutes.
	Duration float64 `json:"duration,omitempty"`
	// Energy is the delivered charge, mA·min.
	Energy float64 `json:"energy,omitempty"`
	// Iterations is the outer-loop iteration count (iterative
	// strategies only).
	Iterations int `json:"iterations,omitempty"`
	// Order lists task IDs in execution order.
	Order []int `json:"order,omitempty"`
	// Assignment maps task ID to its 0-based design point index.
	Assignment map[int]int `json:"assignment,omitempty"`
	// IdleTotal/IdleCost report the recovery-rest plan (strategy
	// "withidle" only): total rest minutes and padded-schedule sigma.
	IdleTotal float64 `json:"idle_total,omitempty"`
	IdleCost  float64 `json:"idle_cost,omitempty"`
	// Error is the job failure, empty on success.
	//
	// Note there is deliberately no "served from cache" field: result
	// bodies are byte-identical whether computed or cached (battschedd
	// reports cache status out of band, via X-Cache headers).
	Error string `json:"error,omitempty"`
	// Code classifies the failure machine-readably. The only value
	// today is CodeCanceled — the job was cut short by a client
	// disconnect, a server shutdown or its timeout_ms budget — which
	// callers should treat as retryable, unlike a deterministic
	// scheduling failure (whose Error is all there is).
	Code string `json:"code,omitempty"`
}

// CodeCanceled is the Result.Code of a job that did not complete
// because its request was canceled or its timeout_ms budget expired.
const CodeCanceled = "canceled"

// Async-only result codes: a job result line streamed from the async
// endpoints can additionally report that the job left the queue without
// a result. Like CodeCanceled both are retryable — nothing
// deterministic failed.
const (
	// CodeExpired marks a job whose ttl_ms lapsed before completion.
	CodeExpired = "expired"
	// CodeAborted marks a job aborted by DELETE /v1/jobs/{id} or a
	// server drain.
	CodeAborted = "aborted"
)

// JobStatus is the JSON schema of one async job's lifecycle snapshot:
// the body of POST /v1/jobs and GET /v1/jobs/{id} responses (and one
// line of the POST /v1/jobs/batch response array). The embedded Result
// appears only in a terminal state and carries exactly the bytes the
// sync endpoints would have produced for the same job.
type JobStatus struct {
	// ID is the job's content-addressed identity — the SHA-256 cache key
	// of the canonical request, so resubmitting the same job yields the
	// same ID and coalesces onto the same computation.
	ID string `json:"id"`
	// State is the lifecycle state: queued | running | done | expired |
	// aborted. done/expired/aborted are terminal. Empty only in a batch
	// response entry for a line that was never admitted (its Error says
	// why).
	State string `json:"state,omitempty"`
	// Priority echoes the effective queue priority (the highest of the
	// coalesced submissions').
	Priority int `json:"priority,omitempty"`
	// Name echoes the submission's job name.
	Name string `json:"name,omitempty"`
	// Result is the job outcome, present only in state "done" (it may
	// still describe a deterministic scheduling failure via its Error
	// field). Expired/aborted jobs carry no result.
	Result *Result `json:"result,omitempty"`
	// Error describes why a job ended without a result ("expired",
	// "aborted", …); empty for queued/running/done.
	Error string `json:"error,omitempty"`
}

// Job lifecycle states, as serialized in JobStatus.State.
const (
	StateQueued  = "queued"  // admitted, waiting for a worker
	StateRunning = "running" // computing (or joined on an identical in-flight computation)
	StateDone    = "done"    // terminal: result available (success or deterministic failure)
	StateExpired = "expired" // terminal: ttl_ms elapsed before completion
	StateAborted = "aborted" // terminal: DELETE /v1/jobs/{id} or server drain
)

// Ready is the JSON schema of the GET /readyz response: the readiness
// verdict, distinct from /healthz liveness. A process can be alive and
// still not fully ready — the disk tier tripped its circuit breaker
// (degraded: serving continues memory-only), or a drain has begun
// (draining: stop sending traffic).
type Ready struct {
	// Status is the aggregate verdict: ok | degraded | draining.
	// ok and degraded are served with HTTP 200 (the process accepts
	// traffic); draining with 503.
	Status string `json:"status"`
	// Subsystems details each readiness input by name (e.g. "disk",
	// "queue").
	Subsystems map[string]ReadySubsystem `json:"subsystems"`
}

// ReadySubsystem is one subsystem's readiness detail inside Ready.
type ReadySubsystem struct {
	// Status is ok | degraded | draining | disabled (disabled:
	// the subsystem is configured off — e.g. no disk tier attached —
	// which never degrades the aggregate).
	Status string `json:"status"`
	// Detail is a human-readable explanation ("breaker open", …).
	Detail string `json:"detail,omitempty"`
}

// Ready statuses, aggregate and per-subsystem.
const (
	ReadyOK       = "ok"
	ReadyDegraded = "degraded"
	ReadyDraining = "draining"
	ReadyDisabled = "disabled"
)

// MaxRestarts and MaxRestartWorkers bound the multistart knobs a wire
// job may request. Every restart runs the full algorithm and the worker
// count sizes real allocations, so without a ceiling one small request
// could pin or OOM a serving host; the bounds are far above any useful
// search budget.
const (
	MaxRestarts       = 4096
	MaxRestartWorkers = 256
)

// MaxTasks and MaxPointsPerTask bound an inline graph. Decoding and
// building a graph cost memory and time linear in its tasks and
// points, and the closure the scheduler keeps is quadratic in tasks,
// so without a ceiling one request body could buy gigabytes. The
// bounds sit far above the paper's graphs (15 tasks, 5 points) and
// every benchmarked size.
const (
	MaxTasks         = 10000
	MaxPointsPerTask = 64
)

// MaxTimeoutMS bounds timeout_ms and ttl_ms at 24 hours. The conversion
// to time.Duration multiplies by a million, so an unbounded field would
// let a hostile value overflow int64 — wrapping to a near-zero budget
// (every job instantly canceled) or a negative one (the budget
// silently ignored). Far above any useful compute budget.
const MaxTimeoutMS = 24 * 60 * 60 * 1000

// MaxPriority bounds the async queue priority field; priorities are
// small ordinal levels, not an unbounded score.
const MaxPriority = 9

// DecodeJobs decodes an NDJSON job body: one job per non-blank line,
// decoded and resolved into engine jobs. Every non-blank line claims
// one slot in the three parallel slices; a line that fails to decode
// or validate keeps its slot, holding its error in errs and a
// placeholder engine job with no graph — so batch front ends report
// the decode error for exactly that line without aborting the rest.
// The wire jobs carry the fields an engine job does not: the name and
// the async queue's priority and ttl_ms.
func DecodeJobs(body []byte) (wjobs []Job, jobs []engine.Job, errs []error) {
	for line := range bytes.Lines(body) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ejob engine.Job
		job, err := DecodeJob(line)
		if err == nil {
			ejob, err = job.ToEngine()
		}
		wjobs = append(wjobs, job)
		jobs = append(jobs, ejob)
		errs = append(errs, err)
	}
	return wjobs, jobs, errs
}

// ApplyDefaultBattery gives job the default battery spec when it
// selected no battery model of its own (ToEngine has already turned a
// "beta" shorthand into a spec). A nil spec leaves every job as it is.
// It is the one definition of the -battery flag both battbatch and
// battschedd offer.
func ApplyDefaultBattery(job *engine.Job, spec *battery.Spec) {
	if job.Options.Battery == nil {
		job.Options.Battery = spec
	}
}

// finite reports whether v is an ordinary number (not NaN, not ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks every numeric field for finiteness and sign, and the
// fixture/graph exclusivity rule, returning an error that names the
// offending field. It does not build the graph (ToEngine does).
func (j Job) Validate() error {
	switch {
	case !finite(j.Deadline):
		return fmt.Errorf("job %s: \"deadline\" must be a finite number, got %g", j.label(), j.Deadline)
	case j.Deadline <= 0:
		return fmt.Errorf("job %s: \"deadline\" must be positive, got %g", j.label(), j.Deadline)
	case !finite(j.Beta) || j.Beta < 0:
		return fmt.Errorf("job %s: \"beta\" must be a finite non-negative number, got %g", j.label(), j.Beta)
	case j.Beta != 0 && j.Battery != nil:
		return fmt.Errorf("job %s: has both \"beta\" and \"battery\" (use battery.beta)", j.label())
	case !finite(j.Approx) || j.Approx < 0 || j.Approx > core.MaxApprox:
		return fmt.Errorf("job %s: \"approx\" must be a finite number in [0, %d], got %g", j.label(), core.MaxApprox, j.Approx)
	case j.Restarts < 0 || j.Restarts > MaxRestarts:
		return fmt.Errorf("job %s: \"restarts\" must be in [0, %d], got %d", j.label(), MaxRestarts, j.Restarts)
	case j.RestartWorkers < 0 || j.RestartWorkers > MaxRestartWorkers:
		return fmt.Errorf("job %s: \"restart_workers\" must be in [0, %d], got %d", j.label(), MaxRestartWorkers, j.RestartWorkers)
	case j.TimeoutMS < 0 || j.TimeoutMS > MaxTimeoutMS:
		return fmt.Errorf("job %s: \"timeout_ms\" must be in [0, %d], got %d", j.label(), MaxTimeoutMS, j.TimeoutMS)
	case j.Priority < 0 || j.Priority > MaxPriority:
		return fmt.Errorf("job %s: \"priority\" must be in [0, %d], got %d", j.label(), MaxPriority, j.Priority)
	case j.TTLMS < 0 || j.TTLMS > MaxTimeoutMS:
		return fmt.Errorf("job %s: \"ttl_ms\" must be in [0, %d], got %d", j.label(), MaxTimeoutMS, j.TTLMS)
	case j.Fixture != "" && j.Graph != nil:
		return fmt.Errorf("job %s: has both \"fixture\" and \"graph\"", j.label())
	case j.Fixture == "" && j.Graph == nil:
		return fmt.Errorf("job %s: needs a \"fixture\" or an inline \"graph\"", j.label())
	}
	if j.Graph != nil {
		// Bounded here, before ToEngine builds anything from the spec.
		if n := len(j.Graph.Tasks); n > MaxTasks {
			return fmt.Errorf("job %s: \"graph\" must hold at most %d \"tasks\", got %d", j.label(), MaxTasks, n)
		}
		for _, t := range j.Graph.Tasks {
			if m := len(t.Points); m > MaxPointsPerTask {
				return fmt.Errorf("job %s: \"graph\" task %d must hold at most %d \"points\", got %d", j.label(), t.ID, MaxPointsPerTask, m)
			}
		}
	}
	if j.Battery != nil {
		// The battery package owns the per-kind parameter rules; its
		// errors already name the offending field.
		if err := j.Battery.Validate(); err != nil {
			return fmt.Errorf("job %s: \"battery\": %w", j.label(), err)
		}
	}
	// Inline graph content (finite positive times, finite non-negative
	// currents, acyclic edges, …) is validated by taskgraph's Builder
	// when ToEngine resolves the spec — one copy of those rules, one
	// error vocabulary.
	return nil
}

// label identifies the job in error messages.
func (j Job) label() string {
	if j.Name != "" {
		return fmt.Sprintf("%q", j.Name)
	}
	return "(unnamed)"
}

// ToEngine validates the job and resolves its graph into an engine job;
// a non-zero "beta" shorthand becomes the equivalent rakhmatov battery
// spec here, so nothing past the wire sees it. It is the conversion
// boundary the wire schema exists for, so battlint checks that every
// exported wire.Job field is read here: a field this function drops is
// a knob the API silently ignores.
//
//battlint:canonical Job
func (j Job) ToEngine() (engine.Job, error) {
	spec := j.Battery
	if j.Beta != 0 {
		spec = &battery.Spec{Kind: battery.KindRakhmatov, Beta: j.Beta}
	}
	job := engine.Job{
		Name:     j.Name,
		Deadline: j.Deadline,
		Strategy: j.Strategy,
		Options:  core.Options{Battery: spec, Approx: j.Approx},
		MultiStart: core.MultiStartOptions{
			Restarts: j.Restarts,
			Seed:     j.Seed,
			Workers:  j.RestartWorkers,
		},
		Timeout: time.Duration(j.TimeoutMS) * time.Millisecond,
	}
	if err := j.Validate(); err != nil {
		return job, err
	}
	if _, err := engine.CanonicalStrategy(j.Strategy); err != nil {
		return job, err
	}
	if j.Fixture != "" {
		g, _, err := taskgraph.Fixture(j.Fixture)
		if err != nil {
			return job, err
		}
		job.Graph = g
		return job, nil
	}
	g, err := taskgraph.FromSpec(*j.Graph)
	if err != nil {
		return job, fmt.Errorf("job %s: %w", j.label(), err)
	}
	job.Graph = g
	return job, nil
}

// FromEngine converts an engine result into its wire form. index is the
// job's position in the request batch (engine.Result.Index is ignored so
// cached results, which are stored request-neutral, convert correctly).
func FromEngine(index int, res engine.Result) Result {
	out := Result{Index: index, Name: res.Name, Strategy: res.Strategy}
	if res.Err != nil {
		out.Error = res.Err.Error()
		if errors.Is(res.Err, engine.ErrCanceled) {
			out.Code = CodeCanceled
		}
		return out
	}
	out.Cost = res.Cost
	out.Duration = res.Duration
	out.Energy = res.Energy
	out.Iterations = res.Iterations
	out.Order = res.Schedule.Order
	out.Assignment = res.Schedule.Assignment
	if res.Idle != nil {
		out.IdleTotal = res.Idle.TotalIdle()
		out.IdleCost = res.Idle.Cost
	}
	return out
}

// ErrorResult builds the wire form of a request that never reached the
// engine (a parse or validation failure).
func ErrorResult(index int, name string, err error) Result {
	return Result{Index: index, Name: name, Error: err.Error()}
}

// Results converts a batch run back to the wire, in input order: lines
// that failed decoding (per DecodeJobs) report their own decode error,
// the rest carry their engine result. It is the inverse bookend of
// DecodeJobs, shared by every batch front end so their output lines
// cannot drift apart. The three slices must be parallel; a failed
// line's engine result is never read.
func Results(wjobs []Job, results []engine.Result, errs []error) []Result {
	out := make([]Result, len(results))
	for i, res := range results {
		if errs[i] != nil {
			out[i] = ErrorResult(i, wjobs[i].Name, errs[i])
		} else {
			out[i] = FromEngine(i, res)
		}
	}
	return out
}
