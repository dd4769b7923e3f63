// The async job API: submit/poll/stream semantics over the admission-
// controlled queue (internal/queue), so a client running a Table-3-style
// sweep holds zero connections open while the server drains the backlog.
//
//	POST   /v1/jobs             submit one job, return its ID immediately
//	GET    /v1/jobs/{id}        poll status/result
//	DELETE /v1/jobs/{id}        abort (queued jobs never run; running ones cancel)
//	GET    /v1/jobs/{id}/stream block until terminal, emit the result line
//	POST   /v1/jobs/batch       submit an NDJSON batch, return statuses
//	POST   /v1/jobs/stream      submit an NDJSON batch, stream result lines
//	                            as jobs finish (out-of-order; ?ordered=1
//	                            for input order)
//
// A job's ID is its content-addressed cache key, so duplicate
// submissions — within a batch, across batches, even across async and
// sync clients via the engine's single-flight cache — coalesce onto one
// computation. Streamed result lines are byte-identical to what the
// sync endpoints would have produced for the same jobs; streams speak
// NDJSON by default and SSE when the request prefers text/event-stream.
//
// Admission control is synchronous: a full queue rejects the submission
// with 429 and a Retry-After hint (counted in the rejected_queue
// metric) instead of letting a backlog grow without bound.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/wire"
)

// submitJob admits one decoded job into the async queue and returns its
// snapshot. The returned error carries the HTTP status the caller
// should serve (429 full / 503 draining / 400 unaddressable).
func (s *Server) submitJob(job wire.Job, ejob engine.Job) (queue.Snapshot, int, error) {
	id, ok := cache.Key(ejob)
	if !ok {
		// Unreachable for wire-validated jobs (every field the key
		// refuses is refused harder by decode); kept for embedders.
		return queue.Snapshot{}, http.StatusBadRequest,
			errors.New("server: job has no canonical content address")
	}
	snap, err := s.jobs.Submit(queue.Submission{
		ID:       id,
		Priority: job.Priority,
		TTL:      time.Duration(job.TTLMS) * time.Millisecond,
		Run: func(ctx context.Context) engine.Result {
			res, _ := s.engine.RunKeyedContext(ctx, ejob, id)
			s.metrics.served(ejob, res)
			return res
		},
	})
	switch {
	case errors.Is(err, queue.ErrFull):
		s.metrics.rejectedQueue.Add(1)
		return queue.Snapshot{}, http.StatusTooManyRequests,
			fmt.Errorf("server: job queue full (max %d waiting); retry later", s.queueCapacity())
	case errors.Is(err, queue.ErrClosed):
		return queue.Snapshot{}, http.StatusServiceUnavailable, errDraining
	case err != nil:
		return queue.Snapshot{}, http.StatusInternalServerError, err
	}
	return snap, 0, nil
}

// queueCapacity reports the configured waiting-line bound.
func (s *Server) queueCapacity() int {
	if s.cfg.MaxQueued > 0 {
		return s.cfg.MaxQueued
	}
	return queue.DefaultMaxQueued
}

// jobStatus converts a queue snapshot to its wire form, re-attaching
// the submission's name (poll-by-id callers have none to attach — the
// label is per-submission metadata, not job content).
func jobStatus(snap queue.Snapshot, name string) wire.JobStatus {
	st := wire.JobStatus{
		ID:       snap.ID,
		State:    snap.State.String(),
		Priority: snap.Priority,
		Name:     name,
	}
	switch snap.State {
	case queue.StateDone:
		res := snap.Result
		res.Name = name
		r := wire.FromEngine(0, res)
		st.Result = &r
	case queue.StateExpired:
		st.Error = "job expired before completion (ttl_ms)"
	case queue.StateAborted:
		st.Error = "job aborted"
	}
	return st
}

// terminalResult converts a terminal snapshot to the stream-line form:
// a done job's line is byte-identical to the sync endpoints' result for
// the same job (same index/name attachment), while expired/aborted jobs
// carry their retryable code.
func terminalResult(snap queue.Snapshot, index int, name string) wire.Result {
	switch snap.State {
	case queue.StateDone:
		res := snap.Result
		res.Name = name
		return wire.FromEngine(index, res)
	case queue.StateExpired:
		return wire.Result{Index: index, Name: name,
			Error: "job expired before completion (ttl_ms)", Code: wire.CodeExpired}
	default:
		return wire.Result{Index: index, Name: name,
			Error: "job aborted", Code: wire.CodeAborted}
	}
}

// handleJobSubmit accepts one job: wire.Job body in, wire.JobStatus out.
// 202 for a job now queued/running, 200 when a retained result answered
// immediately, 429 + Retry-After when admission control refuses.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	job, ejob, ok := s.decodeJob(w, r)
	if !ok {
		return
	}
	snap, status, err := s.submitJob(job, ejob)
	if err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			s.writeRetryError(w, status, err)
		} else {
			s.writeError(w, status, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	if snap.State.Terminal() {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	writeJSON(w, jobStatus(snap, job.Name))
}

// handleJobGet polls one job's status; the result rides along once the
// job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("server: unknown job id (never submitted, or aged out of retention)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, jobStatus(snap, ""))
}

// handleJobAbort aborts one job. Aborting an already-terminal job is a
// no-op that reports the state as it stands.
func (s *Server) handleJobAbort(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	snap, ok := s.jobs.Abort(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("server: unknown job id (never submitted, or aged out of retention)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, jobStatus(snap, ""))
}

// handleJobStream blocks until the job is terminal and emits its result
// line (NDJSON by default, SSE on Accept: text/event-stream). A done
// job's body is byte-identical to the sync POST /v1/schedule response
// for the same (unnamed) job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		s.writeError(w, http.StatusNotFound, errors.New("server: unknown job id (never submitted, or aged out of retention)"))
		return
	}
	emit := newStreamWriter(w, r)
	snap, ok, err := s.jobs.Wait(r.Context(), id)
	if err != nil || !ok {
		return // client gave up (or the job aged out mid-wait); nothing to salvage
	}
	emit(terminalResult(snap, 0, ""))
}

// batchSlot is one NDJSON line's fate in a jobs batch: an immediate
// error line (decode failure or admission rejection) or a submitted job
// to wait on.
type batchSlot struct {
	name     string
	id       string // submitted job id; "" when err is set
	err      error  // decode or admission failure
	terminal bool   // submission answered terminal immediately
	snap     queue.Snapshot
}

// submitBatch reads and admits an NDJSON jobs body, returning one slot
// per line. Admission rejections are per-line (the rest of the batch is
// unaffected) and counted in rejected_queue; if any line was rejected
// as transient, the response advertises Retry-After.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) ([]batchSlot, bool) {
	wjobs, ejobs, parseErrs, ok := s.decodeBatch(w, r)
	if !ok {
		return nil, false
	}
	slots := make([]batchSlot, len(wjobs))
	rejected := false
	for i := range wjobs {
		slots[i].name = wjobs[i].Name
		if parseErrs[i] != nil {
			slots[i].err = parseErrs[i]
			continue
		}
		snap, status, serr := s.submitJob(wjobs[i], ejobs[i])
		if serr != nil {
			slots[i].err = serr
			// Both transient rejections earn the Retry-After hint: 429
			// (queue full) and 503 (draining — retry lands on a healthy
			// replica). Leaving 503 out taught resilient clients that a
			// drain rejection was permanent.
			rejected = rejected || status == http.StatusTooManyRequests ||
				status == http.StatusServiceUnavailable
			continue
		}
		slots[i].id = snap.ID
		slots[i].snap = snap
		slots[i].terminal = snap.State.Terminal()
	}
	if rejected {
		w.Header().Set("Retry-After", retryAfter)
	}
	return slots, true
}

// handleJobsBatch submits an NDJSON batch and returns a JSON array with
// one wire.JobStatus per line — ids to poll or stream, immediate errors
// for lines that failed to decode or were refused admission. Always 202
// once the body decodes: per-line failures live in their slots, exactly
// the /v1/batch contract.
func (s *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	slots, ok := s.submitBatch(w, r)
	if !ok {
		return
	}
	statuses := make([]wire.JobStatus, len(slots))
	for i, slot := range slots {
		if slot.err != nil {
			statuses[i] = wire.JobStatus{Name: slot.name, Error: slot.err.Error()}
			continue
		}
		statuses[i] = jobStatus(slot.snap, slot.name)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, statuses)
}

// handleJobsBatchStream submits an NDJSON batch and streams one result
// line per input line as jobs finish — out-of-order by default (a line's
// "index" says which input it answers), in input order with ?ordered=1.
// Lines that failed to decode or were refused admission are emitted as
// error lines without waiting. Completed lines are byte-identical to
// the sync POST /v1/batch lines for the same jobs.
func (s *Server) handleJobsBatchStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.jobsAPI.Add(1)
	slots, ok := s.submitBatch(w, r)
	if !ok {
		return
	}
	emit := newStreamWriter(w, r)
	ctx := r.Context()

	if r.URL.Query().Get("ordered") == "1" {
		for i, slot := range slots {
			if slot.err != nil {
				if !emit(wire.ErrorResult(i, slot.name, slot.err)) {
					return
				}
				continue
			}
			snap, ok, err := s.jobs.Wait(ctx, slot.id)
			if err != nil {
				return // client gave up
			}
			if !ok {
				// Aged out of the queue mid-wait. The admission snapshot
				// is all we have, and unless it was already terminal at
				// submit time it says nothing about how the job ended —
				// the job may well have completed and been pruned.
				// Mirroring the out-of-order path: never dress a
				// non-terminal snapshot up as an outcome (terminalResult
				// would render it as a false "job aborted" line).
				snap = slot.snap
			}
			if !snap.State.Terminal() {
				return
			}
			if !emit(terminalResult(snap, i, slot.name)) {
				return
			}
		}
		return
	}

	// Out-of-order: emit failures now, then fan in completions as they
	// land. The channel is buffered to the fan-out, so waiter
	// goroutines can never block on a client that walked away.
	type finished struct {
		idx  int
		snap queue.Snapshot
	}
	done := make(chan finished, len(slots))
	waiting := 0
	for i, slot := range slots {
		if slot.err != nil {
			if !emit(wire.ErrorResult(i, slot.name, slot.err)) {
				return
			}
			continue
		}
		waiting++
		go func(idx int, slot batchSlot) {
			snap, ok, err := s.jobs.Wait(ctx, slot.id)
			if err != nil || !ok {
				snap = slot.snap
			}
			done <- finished{idx: idx, snap: snap}
		}(i, slot)
	}
	for ; waiting > 0; waiting-- {
		select {
		case f := <-done:
			if !f.snap.State.Terminal() {
				return // ctx died mid-wait; the client is gone anyway
			}
			if !emit(terminalResult(f.snap, f.idx, slots[f.idx].name)) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// newStreamWriter picks the stream framing — NDJSON lines by default,
// SSE "data:" events when the request prefers text/event-stream — sets
// the content type, and returns an emit function that reports whether
// the client is still there. Every emitted payload is flushed
// immediately (through wrapping middleware via http.ResponseController):
// the whole point of the stream endpoints is that results arrive as
// they finish, not when the response buffer fills.
func newStreamWriter(w http.ResponseWriter, r *http.Request) func(v any) bool {
	rc := http.NewResponseController(w)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	enc := json.NewEncoder(w)
	return func(v any) bool {
		if sse {
			if _, err := io.WriteString(w, "data: "); err != nil {
				return false
			}
		}
		if err := enc.Encode(v); err != nil {
			return false
		}
		if sse {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return false
			}
		}
		rc.Flush()
		return true
	}
}

// writeJSON encodes v as the whole response body.
func writeJSON(w http.ResponseWriter, v any) {
	json.NewEncoder(w).Encode(v)
}
