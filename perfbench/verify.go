package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	battsched "repro"
	"repro/internal/sched"
	"repro/internal/wire"
)

// checkResult decodes one result line and checks it is a legal answer
// to ref: no error, the expected strategy, a topological order over
// every task, one in-range design point per task, a completion time
// within the deadline that matches the reported duration, and a finite
// positive cost. It returns the cost σ.
func checkResult(ref jobRef, line []byte) (float64, error) {
	var res wire.Result
	if err := json.Unmarshal(line, &res); err != nil {
		return 0, fmt.Errorf("undecodable result: %w", err)
	}
	if res.Error != "" {
		return 0, fmt.Errorf("job failed: %s", res.Error)
	}
	if res.Strategy != ref.strategy {
		return 0, fmt.Errorf("strategy %q, want %q", res.Strategy, ref.strategy)
	}
	if len(res.Assignment) != ref.graph.N() {
		return 0, fmt.Errorf("%d design points for %d tasks", len(res.Assignment), ref.graph.N())
	}
	s := sched.Schedule{Order: res.Order, Assignment: res.Assignment}
	if err := s.ValidateDeadline(ref.graph, ref.deadline); err != nil {
		return 0, err
	}
	if d := s.Duration(ref.graph); math.Abs(d-res.Duration) > 1e-9*math.Max(1, d) {
		return 0, fmt.Errorf("reported duration %g, schedule takes %g", res.Duration, d)
	}
	if !(res.Cost > 0) || math.IsInf(res.Cost, 0) {
		return 0, fmt.Errorf("cost %g is not a finite positive charge", res.Cost)
	}
	return res.Cost, nil
}

// splitLines splits an NDJSON body into its lines, each keeping its
// newline.
func splitLines(body []byte) [][]byte {
	var lines [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			lines = append(lines, body)
			break
		}
		lines = append(lines, body[:i+1])
		body = body[i+1:]
	}
	return lines
}

// jobLines splits a request body into its jobs: one per NDJSON line for
// a batch, the whole body otherwise.
func jobLines(req request) [][]byte {
	if req.path != "/v1/batch" {
		return [][]byte{req.body}
	}
	return bytes.Split(bytes.TrimSpace(req.body), []byte("\n"))
}

// inProcess computes what the daemon must have answered for the jobs of
// req, through the library facade, encoded the way the server encodes
// results.
func inProcess(req request) ([][]byte, error) {
	lines := jobLines(req)
	out := make([][]byte, len(lines))
	for i, line := range lines {
		job, err := wire.DecodeJob(line)
		if err != nil {
			return nil, err
		}
		ej, err := job.ToEngine()
		if err != nil {
			return nil, err
		}
		res := battsched.RunBatch([]battsched.BatchJob{ej}, 1)[0]
		if res.Err != nil {
			return nil, res.Err
		}
		index := 0
		if req.path == "/v1/batch" {
			index = i
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(wire.FromEngine(index, res)); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// checkSample recomputes each sampled request in process and requires
// the daemon's answer to be byte-identical.
func checkSample(sample []sampled) error {
	var errs []error
	for _, s := range sample {
		want, err := inProcess(s.req)
		if err != nil {
			errs = append(errs, fmt.Errorf("position %d: in-process run: %w", s.pos, err))
			continue
		}
		if len(want) != len(s.lines) {
			errs = append(errs, fmt.Errorf("position %d: %d result lines, want %d", s.pos, len(s.lines), len(want)))
			continue
		}
		for i := range want {
			if !bytes.Equal(want[i], s.lines[i]) {
				errs = append(errs, fmt.Errorf("position %d job %d: daemon answer differs from the in-process result", s.pos, i))
			}
		}
	}
	return errors.Join(errs...)
}
