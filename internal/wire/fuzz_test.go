package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeJobs hammers the NDJSON batch decoder with arbitrary bytes.
// Invariants under fuzz:
//
//   - no panic, whatever the input;
//   - the three outputs stay parallel (one slot per non-blank line);
//   - a slot without an error holds a fully resolved job — non-nil
//     graph, positive finite deadline, canonical bounds respected —
//     because front ends hand exactly these to the engine unchecked;
//   - a slot with an error holds the zero placeholder job (nil graph),
//     which the engine rejects instantly;
//   - a slot without an error never carries an invalid battery spec —
//     negative/out-of-domain parameters, foreign parameters and unknown
//     kinds are all structured decode errors, never panics (NaN/Inf
//     literals cannot even parse as JSON; overflowing numbers like
//     1e999 fail at decode time);
//   - a clean inline graph stays within MaxTasks and MaxPointsPerTask.
//
// The seed corpus is real traffic: fixture jobs for every strategy and
// battery-spec kind, an inline graph built from testdata/g2.json, and
// the malformed shapes the decode tests pin down.
func FuzzDecodeJobs(f *testing.F) {
	for _, seed := range decodeJobsCorpus() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wjobs, jobs, errs := DecodeJobs(data)
		if len(jobs) != len(wjobs) || len(jobs) != len(errs) {
			t.Fatalf("outputs not parallel: %d jobs, %d wire jobs, %d errs", len(jobs), len(wjobs), len(errs))
		}
		for i := range jobs {
			if errs[i] != nil {
				if jobs[i].Graph != nil {
					t.Fatalf("line %d: failed decode kept a graph", i)
				}
				continue
			}
			j := jobs[i]
			if j.Graph == nil {
				t.Fatalf("line %d: clean decode without a graph", i)
			}
			if !finite(j.Deadline) || j.Deadline <= 0 {
				t.Fatalf("line %d: clean decode with deadline %g", i, j.Deadline)
			}
			if j.MultiStart.Restarts < 0 || j.MultiStart.Restarts > MaxRestarts ||
				j.MultiStart.Workers < 0 || j.MultiStart.Workers > MaxRestartWorkers {
				t.Fatalf("line %d: multistart knobs out of bounds: %+v", i, j.MultiStart)
			}
			if j.Graph.N() > MaxTasks {
				t.Fatalf("line %d: clean decode with %d tasks", i, j.Graph.N())
			}
			for k := 0; k < j.Graph.N(); k++ {
				if m := len(j.Graph.TaskAt(k).Points); m > MaxPointsPerTask {
					t.Fatalf("line %d: clean decode with %d design points on one task", i, m)
				}
			}
			if j.Timeout < 0 {
				t.Fatalf("line %d: negative timeout %v", i, j.Timeout)
			}
			if j.Options.Battery != nil {
				if verr := j.Options.Battery.Validate(); verr != nil {
					t.Fatalf("line %d: clean decode carries an invalid battery spec: %v", i, verr)
				}
			}
		}
	})
}

// decodeJobsCorpus is FuzzDecodeJobs's seed corpus, shared with
// FuzzDecodeJobEquivalence.
func decodeJobsCorpus() [][]byte {
	var seeds [][]byte
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230}`))
	seeds = append(seeds, []byte(`{"name":"a","fixture":"g2","deadline":75,"strategy":"rv-dp"}`+"\n"+
		`{"name":"b","fixture":"g3","deadline":230,"strategy":"multistart","restarts":4,"seed":7}`+"\n"+
		"\n"+
		`{"name":"c","fixture":"g3","deadline":230,"strategy":"withidle","timeout_ms":1000}`))
	seeds = append(seeds, []byte(`not json at all`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":-1}`+"\n"+`{"deadline":230}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230}{"fixture":"g2","deadline":75}`))
	seeds = append(seeds, []byte(`{"graph":{"tasks":[{"id":1,"points":[{"current":10,"time":1}]}]},"deadline":5}`))
	// Battery specs: every kind valid once, plus the rejection shapes
	// (unknown kind, negative/overflowing/foreign parameters, beta
	// conflict, malformed observations).
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":0.35,"terms":12}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal"}}`+"\n"+
		`{"fixture":"g3","deadline":230,"battery":{"kind":"peukert","exponent":1.2,"ref_current":100}}`+"\n"+
		`{"fixture":"g2","deadline":75,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478},{"current":200,"lifetime":228.9}]}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"fluxcap"}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":-1}}`+"\n"+
		`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":1e999}}`+"\n"+
		`{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":100,"well_fraction":2,"rate_constant":-0.1}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal","beta":0.3}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"beta":0.3,"battery":{"kind":"ideal"}}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478}]}}`))
	// Async queue fields: valid priority/ttl_ms combinations, both
	// bounds, and the rejection shapes (negative, over-limit,
	// overflow-bait values the int64→Duration conversion must never
	// see).
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"priority":9,"ttl_ms":5000}`+"\n"+
		`{"fixture":"g2","deadline":75,"priority":1}`+"\n"+
		`{"fixture":"g3","deadline":230,"ttl_ms":86400000}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"priority":-1}`+"\n"+
		`{"fixture":"g3","deadline":230,"priority":10}`+"\n"+
		`{"fixture":"g3","deadline":230,"priority":2147483647}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"ttl_ms":-5}`+"\n"+
		`{"fixture":"g3","deadline":230,"ttl_ms":86400001}`+"\n"+
		`{"fixture":"g3","deadline":230,"ttl_ms":9223372036854775807}`))
	seeds = append(seeds, []byte(`{"fixture":"g3","deadline":230,"priority":3,"ttl_ms":1000,"timeout_ms":500,"strategy":"multistart","restarts":2}`))
	// Inline graph bounds: a task with one design point too many.
	seeds = append(seeds, []byte(`{"graph":{"tasks":[{"id":1,"points":[`+
		strings.Repeat(`{"current":10,"time":1},`, MaxPointsPerTask)+`{"current":10,"time":1}]}]},"deadline":5}`))
	// An inline-graph job line assembled from the shared fixture file.
	if spec, err := os.ReadFile(filepath.Join("..", "..", "testdata", "g2.json")); err == nil {
		var compact bytes.Buffer
		if json.Compact(&compact, spec) == nil {
			seeds = append(seeds, []byte(`{"graph":`+compact.String()+`,"deadline":75}`))
		}
	}
	return seeds
}
