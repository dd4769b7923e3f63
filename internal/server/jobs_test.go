package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// newJobsServer builds a server with an explicit config for the async
// tests and guarantees the queue drains at cleanup even when a test
// leaves slow jobs running.
func newJobsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// slowJob is a request heavy enough (full multistart fan-in, serialized
// through a 1-worker gate in the tests that use it) to stay running or
// queued while the test acts on it.
func slowJob(seed int) string {
	return fmt.Sprintf(`{"fixture":"g3","deadline":230,"strategy":"multistart","restarts":4000,"seed":%d}`, seed)
}

func submitJob(t *testing.T, url, body string) (wire.JobStatus, *http.Response) {
	t.Helper()
	resp, data := post(t, url+"/v1/jobs", body)
	var st wire.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad job status body %q: %v", data, err)
		}
		if st.ID == "" {
			t.Fatalf("accepted submission without an id: %s", data)
		}
	}
	return st, resp
}

// pollUntil polls the job until pred holds, failing the test at the
// deadline. It returns the matching status.
func pollUntil(t *testing.T, url, id string, pred func(wire.JobStatus) bool) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := get(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, data)
		}
		var st wire.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll %s: bad body %q: %v", id, data, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: still %q at deadline", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(st wire.JobStatus) bool {
	return st.State == wire.StateDone || st.State == wire.StateExpired || st.State == wire.StateAborted
}

// TestJobSubmitPollStreamByteIdentical is the async tier's core
// contract: submit → poll-to-done delivers the same result the sync
// endpoint computes, and the job's stream line is byte-identical to the
// sync POST /v1/schedule response body for the same job.
func TestJobSubmitPollStreamByteIdentical(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	const body = `{"fixture":"g3","deadline":230,"priority":5}`

	st, resp := submitJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", got, st.ID)
	}
	final := pollUntil(t, ts.URL, st.ID, terminal)
	if final.State != wire.StateDone || final.Result == nil {
		t.Fatalf("final state %q (result %v), want done with result", final.State, final.Result)
	}

	// The sync answer for the identical job. The async run already
	// warmed the shared cache, which is the point: one computation,
	// bit-identical bytes on every path.
	syncResp, syncBody := post(t, ts.URL+"/v1/schedule", body)
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync schedule status %d: %s", syncResp.StatusCode, syncBody)
	}

	polled, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(polled), strings.TrimSuffix(string(syncBody), "\n"); got != want {
		t.Fatalf("polled result differs from sync result:\npoll: %s\nsync: %s", got, want)
	}

	streamResp, streamBody := get(t, ts.URL+"/v1/jobs/"+st.ID+"/stream")
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", streamResp.StatusCode, streamBody)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	if !bytes.Equal(streamBody, syncBody) {
		t.Fatalf("stream line differs from sync body:\nstream: %s\nsync:   %s", streamBody, syncBody)
	}
}

// TestJobsBatchStreamOrderedByteIdentical pins the batch contract: the
// ordered async stream of a whole NDJSON batch is byte-for-byte the
// sync /v1/batch response for the same input.
func TestJobsBatchStreamOrderedByteIdentical(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	batch := `{"name":"a","fixture":"g3","deadline":230}
{"name":"b","fixture":"g2","deadline":75,"priority":9}
{"name":"c","fixture":"g3","deadline":150,"strategy":"multistart","restarts":3,"seed":4}
not json at all
{"name":"e","fixture":"g2","deadline":55,"battery":{"kind":"peukert","capacity":47500,"exponent":1.2,"rated_current":250}}
`
	asyncResp, asyncBody := post(t, ts.URL+"/v1/jobs/stream?ordered=1", batch)
	if asyncResp.StatusCode != http.StatusOK {
		t.Fatalf("async stream status %d: %s", asyncResp.StatusCode, asyncBody)
	}
	syncResp, syncBody := post(t, ts.URL+"/v1/batch", batch)
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync batch status %d: %s", syncResp.StatusCode, syncBody)
	}
	if !bytes.Equal(asyncBody, syncBody) {
		t.Fatalf("ordered async stream differs from sync batch:\nasync: %s\nsync:  %s", asyncBody, syncBody)
	}
}

// TestJobsBatchStreamUnordered: every input line is answered exactly
// once (indexes cover the batch), whatever the completion order.
func TestJobsBatchStreamUnordered(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	var batch strings.Builder
	const n = 12
	for i := 0; i < n; i++ {
		fmt.Fprintf(&batch, `{"fixture":"g3","deadline":%d}`+"\n", 150+i)
	}
	resp, body := post(t, ts.URL+"/v1/jobs/stream", batch.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	seen := make([]int, n)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var r wire.Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if r.Index < 0 || r.Index >= n {
			t.Fatalf("line index %d out of range", r.Index)
		}
		seen[r.Index]++
		if r.Error != "" {
			t.Fatalf("job %d failed: %s", r.Index, r.Error)
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("input %d answered %d times, want exactly once", i, c)
		}
	}
}

// TestJobsMultiClientExactlyOneTerminal is the satellite integration
// test: many concurrent clients submitting overlapping work, every
// submission reaching exactly one stable terminal state, with
// cross-client duplicates coalescing onto shared computations.
func TestJobsMultiClientExactlyOneTerminal(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 4})
	const clients, jobsPer = 16, 10

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for j := 0; j < jobsPer; j++ {
				// Half the deadlines collide across clients on purpose.
				deadline := 140 + (c*jobsPer+j)%20
				body := fmt.Sprintf(`{"fixture":"g3","deadline":%d,"priority":%d}`, deadline, j%10)
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var st wire.JobStatus
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || st.ID == "" {
					errs <- fmt.Errorf("client %d: bad submit response (err %v)", c, err)
					return
				}
				// Poll to terminal, then confirm the state held.
				var final wire.JobStatus
				for deadline := time.Now().Add(30 * time.Second); ; {
					r2, err := client.Get(ts.URL + "/v1/jobs/" + st.ID)
					if err != nil {
						errs <- err
						return
					}
					err = json.NewDecoder(r2.Body).Decode(&final)
					r2.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if terminal(final) {
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("client %d job %s: never terminal", c, st.ID)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if final.State != wire.StateDone || final.Result == nil || final.Result.Error != "" {
					errs <- fmt.Errorf("client %d job %s: state %q result %+v", c, st.ID, final.State, final.Result)
					return
				}
				r3, err := client.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					errs <- err
					return
				}
				var again wire.JobStatus
				err = json.NewDecoder(r3.Body).Decode(&again)
				r3.Body.Close()
				if err != nil || again.State != final.State {
					t.Errorf("job %s: terminal state changed %q -> %q (err %v)", st.ID, final.State, again.State, err)
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	stats := s.Metrics().JobsAsync
	if stats.Submitted != clients*jobsPer {
		t.Fatalf("submitted = %d, want %d", stats.Submitted, clients*jobsPer)
	}
	if stats.Coalesced == 0 {
		t.Fatal("overlapping submissions coalesced 0 times, expected sharing")
	}
	if stats.Expired != 0 || stats.Aborted != 0 || stats.Rejected != 0 {
		t.Fatalf("unexpected lifecycle events: %+v", stats)
	}
	// Every distinct job computed exactly once and stayed done.
	if got := stats.Done + stats.Coalesced; got != stats.Submitted {
		t.Fatalf("done(%d) + coalesced(%d) = %d, want submitted %d", stats.Done, stats.Coalesced, got, stats.Submitted)
	}
}

// TestJobQueueFullRejectsWithRetryAfter: admission control under a
// tiny queue — the overflow submission gets 429 + Retry-After and the
// rejection lands in the rejected_queue metric, not `rejected`.
func TestJobQueueFullRejectsWithRetryAfter(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 1, QueueWorkers: 1, MaxQueued: 1})

	// One slow job occupies the lone worker, one fills the lone queue
	// slot, then distinct submissions must start bouncing.
	if _, resp := submitJob(t, ts.URL, slowJob(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	var rejected *http.Response
	for i := 2; i < 12; i++ {
		_, resp := submitJob(t, ts.URL, slowJob(i))
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("queue of capacity 1 accepted 10 slow submissions without a 429")
	}
	if got := rejected.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 Retry-After = %q, want %q", got, "1")
	}
	m := s.Metrics()
	if m.RejectedQueue == 0 {
		t.Fatal("rejected_queue metric is 0 after a 429")
	}
	if m.Rejected != 0 {
		t.Fatalf("queue rejection leaked into `rejected` (= %d)", m.Rejected)
	}
	if m.JobsAsync.Rejected == 0 {
		t.Fatal("queue stats rejected counter is 0 after a 429")
	}
}

// TestDrainRejectionHasRetryAfter: a sync request to a draining server
// gets a 503 carrying a Retry-After header so clients know to back off
// and come back, counted in `rejected` (never in `rejected_queue`,
// which is the async queue's).
func TestDrainRejectionHasRetryAfter(t *testing.T) {
	s := New(Config{})
	s.Close()

	req := httptest.NewRequest(http.MethodPost, "/v1/schedule",
		strings.NewReader(`{"fixture":"g2","deadline":75}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("503 Retry-After = %q, want %q", got, "1")
	}
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
	if m.RejectedQueue != 0 {
		t.Fatalf("capacity rejection leaked into rejected_queue (= %d)", m.RejectedQueue)
	}
}

// TestJobAbort: a queued job aborted over the API never runs; pollers
// and streamers both observe the aborted terminal state.
func TestJobAbort(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 1, QueueWorkers: 1})

	if _, resp := submitJob(t, ts.URL, slowJob(100)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier: status %d", resp.StatusCode)
	}
	queued, resp := submitJob(t, ts.URL, slowJob(101))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var aborted wire.JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&aborted); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if aborted.State != wire.StateAborted {
		t.Fatalf("DELETE returned state %q, want aborted", aborted.State)
	}

	final := pollUntil(t, ts.URL, queued.ID, terminal)
	if final.State != wire.StateAborted || final.Error == "" || final.Result != nil {
		t.Fatalf("polled state %+v, want aborted with error and no result", final)
	}
	sresp, sbody := get(t, ts.URL+"/v1/jobs/"+queued.ID+"/stream")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	var line wire.Result
	if err := json.Unmarshal(bytes.TrimSpace(sbody), &line); err != nil {
		t.Fatalf("bad stream line %q: %v", sbody, err)
	}
	if line.Code != wire.CodeAborted {
		t.Fatalf("stream line code %q, want %q", line.Code, wire.CodeAborted)
	}
	if st := s.Metrics().JobsAsync; st.Aborted != 1 {
		t.Fatalf("aborted counter = %d, want 1", st.Aborted)
	}
}

// TestJobTTLExpires: a job whose ttl_ms lapses while stuck in the queue
// lands in the expired terminal state with the expired result code.
func TestJobTTLExpires(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 1, QueueWorkers: 1})

	if _, resp := submitJob(t, ts.URL, slowJob(200)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier: status %d", resp.StatusCode)
	}
	ttlJob := `{"fixture":"g3","deadline":229,"strategy":"multistart","restarts":4000,"seed":201,"ttl_ms":25}`
	st, resp := submitJob(t, ts.URL, ttlJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ttl submit: status %d", resp.StatusCode)
	}
	final := pollUntil(t, ts.URL, st.ID, terminal)
	if final.State != wire.StateExpired || final.Error == "" {
		t.Fatalf("final = %+v, want expired with error", final)
	}
	sresp, sbody := get(t, ts.URL+"/v1/jobs/"+st.ID+"/stream")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	var line wire.Result
	if err := json.Unmarshal(bytes.TrimSpace(sbody), &line); err != nil {
		t.Fatal(err)
	}
	if line.Code != wire.CodeExpired {
		t.Fatalf("stream code %q, want %q", line.Code, wire.CodeExpired)
	}
	if stats := s.Metrics().JobsAsync; stats.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", stats.Expired)
	}
}

// TestCloseDrainsQueueMidBacklog is the clean-SIGTERM story: Close with
// a running job and a backlog aborts the queued jobs without running
// them, cancels the running one, and every concurrent streamer gets a
// terminal line instead of a hang.
func TestCloseDrainsQueueMidBacklog(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 1, QueueWorkers: 1})

	const backlog = 5
	ids := make([]string, 0, backlog+1)
	for i := 0; i <= backlog; i++ {
		st, resp := submitJob(t, ts.URL, slowJob(300+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}

	// Concurrent streamers waiting on every job while we pull the plug.
	type streamed struct {
		id   string
		line wire.Result
		err  error
	}
	results := make(chan streamed, len(ids))
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				results <- streamed{id: id, err: err}
				return
			}
			defer resp.Body.Close()
			var line wire.Result
			err = json.NewDecoder(resp.Body).Decode(&line)
			results <- streamed{id: id, line: line, err: err}
		}(id)
	}
	time.Sleep(20 * time.Millisecond) // let the streams attach
	s.Close()
	wg.Wait()
	close(results)

	for r := range results {
		if r.err != nil {
			t.Fatalf("stream %s: %v", r.id, r.err)
		}
		// The running job may have finished before the drain caught it;
		// everything else must be aborted. Nothing may hang or vanish.
		if r.line.Code != wire.CodeAborted && r.line.Error != "" {
			t.Fatalf("stream %s: unexpected line %+v", r.id, r.line)
		}
	}
	stats := s.Metrics().JobsAsync
	if got := stats.Done + stats.Aborted; got != uint64(len(ids)) {
		t.Fatalf("done(%d)+aborted(%d) = %d, want %d terminal jobs", stats.Done, stats.Aborted, got, len(ids))
	}
	if stats.Aborted < backlog {
		t.Fatalf("aborted = %d, want at least the %d queued jobs", stats.Aborted, backlog)
	}
	if stats.Queued != 0 || stats.Running != 0 {
		t.Fatalf("live population after drain: %+v", stats)
	}

	// And admission is closed: new submissions get 503 + Retry-After.
	_, resp := submitJob(t, ts.URL, slowJob(999))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("post-drain 503 without Retry-After")
	}
}

// TestJobStreamSSE: an Accept: text/event-stream client gets SSE
// framing — data:-prefixed payload, blank-line terminated, the SSE
// content type — carrying the same JSON the NDJSON framing sends.
func TestJobStreamSSE(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	st, _ := submitJob(t, ts.URL, `{"fixture":"g2","deadline":75}`)
	pollUntil(t, ts.URL, st.ID, terminal)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	if !strings.HasPrefix(text, "data: {") || !strings.HasSuffix(text, "\n\n") {
		t.Fatalf("not SSE framed: %q", text)
	}
	var line wire.Result
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(text), "data: ")), &line); err != nil {
		t.Fatalf("SSE payload not a result: %v", err)
	}
	if line.Error != "" {
		t.Fatalf("unexpected result error: %s", line.Error)
	}
}

// TestJobSubmitCoalesces: identical submissions share one entry — the
// second submit returns the same id, and once done, resubmission
// answers 200 immediately from retention.
func TestJobSubmitCoalesces(t *testing.T) {
	s, ts := newJobsServer(t, Config{Workers: 1, QueueWorkers: 1})

	occupier, resp := submitJob(t, ts.URL, slowJob(400))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier: status %d", resp.StatusCode)
	}
	first, resp1 := submitJob(t, ts.URL, slowJob(401))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first: status %d", resp1.StatusCode)
	}
	second, resp2 := submitJob(t, ts.URL, slowJob(401))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate: status %d", resp2.StatusCode)
	}
	if first.ID != second.ID {
		t.Fatalf("duplicate got id %s, want %s", second.ID, first.ID)
	}
	if st := s.Metrics().JobsAsync; st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
	// The occupier only had to hold the queue worker while the duplicate
	// coalesced; abort it so the poll below waits for one slow job, not
	// two back to back (under -race each takes most of the poll budget).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+occupier.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("abort occupier: status %d", dresp.StatusCode)
	}

	final := pollUntil(t, ts.URL, first.ID, terminal)
	if final.State != wire.StateDone {
		t.Fatalf("final state %q", final.State)
	}
	done, resp3 := submitJob(t, ts.URL, slowJob(401))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("resubmit-after-done: status %d, want 200", resp3.StatusCode)
	}
	if done.State != wire.StateDone || done.Result == nil {
		t.Fatalf("resubmit answered %+v, want retained done result", done)
	}
}

// TestJobGetUnknown404: polling, aborting or streaming an unknown id is
// a 404, not a hang.
func TestJobGetUnknown404(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 1})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/deadbeef"},
		{http.MethodDelete, "/v1/jobs/deadbeef"},
		{http.MethodGet, "/v1/jobs/deadbeef/stream"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestJobsBatchSubmit: the non-streaming batch submit returns one
// status per line, bad lines carrying their error without sinking the
// rest.
func TestJobsBatchSubmit(t *testing.T) {
	_, ts := newJobsServer(t, Config{Workers: 2})
	batch := `{"fixture":"g3","deadline":230}
{"deadline":10}
{"fixture":"g2","deadline":75,"priority":11}
{"fixture":"g2","deadline":75}
`
	resp, body := post(t, ts.URL+"/v1/jobs/batch", batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var statuses []wire.JobStatus
	if err := json.Unmarshal(body, &statuses); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	if len(statuses) != 4 {
		t.Fatalf("got %d statuses, want 4", len(statuses))
	}
	if statuses[0].ID == "" || statuses[0].Error != "" {
		t.Fatalf("line 0 should have been admitted: %+v", statuses[0])
	}
	if statuses[1].Error == "" || statuses[1].ID != "" {
		t.Fatalf("line 1 (no graph) should carry a decode error: %+v", statuses[1])
	}
	if statuses[2].Error == "" || !strings.Contains(statuses[2].Error, "priority") {
		t.Fatalf("line 2 (priority 11) should carry a validation error: %+v", statuses[2])
	}
	if statuses[3].ID == "" {
		t.Fatalf("line 3 should have been admitted: %+v", statuses[3])
	}
	// The good lines complete.
	pollUntil(t, ts.URL, statuses[0].ID, terminal)
	pollUntil(t, ts.URL, statuses[3].ID, terminal)
}
