package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/wire"
)

func decodeReady(t *testing.T, data []byte) wire.Ready {
	t.Helper()
	var rep wire.Ready
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode /readyz body %q: %v", data, err)
	}
	return rep
}

// TestReadyzOK: a healthy server with no disk tier is ok, with the disk
// subsystem reported disabled (not degraded).
func TestReadyzOK(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	rep := decodeReady(t, data)
	if rep.Status != wire.ReadyOK {
		t.Errorf("status = %q, want ok", rep.Status)
	}
	if got := rep.Subsystems["disk"].Status; got != wire.ReadyDisabled {
		t.Errorf("disk subsystem = %q, want disabled", got)
	}
	if got := rep.Subsystems["queue"].Status; got != wire.ReadyOK {
		t.Errorf("queue subsystem = %q, want ok", got)
	}
}

// TestReadyzDiskOK: with a healthy disk tier the disk subsystem is ok.
func TestReadyzDiskOK(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, CacheStore: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close() // stops the cache's disk writer

	resp, data := get(t, ts.URL+"/readyz")
	rep := decodeReady(t, data)
	if resp.StatusCode != http.StatusOK || rep.Status != wire.ReadyOK {
		t.Fatalf("healthy disk: status=%d body status=%q, want 200/ok", resp.StatusCode, rep.Status)
	}
	if got := rep.Subsystems["disk"].Status; got != wire.ReadyOK {
		t.Errorf("disk subsystem = %q, want ok", got)
	}
}

// TestReadyzDegraded is the graceful-degradation story end to end: a
// disk failing every write trips the breaker; /readyz flips to degraded
// (still 200 — the process serves), /metrics exposes the breaker state,
// and scheduling requests keep answering.
func TestReadyzDegraded(t *testing.T) {
	in := fault.NewInjector(fault.OS,
		fault.Rule{Op: fault.OpSync, Every: 1, Err: syscall.EIO})
	st, _, err := store.OpenFS(t.TempDir(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:    2,
		CacheStore: st,
		DiskBreaker: cache.BreakerConfig{
			Threshold: 3, Window: time.Minute, Probe: time.Hour,
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three distinct computations → three failed write-behind puts →
	// trip. Draining the cache's writer makes the trip happen before
	// /readyz is read; later writes run synchronously.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"fixture":"g3","deadline":%d,"strategy":"iterative"}`, 230+i)
		resp, _ := post(t, ts.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %d: status %d", i, resp.StatusCode)
		}
	}
	s.Cache().Close()

	resp, data := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while degraded: status %d, want 200 (degraded still serves)", resp.StatusCode)
	}
	rep := decodeReady(t, data)
	if rep.Status != wire.ReadyDegraded {
		t.Fatalf("status = %q, want degraded", rep.Status)
	}
	disk := rep.Subsystems["disk"]
	if disk.Status != wire.ReadyDegraded || !strings.Contains(disk.Detail, "breaker open") {
		t.Errorf("disk subsystem = %+v, want degraded with breaker detail", disk)
	}

	// /metrics shows the same story.
	var snap MetricsSnapshot
	_, mdata := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache == nil || snap.Cache.DiskBreakerState != "open" {
		t.Errorf("metrics disk_breaker_state = %v, want open", snap.Cache)
	}
	if snap.Cache.DiskBreakerOpen != 1 {
		t.Errorf("metrics disk_breaker_open = %d, want 1", snap.Cache.DiskBreakerOpen)
	}

	// Degraded serving: repeats hit memory, new work computes.
	resp, _ = post(t, ts.URL+"/v1/schedule", `{"fixture":"g3","deadline":230,"strategy":"iterative"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule while degraded: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("memory tier while degraded: X-Cache = %q, want hit", got)
	}
}

// TestReadyzDraining: a closed server reports draining with 503 +
// Retry-After so orchestration pulls it from rotation.
func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t)
	s.Close()

	resp, data := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /readyz lacks Retry-After")
	}
	rep := decodeReady(t, data)
	if rep.Status != wire.ReadyDraining {
		t.Errorf("status = %q, want draining", rep.Status)
	}
	if got := rep.Subsystems["queue"].Status; got != wire.ReadyDraining {
		t.Errorf("queue subsystem = %q, want draining", got)
	}
}

// TestBatchDrainRetryAfter is the Retry-After sweep regression: a jobs
// batch submitted to a draining server gets per-line 503-shaped
// rejections AND the response-level Retry-After header — previously
// only 429 (queue full) earned the header, teaching clients that drain
// rejections were permanent.
func TestBatchDrainRetryAfter(t *testing.T) {
	s, ts := newTestServer(t)
	s.Close()

	body := `{"fixture":"g3","deadline":230,"strategy":"iterative"}` + "\n"
	resp, data := post(t, ts.URL+"/v1/jobs/batch", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (per-line rejections)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining batch rejection lacks Retry-After")
	}
	var statuses []wire.JobStatus
	if err := json.Unmarshal(data, &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || !strings.Contains(statuses[0].Error, "shutting down") {
		t.Errorf("statuses = %+v, want one drain rejection", statuses)
	}
}
