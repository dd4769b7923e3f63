package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/wire"
)

// TestScheduleBatterySpecRoundTrip is the tentpole's acceptance proof
// over HTTP: a kibam-battery job schedules, the repeat answers from
// cache with a byte-identical body (X-Cache: hit), and the /metrics
// per-model-kind counters account for every served job.
func TestScheduleBatterySpecRoundTrip(t *testing.T) {
	s, ts := newTestServer(t)
	const body = `{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`

	resp1, data1 := post(t, ts.URL+"/v1/schedule", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, data1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	var r1 wire.Result
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatalf("bad result body %q: %v", data1, err)
	}
	if r1.Error != "" || r1.Cost <= 0 || len(r1.Order) != 15 {
		t.Fatalf("implausible kibam schedule: %+v", r1)
	}

	resp2, data2 := post(t, ts.URL+"/v1/schedule", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("cached kibam body differs:\nmiss: %s\nhit:  %s", data1, data2)
	}

	// The kibam job landed on its own cache entry, not the default
	// Rakhmatov one: the same graph/deadline without the spec computes
	// (a miss), and under a different model.
	resp3, data3 := post(t, ts.URL+"/v1/schedule", `{"fixture":"g3","deadline":230}`)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("default-model request X-Cache = %q, want miss (no false sharing)", got)
	}
	var r3 wire.Result
	if err := json.Unmarshal(data3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cost == r1.Cost {
		t.Fatalf("kibam and default costs both %g — the spec never reached the cost function", r1.Cost)
	}

	// Per-kind counters: 2 kibam jobs served (miss + hit), 1 rakhmatov.
	snap := s.Metrics()
	if snap.ModelKinds[battery.KindKiBaM] != 2 || snap.ModelKinds[battery.KindRakhmatov] != 1 {
		t.Fatalf("model_kinds = %v, want kibam:2 rakhmatov:1", snap.ModelKinds)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	var served MetricsSnapshot
	if err := json.Unmarshal(metricsBody, &served); err != nil {
		t.Fatalf("bad /metrics body %q: %v", metricsBody, err)
	}
	if served.ModelKinds[battery.KindKiBaM] != 2 {
		t.Fatalf("/metrics model_kinds = %v, want kibam:2", served.ModelKinds)
	}
}

// TestBatchBatterySpecs: a mixed-model NDJSON batch over HTTP — every
// kind in one request, per-line errors for invalid specs, per-kind
// metrics matching what was served.
func TestBatchBatterySpecs(t *testing.T) {
	s, ts := newTestServer(t)
	lines := []string{
		`{"name":"rv","fixture":"g3","deadline":230}`,
		`{"name":"id","fixture":"g3","deadline":230,"battery":{"kind":"ideal"}}`,
		`{"name":"pk","fixture":"g3","deadline":230,"battery":{"kind":"peukert","exponent":1.2}}`,
		`{"name":"kb","fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`,
		`{"name":"cal","fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478},{"current":200,"lifetime":228.9}]}}`,
		`{"name":"bad","fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":-1,"well_fraction":0.5,"rate_constant":0.1}}`,
	}
	resp, data := post(t, ts.URL+"/v1/batch", strings.Join(lines, "\n"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}

	var results []wire.Result
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r wire.Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != len(lines) {
		t.Fatalf("got %d results for %d lines", len(results), len(lines))
	}
	costs := map[string]float64{}
	for _, r := range results {
		if r.Name == "bad" {
			if r.Error == "" || !strings.Contains(r.Error, "capacity") {
				t.Fatalf("invalid spec line must carry its validation error, got %+v", r)
			}
			continue
		}
		if r.Error != "" {
			t.Fatalf("job %q failed: %s", r.Name, r.Error)
		}
		costs[r.Name] = r.Cost
	}
	// Each model kind produced its own cost on the same graph.
	seen := map[float64]string{}
	for name, c := range costs {
		if prev, dup := seen[c]; dup {
			t.Fatalf("jobs %q and %q share cost %g — models not distinguished", prev, name, c)
		}
		seen[c] = name
	}

	// The invalid line never reached the engine, so it is not
	// attributed to a model kind; the five valid ones were.
	snap := s.Metrics()
	var kindTotal uint64
	for _, n := range snap.ModelKinds {
		kindTotal += n
	}
	if kindTotal != 5 {
		t.Fatalf("model_kinds total %d, want 5: %v", kindTotal, snap.ModelKinds)
	}
	for _, kind := range battery.Kinds() {
		if snap.ModelKinds[kind] != 1 {
			t.Fatalf("model_kinds[%s] = %d, want 1: %v", kind, snap.ModelKinds[kind], snap.ModelKinds)
		}
	}
}

// TestDefaultBatteryConfig: -battery on the daemon applies to jobs that
// choose no battery, and only to those.
func TestDefaultBatteryConfig(t *testing.T) {
	spec := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	s := New(Config{Workers: 2, DefaultBattery: &spec})
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	ts := hts.URL

	_, dataDefault := post(t, ts+"/v1/schedule", `{"fixture":"g3","deadline":230}`)
	var viaDefault wire.Result
	if err := json.Unmarshal(dataDefault, &viaDefault); err != nil || viaDefault.Error != "" {
		t.Fatalf("default-battery job: %v %s", err, dataDefault)
	}
	_, dataExplicit := post(t, ts+"/v1/schedule", `{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`)
	if !bytes.Equal(trimIndex(t, dataDefault), trimIndex(t, dataExplicit)) {
		t.Fatalf("daemon default battery must equal the explicit spec:\n%s\n%s", dataDefault, dataExplicit)
	}

	// A job naming its own battery keeps it.
	_, dataBeta := post(t, ts+"/v1/schedule", `{"fixture":"g3","deadline":230,"beta":0.5}`)
	var viaBeta wire.Result
	if err := json.Unmarshal(dataBeta, &viaBeta); err != nil || viaBeta.Error != "" {
		t.Fatalf("beta job under default battery: %v %s", err, dataBeta)
	}
	if viaBeta.Cost == viaDefault.Cost {
		t.Fatal("explicit beta job must not inherit the daemon default battery")
	}
	snap := s.Metrics()
	if snap.ModelKinds[battery.KindKiBaM] != 2 || snap.ModelKinds[battery.KindRakhmatov] != 1 {
		t.Fatalf("model_kinds = %v, want kibam:2 rakhmatov:1", snap.ModelKinds)
	}

	// Misconfiguration fails at startup, not per request.
	defer func() {
		if recover() == nil {
			t.Fatal("New with an invalid DefaultBattery must panic")
		}
	}()
	New(Config{DefaultBattery: &battery.Spec{Kind: "fluxcap"}})
}

// trimIndex strips result fields that legitimately differ between
// requests (none here — index is 0 for both — but decoding and
// re-encoding normalizes whitespace for the comparison).
func trimIndex(t *testing.T, data []byte) []byte {
	t.Helper()
	var r wire.Result
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad body %q: %v", data, err)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
