package wire

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// decodeAndResolve is the full decode-time gate every front end runs:
// strict parse, then validation + graph resolution in ToEngine.
func decodeAndResolve(line string) error {
	j, err := DecodeJob([]byte(line))
	if err != nil {
		return err
	}
	_, err = j.ToEngine()
	return err
}

// TestDecodeJobRejectsBadInput is the decode-time gate: malformed JSON,
// non-finite numbers and invalid graphs must all fail with a clear
// error before any scheduling work starts.
func TestDecodeJobRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		line string
		want string // substring of the error, "" = must succeed
	}{
		{"ok fixture", `{"fixture":"g3","deadline":230}`, ""},
		{"ok inline graph", `{"graph":{"tasks":[{"id":1,"points":[{"current":10,"time":1}]}]},"deadline":5}`, ""},
		{"malformed json", `this is not json`, "invalid character"},
		{"unknown field", `{"fixture":"g3","deadline":230,"bogus":1}`, "unknown field"},
		{"NaN deadline", `{"fixture":"g3","deadline":NaN}`, "invalid character"},
		{"Inf deadline", `{"fixture":"g3","deadline":Infinity}`, "invalid character"},
		{"overflowing deadline", `{"fixture":"g3","deadline":1e999}`, ""}, // error text differs by Go version; checked below
		{"zero deadline", `{"fixture":"g3","deadline":0}`, "must be positive"},
		{"negative deadline", `{"fixture":"g3","deadline":-5}`, "must be positive"},
		{"missing deadline", `{"fixture":"g3"}`, "must be positive"},
		{"negative beta", `{"fixture":"g3","deadline":230,"beta":-0.1}`, "\"beta\""},
		{"negative restarts", `{"fixture":"g3","deadline":230,"restarts":-1}`, "\"restarts\""},
		{"restarts over cap", `{"fixture":"g3","deadline":230,"restarts":2000000000}`, "\"restarts\""},
		{"restart_workers over cap", `{"fixture":"g3","deadline":230,"restart_workers":100000}`, "\"restart_workers\""},
		{"negative timeout_ms", `{"fixture":"g3","deadline":230,"timeout_ms":-1}`, "\"timeout_ms\""},
		{"timeout_ms over cap", `{"fixture":"g3","deadline":230,"timeout_ms":18446744073710}`, "\"timeout_ms\""},
		{"ok timeout_ms", `{"fixture":"g3","deadline":230,"timeout_ms":1500}`, ""},
		{"both graph and fixture", `{"fixture":"g3","graph":{"tasks":[]},"deadline":230}`, "both"},
		{"neither graph nor fixture", `{"deadline":230}`, "needs a"},
		{"negative current", `{"graph":{"tasks":[{"id":1,"points":[{"current":-10,"time":1}]}]},"deadline":5}`, "current must be finite and non-negative"},
		{"zero time", `{"graph":{"tasks":[{"id":1,"points":[{"current":10,"time":0}]}]},"deadline":5}`, "time must be finite and positive"},
		{"trailing data", `{"fixture":"g3","deadline":230}{"fixture":"g2","deadline":75}`, "trailing data"},
		{"ok battery kibam", `{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":0.1}}`, ""},
		{"ok battery ideal", `{"fixture":"g3","deadline":230,"battery":{"kind":"ideal"}}`, ""},
		{"ok battery calibrated", `{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[{"current":100,"lifetime":478},{"current":200,"lifetime":228.9}]}}`, ""},
		{"battery missing kind", `{"fixture":"g3","deadline":230,"battery":{}}`, "missing \"kind\""},
		{"battery unknown kind", `{"fixture":"g3","deadline":230,"battery":{"kind":"fluxcap"}}`, "unknown spec kind"},
		{"battery unknown field", `{"fixture":"g3","deadline":230,"battery":{"kind":"ideal","volts":3.3}}`, "unknown field"},
		{"battery negative beta", `{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":-0.2}}`, "\"beta\""},
		{"battery overflowing beta", `{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":1e999}}`, ""}, // decode-time range error; text varies
		{"battery kibam bad rate", `{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":40000,"well_fraction":0.5,"rate_constant":-0.1}}`, "\"rate_constant\""},
		{"battery foreign param", `{"fixture":"g3","deadline":230,"battery":{"kind":"ideal","beta":0.3}}`, "does not take parameter"},
		{"battery and beta", `{"fixture":"g3","deadline":230,"beta":0.3,"battery":{"kind":"ideal"}}`, "both \"beta\" and \"battery\""},
		{"points at cap", `{"graph":{"tasks":[{"id":1,"points":[` + points(MaxPointsPerTask) + `]}]},"deadline":5000}`, ""},
		{"points over cap", `{"graph":{"tasks":[{"id":1,"points":[` + points(MaxPointsPerTask+1) + `]}]},"deadline":5000}`, "task 1 must hold at most 64 \"points\", got 65"},
		{"tasks at cap", `{"graph":{"tasks":[` + tasks(MaxTasks) + `]},"deadline":1e9}`, ""},
		{"tasks over cap", `{"graph":{"tasks":[` + tasks(MaxTasks+1) + `]},"deadline":1e9}`, "must hold at most 10000 \"tasks\", got 10001"},
	} {
		err := decodeAndResolve(tc.line)
		overflowing := strings.Contains(tc.name, "overflowing")
		if tc.want == "" && !overflowing {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if overflowing {
			if err == nil {
				t.Errorf("%s: error expected (decode-time range or finiteness check)", tc.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// points renders m design points with distinct times and falling
// currents, comma-separated.
func points(m int) string {
	var b strings.Builder
	for i := 0; i < m; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"current":%d,"time":%d}`, 1000-i, 1+i)
	}
	return b.String()
}

// tasks renders n one-point tasks with IDs 1..n, comma-separated.
func tasks(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"points":[{"current":10,"time":1}]}`, i)
	}
	return b.String()
}

// TestValidateCatchesNonFiniteProgrammatic covers NaN/Inf injected via
// the Go API, which strict JSON cannot carry.
func TestValidateCatchesNonFiniteProgrammatic(t *testing.T) {
	spec := taskgraph.G2().ToSpec("g2")
	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"NaN deadline", Job{Fixture: "g3", Deadline: math.NaN()}, "finite"},
		{"+Inf deadline", Job{Fixture: "g3", Deadline: math.Inf(1)}, "finite"},
		{"-Inf deadline", Job{Fixture: "g3", Deadline: math.Inf(-1)}, "finite"},
		{"NaN beta", Job{Fixture: "g3", Deadline: 230, Beta: math.NaN()}, "\"beta\""},
		{"Inf beta", Job{Fixture: "g3", Deadline: 230, Beta: math.Inf(1)}, "\"beta\""},
		{"NaN spec beta", Job{Fixture: "g3", Deadline: 230,
			Battery: &battery.Spec{Kind: battery.KindRakhmatov, Beta: math.NaN()}}, "\"beta\""},
		{"Inf spec capacity", Job{Fixture: "g3", Deadline: 230,
			Battery: &battery.Spec{Kind: battery.KindKiBaM, Capacity: math.Inf(1), WellFraction: 0.5, RateConstant: 0.1}}, "\"capacity\""},
		{"NaN spec observation", Job{Fixture: "g3", Deadline: 230,
			Battery: &battery.Spec{Kind: battery.KindCalibrated, Observations: []battery.Observation{
				{Current: math.NaN(), Lifetime: 478}, {Current: 200, Lifetime: 228.9}}}}, "observation 0"},
	} {
		err := tc.job.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A NaN current in an inline graph is caught when ToEngine builds
	// the graph (the taskgraph builder owns the point rules).
	bad := spec
	bad.Tasks = append([]taskgraph.TaskSpec(nil), spec.Tasks...)
	pts := append([]taskgraph.PointSpec(nil), bad.Tasks[0].Points...)
	pts[0].Current = math.NaN()
	bad.Tasks[0] = taskgraph.TaskSpec{ID: bad.Tasks[0].ID, Points: pts, Parents: bad.Tasks[0].Parents}
	_, err := Job{Graph: &bad, Deadline: 75}.ToEngine()
	if err == nil || !strings.Contains(err.Error(), "current must be finite") {
		t.Errorf("NaN current: err = %v, want current error", err)
	}
}

// TestToEngineResolvesGraphs checks the fixture and inline paths and the
// strategy gate.
func TestToEngineResolvesGraphs(t *testing.T) {
	job, err := (Job{Fixture: "G2", Deadline: 75}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if job.Graph == nil || job.Graph.N() != taskgraph.G2().N() {
		t.Fatalf("fixture graph not resolved: %+v", job)
	}

	spec := taskgraph.G3().ToSpec("inline")
	job, err = (Job{Graph: &spec, Deadline: 230, Strategy: "multistart", Restarts: 4, Seed: 9}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if job.Graph == nil || job.Graph.N() != 15 || job.MultiStart.Restarts != 4 {
		t.Fatalf("inline graph not resolved: %+v", job)
	}

	if _, err := (Job{Fixture: "g2", Deadline: 75, Strategy: "nonsense"}).ToEngine(); err == nil {
		t.Fatal("unknown strategy must be rejected at decode time")
	}
	if _, err := (Job{Fixture: "nope", Deadline: 75}).ToEngine(); err == nil {
		t.Fatal("unknown fixture must be rejected")
	}

	job, err = (Job{Fixture: "g2", Deadline: 75, TimeoutMS: 250}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if job.Timeout != 250*time.Millisecond {
		t.Fatalf("timeout_ms not resolved: %v", job.Timeout)
	}
}

// TestToEngineForwardsBattery: a wire battery spec rides into the
// engine job's options and the resulting job is executable end to end.
func TestToEngineForwardsBattery(t *testing.T) {
	spec := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	job, err := (Job{Fixture: "g3", Deadline: 230, Battery: &spec}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if job.Options.Battery == nil || job.Options.Battery.Kind != battery.KindKiBaM {
		t.Fatalf("battery spec not forwarded: %+v", job.Options)
	}
	res := engine.RunBatch([]engine.Job{job}, 1)[0]
	if res.Err != nil {
		t.Fatalf("kibam job failed: %v", res.Err)
	}
	// The cost differs from the default Rakhmatov battery's — the spec
	// actually reached the cost function.
	def, err := (Job{Fixture: "g3", Deadline: 230}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	defRes := engine.RunBatch([]engine.Job{def}, 1)[0]
	if defRes.Err != nil {
		t.Fatal(defRes.Err)
	}
	if res.Cost == defRes.Cost {
		t.Fatalf("kibam cost %g equals default cost — spec ignored", res.Cost)
	}
}

// TestFromEngineCanceledCode: a canceled job converts with the machine-
// readable "canceled" code; ordinary failures and successes carry none.
func TestFromEngineCanceledCode(t *testing.T) {
	canceled := FromEngine(3, engine.Result{Name: "x", Err: fmt.Errorf("%w: context canceled", engine.ErrCanceled)})
	if canceled.Code != CodeCanceled || canceled.Error == "" || canceled.Index != 3 {
		t.Fatalf("canceled result converted wrong: %+v", canceled)
	}
	plain := FromEngine(0, engine.Result{Err: errors.New("boom")})
	if plain.Code != "" {
		t.Fatalf("ordinary failure must carry no code: %+v", plain)
	}
	ok := FromEngine(0, engine.RunBatch([]engine.Job{{Graph: taskgraph.G2(), Deadline: 75}}, 1)[0])
	if ok.Code != "" || ok.Error != "" {
		t.Fatalf("success must carry no code: %+v", ok)
	}
}

// TestDecodeJobsLines pins DecodeJobs' line rules: blank and
// whitespace-only lines are skipped, CRLF endings and a missing final
// newline are fine, and a bad line keeps its slot — its error set, its
// placeholder job graphless — between clean neighbours.
func TestDecodeJobsLines(t *testing.T) {
	body := "\n{\"name\":\"a\",\"fixture\":\"g2\",\"deadline\":75}\r\n  \t\n" +
		"{\"name\":\"b\",\"fixture\":\"g9\",\"deadline\":75}\n" +
		"{\"name\":\"c\",\"fixture\":\"g3\",\"deadline\":230}"
	wjobs, jobs, errs := DecodeJobs([]byte(body))
	if len(wjobs) != 3 || len(jobs) != 3 || len(errs) != 3 {
		t.Fatalf("got %d/%d/%d slots, want 3", len(wjobs), len(jobs), len(errs))
	}
	for i, name := range []string{"a", "b", "c"} {
		if wjobs[i].Name != name {
			t.Fatalf("slot %d holds %q, want %q", i, wjobs[i].Name, name)
		}
		if bad := name == "b"; (errs[i] != nil) != bad || (jobs[i].Graph == nil) != bad {
			t.Fatalf("slot %d: err %v, graph %v", i, errs[i], jobs[i].Graph != nil)
		}
	}
	if w, j, e := DecodeJobs(nil); w != nil || j != nil || e != nil {
		t.Fatal("an empty body must decode to no slots")
	}
}

// TestApplyDefaultBattery: the default spec fills only jobs that chose
// no battery model of their own.
func TestApplyDefaultBattery(t *testing.T) {
	def := &battery.Spec{Kind: battery.KindIdeal}
	own := &battery.Spec{Kind: battery.KindKiBaM}
	viaBeta, err := (Job{Fixture: "g3", Deadline: 230, Beta: 0.5}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		job  engine.Job
		want *battery.Spec
	}{
		{"none", engine.Job{}, def},
		{"battery", engine.Job{Options: core.Options{Battery: own}}, own},
		{"beta", viaBeta, viaBeta.Options.Battery},
	} {
		ApplyDefaultBattery(&tc.job, def)
		if tc.job.Options.Battery != tc.want {
			t.Errorf("%s: battery %v, want %v", tc.name, tc.job.Options.Battery, tc.want)
		}
		ApplyDefaultBattery(&tc.job, nil) // a nil default changes nothing
		if tc.job.Options.Battery != tc.want {
			t.Errorf("%s: nil default changed the battery", tc.name)
		}
	}
}

// TestBetaShorthandSharesCacheKey: ToEngine reads "beta" into the
// equivalent rakhmatov spec, so each shorthand job lands on the same
// cache entry as its spelled-out battery — and "beta":0 selects no
// battery at all, leaving the default to the front end.
func TestBetaShorthandSharesCacheKey(t *testing.T) {
	key := func(line string) string {
		t.Helper()
		j, err := DecodeJob([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		job, err := j.ToEngine()
		if err != nil {
			t.Fatal(err)
		}
		k, ok := cache.Key(job)
		if !ok {
			t.Fatalf("%s: not cacheable", line)
		}
		return k
	}
	for _, tc := range []struct{ name, beta, spec string }{
		{"beta-0.35",
			`{"fixture":"g3","deadline":230,"beta":0.35}`,
			`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":0.35}}`},
		{"beta-0.35-terms-spelled-out",
			`{"fixture":"g3","deadline":230,"beta":0.35}`,
			`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","beta":0.35,"terms":10}}`},
		{"paper-beta",
			`{"fixture":"g3","deadline":230,"beta":0.273}`,
			`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov"}}`},
		{"paper-beta-vs-no-battery",
			`{"fixture":"g3","deadline":230,"beta":0.273}`,
			`{"fixture":"g3","deadline":230}`},
		{"multistart",
			`{"fixture":"g2","deadline":75,"strategy":"multistart","restarts":4,"beta":0.5}`,
			`{"fixture":"g2","deadline":75,"strategy":"multistart","restarts":4,"battery":{"kind":"rakhmatov","beta":0.5}}`},
	} {
		if kb, ks := key(tc.beta), key(tc.spec); kb != ks {
			t.Errorf("%s: shorthand key %s != spec key %s", tc.name, kb, ks)
		}
	}
	if key(`{"fixture":"g3","deadline":230,"beta":0.35}`) == key(`{"fixture":"g3","deadline":230}`) {
		t.Error("beta 0.35 must not share the default battery's entry")
	}
	zero, err := (Job{Fixture: "g3", Deadline: 230, Beta: 0}).ToEngine()
	if err != nil {
		t.Fatal(err)
	}
	if zero.Options.Battery != nil {
		t.Errorf(`"beta":0 must select no battery, got %v`, zero.Options.Battery)
	}
}
