package cache

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// specJob builds a G3 job costed under the given declarative battery.
func specJob(name string, spec battery.Spec) engine.Job {
	return engine.Job{
		Name:     name,
		Graph:    taskgraph.G3(),
		Deadline: 230,
		Options:  core.Options{Battery: &spec},
	}
}

// TestKeySpecCacheable pins the tentpole's cache contract: every
// declarative model kind is cacheable, distinct specs on the same graph
// produce distinct keys (no false sharing), equivalent spellings share
// a key, and the beta shorthand lands on the same entry as its
// rakhmatov spec.
func TestKeySpecCacheable(t *testing.T) {
	kibam := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	peukert := battery.Spec{Kind: battery.KindPeukert, Exponent: 1.2, RefCurrent: 100}
	calibrated := battery.Spec{Kind: battery.KindCalibrated, Observations: []battery.Observation{
		{Current: 100, Lifetime: 478}, {Current: 200, Lifetime: 228.9}}}

	keys := map[string]string{}
	for name, spec := range map[string]battery.Spec{
		"rakhmatov":  battery.DefaultSpec(),
		"ideal":      {Kind: battery.KindIdeal},
		"peukert":    peukert,
		"kibam":      kibam,
		"kibam-2":    {Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.6, RateConstant: 0.1},
		"calibrated": calibrated,
	} {
		k, ok := Key(specJob("j", spec))
		if !ok {
			t.Fatalf("%s spec job must be cacheable", name)
		}
		for prev, pk := range keys {
			if pk == k {
				t.Fatalf("specs %s and %s share a key — false sharing", prev, name)
			}
		}
		keys[name] = k
	}

	// The default spec and the spec-less default configuration share an
	// entry (the wire's beta shorthand is covered in internal/wire).
	base, _ := Key(engine.Job{Graph: taskgraph.G3(), Deadline: 230})
	if keys["rakhmatov"] != base {
		t.Fatal("default spec must share the spec-less default's entry")
	}

	// Job names are labels, not content.
	renamed, _ := Key(specJob("other-label", kibam))
	if renamed != keys["kibam"] {
		t.Fatal("job name must not reach a spec job's key")
	}
}

// TestEngineSpecColdWarmByteIdentical is the satellite's end-to-end
// proof: a batch of kibam and peukert jobs runs byte-identical through
// cache.Engine cold (all computed) and warm (all served from memory) —
// compared on the encoded wire-level JSON bytes, the strongest form of
// "the cache changes wall-clock only". Distinct specs on the same graph
// stay distinct results, so there is no false sharing to hide behind.
func TestEngineSpecColdWarmByteIdentical(t *testing.T) {
	kibam := battery.Spec{Kind: battery.KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
	peukert := battery.Spec{Kind: battery.KindPeukert, Exponent: 1.2, RefCurrent: 100}
	jobs := []engine.Job{
		specJob("kibam", kibam),
		specJob("peukert", peukert),
		specJob("kibam-again", kibam), // in-batch repeat: single-flight or stored hit
	}

	ce := Engine{Cache: New(0), Workers: 2}
	cold, coldHits := ce.RunBatch(jobs)
	warm, warmHits := ce.RunBatch(jobs)

	encode := func(results []engine.Result) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %q failed: %v", r.Name, r.Err)
			}
			if err := enc.Encode(struct {
				Name       string
				Strategy   string
				Cost       float64
				Duration   float64
				Energy     float64
				Iterations int
				Order      []int
				Assignment map[int]int
			}{r.Name, r.Strategy, r.Cost, r.Duration, r.Energy, r.Iterations, r.Schedule.Order, r.Schedule.Assignment}); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(cold), encode(warm)) {
		t.Fatalf("cold and warm spec batches differ:\ncold %s\nwarm %s", encode(cold), encode(warm))
	}

	// Warm pass: everything answers from the cache.
	for i, h := range warmHits {
		if !h {
			t.Fatalf("warm pass job %d (%s) was not a cache hit", i, jobs[i].Name)
		}
	}
	_ = coldHits // the in-batch repeat may dedup or hit; either is fine
	if st := ce.Cache.Stats(); st.Bypasses != 0 {
		t.Fatalf("spec jobs must not bypass the cache, got %d bypasses", st.Bypasses)
	}

	// The two specs computed different answers on the same graph —
	// distinct keys carried distinct results.
	if cold[0].Cost == cold[1].Cost {
		t.Fatalf("kibam and peukert costs both %g — models did not reach the cost function", cold[0].Cost)
	}
	if cold[0].Cost != cold[2].Cost {
		t.Fatal("identical kibam jobs disagree")
	}

	// Results match the uncached engine's, the drop-in guarantee.
	want := engine.RunBatch(jobs, 2)
	for i := range want {
		if !resultsEquivalent(want[i], cold[i]) {
			t.Fatalf("job %d: cached result differs from uncached:\nwant %+v\ngot  %+v", i, want[i], cold[i])
		}
	}
}
