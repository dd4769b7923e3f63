package battery

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// kibamSpec/peukertSpec/calibratedSpec are the valid non-default specs
// the tests share.
func kibamSpec() Spec {
	return Spec{Kind: KindKiBaM, Capacity: 40000, WellFraction: 0.5, RateConstant: 0.1}
}

func peukertSpec() Spec {
	return Spec{Kind: KindPeukert, Exponent: 1.2, RefCurrent: 100}
}

func calibratedSpec() Spec {
	return Spec{Kind: KindCalibrated, Observations: []Observation{
		{Current: 100, Lifetime: 478.0},
		{Current: 200, Lifetime: 228.9},
		{Current: 400, Lifetime: 106.4},
	}}
}

func TestSpecValidateAccepts(t *testing.T) {
	for _, s := range []Spec{
		DefaultSpec(),
		{Kind: KindRakhmatov},                       // defaults fill in
		{Kind: "  Rakhmatov "},                      // kind normalization
		{Kind: KindRakhmatov, Beta: 0.5, Terms: 32}, // explicit params
		{Kind: KindIdeal},
		{Kind: KindPeukert, Exponent: 1}, // ref_current defaults
		peukertSpec(),
		kibamSpec(),
		{Kind: KindKiBaM, Capacity: 1, WellFraction: 1, RateConstant: 1e-6},
		calibratedSpec(),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	obs2 := []Observation{{Current: 100, Lifetime: 478}, {Current: 200, Lifetime: 228.9}}
	cases := []struct {
		name string
		s    Spec
		want string // substring of the error
	}{
		{"zero value", Spec{}, "missing \"kind\""},
		{"unknown kind", Spec{Kind: "supercapacitor"}, "unknown spec kind"},
		{"NaN beta", Spec{Kind: KindRakhmatov, Beta: nan}, "\"beta\""},
		{"Inf beta", Spec{Kind: KindRakhmatov, Beta: inf}, "\"beta\""},
		{"negative beta", Spec{Kind: KindRakhmatov, Beta: -0.2}, "\"beta\""},
		{"negative terms", Spec{Kind: KindRakhmatov, Terms: -1}, "\"terms\""},
		{"huge terms", Spec{Kind: KindRakhmatov, Terms: MaxSeriesTerms + 1}, "\"terms\""},
		{"ideal with beta", Spec{Kind: KindIdeal, Beta: 0.3}, "does not take parameter \"beta\""},
		{"rakhmatov with capacity", Spec{Kind: KindRakhmatov, Capacity: 100}, "does not take parameter \"capacity\""},
		{"peukert missing exponent", Spec{Kind: KindPeukert}, "\"exponent\""},
		{"peukert exponent below 1", Spec{Kind: KindPeukert, Exponent: 0.9}, "\"exponent\""},
		{"peukert Inf exponent", Spec{Kind: KindPeukert, Exponent: inf}, "\"exponent\""},
		{"peukert negative iref", Spec{Kind: KindPeukert, Exponent: 1.2, RefCurrent: -1}, "\"ref_current\""},
		{"peukert with terms", Spec{Kind: KindPeukert, Exponent: 1.2, Terms: 5}, "does not take parameter \"terms\""},
		{"kibam missing capacity", Spec{Kind: KindKiBaM, WellFraction: 0.5, RateConstant: 0.1}, "\"capacity\""},
		{"kibam Inf capacity", Spec{Kind: KindKiBaM, Capacity: inf, WellFraction: 0.5, RateConstant: 0.1}, "\"capacity\""},
		{"kibam c over 1", Spec{Kind: KindKiBaM, Capacity: 100, WellFraction: 1.5, RateConstant: 0.1}, "\"well_fraction\""},
		{"kibam zero rate", Spec{Kind: KindKiBaM, Capacity: 100, WellFraction: 0.5}, "\"rate_constant\""},
		{"kibam negative rate", Spec{Kind: KindKiBaM, Capacity: 100, WellFraction: 0.5, RateConstant: -0.1}, "\"rate_constant\""},
		{"kibam NaN rate", Spec{Kind: KindKiBaM, Capacity: 100, WellFraction: 0.5, RateConstant: nan}, "\"rate_constant\""},
		{"calibrated no obs", Spec{Kind: KindCalibrated}, "at least 2 observations"},
		{"calibrated one obs", Spec{Kind: KindCalibrated, Observations: obs2[:1]}, "at least 2 observations"},
		{"calibrated same current", Spec{Kind: KindCalibrated, Observations: []Observation{
			{Current: 100, Lifetime: 478}, {Current: 100, Lifetime: 470}}}, "distinct currents"},
		{"calibrated negative lifetime", Spec{Kind: KindCalibrated, Observations: []Observation{
			{Current: 100, Lifetime: -478}, {Current: 200, Lifetime: 228.9}}}, "observation 0"},
		{"calibrated NaN current", Spec{Kind: KindCalibrated, Observations: []Observation{
			{Current: nan, Lifetime: 478}, {Current: 200, Lifetime: 228.9}}}, "observation 0"},
		{"calibrated with beta", Spec{Kind: KindCalibrated, Beta: 0.3, Observations: obs2}, "does not take parameter \"beta\""},
		{"calibrated too many obs", Spec{Kind: KindCalibrated, Observations: func() []Observation {
			out := make([]Observation, MaxObservations+1)
			for i := range out {
				out[i] = Observation{Current: float64(i + 1), Lifetime: 1}
			}
			return out
		}()}, "at most"},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.s)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if _, rerr := c.s.Resolve(); rerr == nil {
			t.Errorf("%s: Resolve accepted a spec Validate rejects", c.name)
		}
	}
}

// TestSpecResolveDefaultBitIdentical pins the default battery: the
// default spec resolves to exactly the paper's Rakhmatov model (beta
// 0.273, ten terms), so every sigma it computes is bit-identical to
// that model's.
func TestSpecResolveDefaultBitIdentical(t *testing.T) {
	m, err := DefaultSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := Rakhmatov{Beta: DefaultBeta, Terms: DefaultTerms}
	if m != want {
		t.Fatalf("DefaultSpec resolved to %#v, want %#v", m, want)
	}
	// A zero-parameter rakhmatov spec is the same battery.
	m2, err := Spec{Kind: KindRakhmatov}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != want {
		t.Fatalf("zero rakhmatov spec resolved to %#v, want %#v", m2, want)
	}
}

// TestSpecResolveMatchesConstructors: every spec resolves to exactly
// the model value its constructor builds, so scheduling with a spec is
// bit-identical to costing with that model. The cases cover the
// scheduler's spec suite and the four models of experiments'
// ModelComparison (its Peukert reference current is a quarter of the
// graph's peak current: 234.5 mA for the G2/G3 fixtures).
func TestSpecResolveMatchesConstructors(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want Model
	}{
		{"rakhmatov-beta", Spec{Kind: KindRakhmatov, Beta: 0.5}, NewRakhmatov(0.5)},
		{"ideal", Spec{Kind: KindIdeal}, Ideal{}},
		{"peukert", peukertSpec(), NewPeukert(1.2, 100)},
		{"kibam", kibamSpec(), NewKiBaM(40000, 0.5, 0.1)},
		{"modelcompare-rakhmatov", Spec{Kind: KindRakhmatov, Beta: DefaultBeta}, NewRakhmatov(DefaultBeta)},
		{"modelcompare-peukert", Spec{Kind: KindPeukert, Exponent: 1.2, RefCurrent: 938.0 / 4}, NewPeukert(1.2, 938.0/4)},
		{"modelcompare-kibam", Spec{Kind: KindKiBaM, Capacity: 1e6, WellFraction: 0.6, RateConstant: 0.05}, NewKiBaM(1e6, 0.6, 0.05)},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if m != c.want {
				t.Fatalf("%s resolved to %#v, want %#v", c.spec, m, c.want)
			}
		})
	}
	// Calibrated resolves to the same Rakhmatov the explicit fit yields.
	spec := calibratedSpec()
	_, beta, err := FitRakhmatov(spec.Observations)
	if err != nil {
		t.Fatal(err)
	}
	if m := spec.MustResolve(); m != (Rakhmatov{Beta: beta, Terms: DefaultTerms}) {
		t.Fatalf("calibrated spec resolved to %#v, want beta %g", m, beta)
	}
}

// TestSpecCanonicalBytes checks the hashing contract: canonicalization
// is encoding-invariant, equal-resolving specs encode equal, and
// distinct specs encode distinct.
func TestSpecCanonicalBytes(t *testing.T) {
	enc := func(s Spec) string { return string(s.AppendCanonical(nil)) }

	// Zero parameters and spelled-out defaults share an encoding.
	if enc(Spec{Kind: KindRakhmatov}) != enc(DefaultSpec()) {
		t.Fatal("zero rakhmatov spec and DefaultSpec encode differently")
	}
	if enc(Spec{Kind: "RAKHMATOV "}) != enc(DefaultSpec()) {
		t.Fatal("kind normalization does not reach the encoding")
	}
	if enc(Spec{Kind: KindPeukert, Exponent: 1.2}) != enc(peukertSpec()) {
		t.Fatal("peukert ref_current default does not reach the encoding")
	}

	// Distinct specs encode distinctly (no false sharing).
	distinct := []Spec{
		DefaultSpec(),
		{Kind: KindRakhmatov, Beta: 0.5},
		{Kind: KindRakhmatov, Terms: 12},
		{Kind: KindIdeal},
		peukertSpec(),
		{Kind: KindPeukert, Exponent: 1.3},
		kibamSpec(),
		{Kind: KindKiBaM, Capacity: 40000, WellFraction: 0.6, RateConstant: 0.1},
		calibratedSpec(),
		{Kind: KindCalibrated, Observations: calibratedSpec().Observations[:2]},
	}
	seen := map[string]Spec{}
	for _, s := range distinct {
		e := enc(s)
		if prev, dup := seen[e]; dup {
			t.Fatalf("specs %v and %v share canonical bytes", prev, s)
		}
		seen[e] = s
	}

	// AppendCanonical appends (no clobbering of the prefix).
	prefix := []byte("prefix")
	out := kibamSpec().AppendCanonical(prefix)
	if !bytes.HasPrefix(out, prefix) || string(out[len(prefix):]) != enc(kibamSpec()) {
		t.Fatal("AppendCanonical does not append to dst")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range []Spec{DefaultSpec(), {Kind: KindIdeal}, peukertSpec(), kibamSpec(), calibratedSpec()} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if string(back.AppendCanonical(nil)) != string(s.AppendCanonical(nil)) {
			t.Fatalf("JSON round trip changed the spec: %s -> %+v", data, back)
		}
	}
	// The wire field names are snake_case and stable.
	data, _ := json.Marshal(kibamSpec())
	for _, field := range []string{`"kind":"kibam"`, `"capacity":40000`, `"well_fraction":0.5`, `"rate_constant":0.1`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("kibam JSON %s missing %s", data, field)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"rakhmatov", DefaultSpec()},
		{"kind=rakhmatov,beta=0.35", Spec{Kind: KindRakhmatov, Beta: 0.35, Terms: DefaultTerms}},
		{"Rakhmatov,beta=0.35,terms=12", Spec{Kind: KindRakhmatov, Beta: 0.35, Terms: 12}},
		{"ideal", Spec{Kind: KindIdeal}},
		{"peukert,k=1.2,iref=100", peukertSpec()},
		{"peukert,exponent=1.2", peukertSpec()},
		{"kibam,capacity=40000,c=0.5,rate=0.1", kibamSpec()},
		{"kind=kibam,alpha=40000,well_fraction=0.5,rate_constant=0.1", kibamSpec()},
		{"calibrated,obs=100:478;200:228.9;400:106.4", calibratedSpec()},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if string(got.AppendCanonical(nil)) != string(c.want.AppendCanonical(nil)) {
			t.Errorf("ParseSpec(%q) = %+v, want canonical of %+v", c.in, got, c.want)
		}
		// String() renders back into parseable flag syntax.
		again, err := ParseSpec(got.String())
		if err != nil {
			t.Errorf("ParseSpec(String(%q)) = %v", c.in, err)
			continue
		}
		if string(again.AppendCanonical(nil)) != string(got.AppendCanonical(nil)) {
			t.Errorf("String round trip changed %q: %q", c.in, got.String())
		}
	}
	for _, bad := range []string{
		"",                       // missing kind
		"flux-capacitor",         // unknown kind
		"rakhmatov,beta=x",       // bad number
		"rakhmatov,voltage=3.3",  // unknown parameter
		"rakhmatov,beta",         // not key=value
		"kibam,capacity=40000",   // missing required params
		"peukert,k=0.5",          // exponent below 1
		"calibrated,obs=100",     // bad observation
		"calibrated,obs=100:478", // one observation
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should error", bad)
		}
	}
}

// TestSpecModelsEvaluate smoke-checks that every resolved model kind
// actually evaluates a profile (the Model contract) without panicking.
func TestSpecModelsEvaluate(t *testing.T) {
	p := Profile{{Current: 400, Duration: 10}, {Current: 0, Duration: 5}, {Current: 100, Duration: 20}}
	for _, s := range []Spec{DefaultSpec(), {Kind: KindIdeal}, peukertSpec(), kibamSpec(), calibratedSpec()} {
		m := s.MustResolve()
		sigma := m.ChargeLost(p, p.TotalTime())
		if math.IsNaN(sigma) || sigma < 0 {
			t.Errorf("%s: ChargeLost = %g", s, sigma)
		}
		if m.Name() == "" {
			t.Errorf("%s: empty model name", s)
		}
	}
}

// BenchmarkSpecResolve measures the cost of resolving specs into models
// — the work core.New performs exactly once per run. CI's bench-smoke
// job builds and runs this benchmark so spec resolution can never
// silently migrate onto the per-window hot path (the calibrated fit in
// particular is a beta search costing ~100x one ChargeLost evaluation,
// and a window sweep performs thousands of those).
func BenchmarkSpecResolve(b *testing.B) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"rakhmatov", DefaultSpec()},
		{"kibam", kibamSpec()},
		{"peukert", peukertSpec()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.spec.Resolve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("calibrated", func(b *testing.B) {
		spec := calibratedSpec()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Resolve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
