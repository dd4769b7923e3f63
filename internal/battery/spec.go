package battery

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Spec is the declarative, serializable form of a battery model: a kind
// plus the numeric parameters that kind takes. Unlike the opaque Model
// interface, a Spec can travel over the wire (it is the "battery" JSON
// object of wire jobs), be validated before any scheduling work starts,
// and be hashed into a content-addressed cache key — so a job scheduled
// against any battery model is as cacheable and serveable as one using
// the paper's default Rakhmatov configuration.
//
// The kinds and their parameters:
//
//	rakhmatov   beta (min^-1/2, default 0.273), terms (default 10)
//	ideal       no parameters
//	peukert     exponent (>= 1, required), ref_current (mA, default 100)
//	kibam       capacity (mA·min), well_fraction in (0,1],
//	            rate_constant (1/min) — all required
//	calibrated  observations: >= 2 constant-current lifetime measurements
//	            at >= 2 distinct currents; resolved by fitting the
//	            Rakhmatov model's beta to them (FitRakhmatov)
//
// Parameters not taken by the spec's kind must be zero — Validate
// rejects foreign parameters so that two specs with identical canonical
// bytes always resolve to the same model (no dead fields to disagree
// in).
//
// The zero Spec is invalid (it has no kind); DefaultSpec returns the
// paper's configuration.
type Spec struct {
	// Kind selects the model family; see the package constants.
	Kind string `json:"kind"`
	// Beta is the Rakhmatov diffusion parameter in min^-1/2
	// (kind rakhmatov; 0 means the paper's 0.273).
	Beta float64 `json:"beta,omitempty"`
	// Terms is the number of Rakhmatov series terms
	// (kind rakhmatov; 0 means the paper's 10, max MaxSeriesTerms).
	Terms int `json:"terms,omitempty"`
	// Exponent is Peukert's k (kind peukert; required, >= 1).
	Exponent float64 `json:"exponent,omitempty"`
	// RefCurrent is the Peukert reference current in mA
	// (kind peukert; 0 means DefaultRefCurrent).
	RefCurrent float64 `json:"ref_current,omitempty"`
	// Capacity is the KiBaM total charge in mA·min (kind kibam;
	// required, > 0).
	Capacity float64 `json:"capacity,omitempty"`
	// WellFraction is the KiBaM available-well fraction (kind kibam;
	// required, in (0, 1]).
	WellFraction float64 `json:"well_fraction,omitempty"`
	// RateConstant is the KiBaM well-equalization rate in 1/min
	// (kind kibam; required, > 0).
	RateConstant float64 `json:"rate_constant,omitempty"`
	// Observations are the constant-current lifetime measurements a
	// calibrated spec fits (kind calibrated; >= 2 required, max
	// MaxObservations, >= 2 distinct currents).
	Observations []Observation `json:"observations,omitempty"`
}

// The accepted Spec kinds.
const (
	// KindRakhmatov is the Rakhmatov–Vrudhula diffusion model (the
	// paper's Equation 1 and the default cost function).
	KindRakhmatov = "rakhmatov"
	// KindIdeal is the linear coulomb counter.
	KindIdeal = "ideal"
	// KindPeukert is the Peukert's-law model.
	KindPeukert = "peukert"
	// KindKiBaM is the kinetic (two-well) battery model.
	KindKiBaM = "kibam"
	// KindCalibrated fits a Rakhmatov model to constant-current
	// lifetime observations at resolve time.
	KindCalibrated = "calibrated"
)

// MaxSeriesTerms bounds Spec.Terms. The series buffer is allocated per
// model, so an unbounded wire value could make one request allocate
// gigabytes; the bound is three orders of magnitude past the point
// where exp(-b²m²t) underflows for any realistic input.
const MaxSeriesTerms = 10000

// MaxObservations bounds a calibrated spec's measurement list. The fit
// is O(observations) per probe of a 600-point beta grid, so the bound
// keeps a hostile wire job from buying minutes of CPU with one line;
// real calibrations use well under a dozen points.
const MaxObservations = 256

// DefaultRefCurrent is the Peukert reference current (mA) used when a
// peukert spec leaves ref_current zero — the same convention as
// cmd/battsim's -iref default.
const DefaultRefCurrent = 100

// Kinds returns the accepted spec kinds, in display order.
func Kinds() []string {
	return []string{KindRakhmatov, KindIdeal, KindPeukert, KindKiBaM, KindCalibrated}
}

// DefaultSpec returns the paper's battery configuration: the Rakhmatov
// model with beta 0.273 and ten series terms. It resolves to exactly
// the model the scheduler uses when no spec is given, so scheduling
// with DefaultSpec is bit-identical to scheduling with zero options.
func DefaultSpec() Spec {
	return Spec{Kind: KindRakhmatov, Beta: DefaultBeta, Terms: DefaultTerms}
}

// Canonical returns the spec with its kind normalized (trimmed,
// lowercased) and every defaultable parameter resolved to the value
// Resolve will actually use: a rakhmatov spec's zero beta/terms become
// the paper's 0.273/10, a peukert spec's zero ref_current becomes
// DefaultRefCurrent. Two specs with the same Canonical form resolve to
// the same model and hash to the same canonical bytes, so a request
// spelling out a default and one leaving it zero share a cache entry.
func (s Spec) Canonical() Spec {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	switch s.Kind {
	case KindRakhmatov:
		if s.Beta == 0 {
			s.Beta = DefaultBeta
		}
		if s.Terms == 0 {
			s.Terms = DefaultTerms
		}
	case KindPeukert:
		if s.RefCurrent == 0 {
			s.RefCurrent = DefaultRefCurrent
		}
	}
	return s
}

// finiteParam reports whether v is an ordinary number (not NaN, ±Inf).
func finiteParam(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the spec after canonicalization: the kind must be
// known, every parameter the kind takes must be finite and within its
// domain, and every parameter it does not take must be zero. The error
// names the offending field. A valid spec never makes Resolve fail or
// any model constructor panic.
func (s Spec) Validate() error {
	c := s.Canonical()
	switch c.Kind {
	case KindRakhmatov:
		if err := c.rejectForeign("exponent", "ref_current", "capacity", "well_fraction", "rate_constant", "observations"); err != nil {
			return err
		}
		if !finiteParam(c.Beta) || c.Beta <= 0 {
			return fmt.Errorf("battery: spec %q: \"beta\" must be a positive finite number, got %g", c.Kind, c.Beta)
		}
		if c.Terms < 1 || c.Terms > MaxSeriesTerms {
			return fmt.Errorf("battery: spec %q: \"terms\" must be in [1, %d], got %d", c.Kind, MaxSeriesTerms, c.Terms)
		}
	case KindIdeal:
		if err := c.rejectForeign("beta", "terms", "exponent", "ref_current", "capacity", "well_fraction", "rate_constant", "observations"); err != nil {
			return err
		}
	case KindPeukert:
		if err := c.rejectForeign("beta", "terms", "capacity", "well_fraction", "rate_constant", "observations"); err != nil {
			return err
		}
		if !finiteParam(c.Exponent) || c.Exponent < 1 {
			return fmt.Errorf("battery: spec %q: \"exponent\" must be a finite number >= 1, got %g", c.Kind, c.Exponent)
		}
		if !finiteParam(c.RefCurrent) || c.RefCurrent <= 0 {
			return fmt.Errorf("battery: spec %q: \"ref_current\" must be a positive finite number, got %g", c.Kind, c.RefCurrent)
		}
	case KindKiBaM:
		if err := c.rejectForeign("beta", "terms", "exponent", "ref_current", "observations"); err != nil {
			return err
		}
		if !finiteParam(c.Capacity) || c.Capacity <= 0 {
			return fmt.Errorf("battery: spec %q: \"capacity\" must be a positive finite number, got %g", c.Kind, c.Capacity)
		}
		if !finiteParam(c.WellFraction) || c.WellFraction <= 0 || c.WellFraction > 1 {
			return fmt.Errorf("battery: spec %q: \"well_fraction\" must be in (0, 1], got %g", c.Kind, c.WellFraction)
		}
		if !finiteParam(c.RateConstant) || c.RateConstant <= 0 {
			return fmt.Errorf("battery: spec %q: \"rate_constant\" must be a positive finite number, got %g", c.Kind, c.RateConstant)
		}
	case KindCalibrated:
		if err := c.rejectForeign("beta", "terms", "exponent", "ref_current", "capacity", "well_fraction", "rate_constant"); err != nil {
			return err
		}
		if len(c.Observations) < 2 {
			return fmt.Errorf("battery: spec %q: needs at least 2 observations, got %d", c.Kind, len(c.Observations))
		}
		if len(c.Observations) > MaxObservations {
			return fmt.Errorf("battery: spec %q: at most %d observations, got %d", c.Kind, MaxObservations, len(c.Observations))
		}
		distinct := 0
		for k, o := range c.Observations {
			if !finiteParam(o.Current) || o.Current <= 0 || !finiteParam(o.Lifetime) || o.Lifetime <= 0 {
				return fmt.Errorf("battery: spec %q: observation %d must have positive finite current and lifetime, got (%g, %g)",
					c.Kind, k, o.Current, o.Lifetime)
			}
			fresh := true
			for _, prev := range c.Observations[:k] {
				if prev.Current == o.Current {
					fresh = false
					break
				}
			}
			if fresh {
				distinct++
			}
		}
		if distinct < 2 {
			return fmt.Errorf("battery: spec %q: observations must cover at least 2 distinct currents", c.Kind)
		}
	case "":
		return fmt.Errorf("battery: spec is missing \"kind\" (accepted: %s)", strings.Join(Kinds(), " | "))
	default:
		return fmt.Errorf("battery: unknown spec kind %q (accepted: %s)", c.Kind, strings.Join(Kinds(), " | "))
	}
	return nil
}

// rejectForeign errors when any of the named parameters is set on a
// kind that does not take it. Allowing dead fields would let two specs
// that resolve identically hash differently (false cache splits) — or,
// worse, let a typo'd parameter be silently ignored.
func (s Spec) rejectForeign(fields ...string) error {
	for _, f := range fields {
		set := false
		switch f {
		case "beta":
			set = s.Beta != 0
		case "terms":
			set = s.Terms != 0
		case "exponent":
			set = s.Exponent != 0
		case "ref_current":
			set = s.RefCurrent != 0
		case "capacity":
			set = s.Capacity != 0
		case "well_fraction":
			set = s.WellFraction != 0
		case "rate_constant":
			set = s.RateConstant != 0
		case "observations":
			set = len(s.Observations) != 0
		}
		if set {
			return fmt.Errorf("battery: spec %q does not take parameter %q", s.Kind, f)
		}
	}
	return nil
}

// Resolve validates the spec and constructs its Model. The returned
// model is a stateless value, safe for concurrent ChargeLost calls like
// every model in this package. For kind calibrated this runs the
// FitRakhmatov beta search — two orders of magnitude costlier than a
// single ChargeLost evaluation — which is why callers resolve once per
// run (core.New), never per window.
//
// Resolving DefaultSpec (or any zero-parameter rakhmatov spec) yields a
// model bit-identical to the scheduler's historical default path.
func (s Spec) Resolve() (Model, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := s.Canonical()
	switch c.Kind {
	case KindRakhmatov:
		// The struct literal, not NewRakhmatov, so Terms overrides
		// survive.
		return Rakhmatov{Beta: c.Beta, Terms: c.Terms}, nil
	case KindIdeal:
		return Ideal{}, nil
	case KindPeukert:
		return Peukert{Exponent: c.Exponent, RefCurrent: c.RefCurrent}, nil
	case KindKiBaM:
		return KiBaM{Capacity: c.Capacity, C: c.WellFraction, K: c.RateConstant}, nil
	case KindCalibrated:
		_, beta, err := FitRakhmatov(c.Observations)
		if err != nil {
			// Unreachable for a validated spec; kept so a future fit
			// constraint cannot silently produce a broken model.
			return nil, fmt.Errorf("battery: calibrated spec: %w", err)
		}
		return Rakhmatov{Beta: beta, Terms: DefaultTerms}, nil
	}
	panic("battery: Validate accepted a kind Resolve does not construct: " + c.Kind)
}

// MustResolve is Resolve for specs the caller has already validated;
// it panics on error (matching the New* constructors' contract).
func (s Spec) MustResolve() Model {
	m, err := s.Resolve()
	if err != nil {
		panic(err)
	}
	return m
}

// AppendCanonical appends the spec's canonical byte encoding to dst and
// returns the result. The encoding is stable across processes and
// releases of the same spec vocabulary: the canonical kind
// length-prefixed, then each parameter the kind takes as its exact
// float64 bit pattern (or int64), in declaration order. Specs that
// canonicalize equal encode equal; specs that resolve to different
// models encode differently (the kind tag separates the parameter
// namespaces). Content-addressed caches hash exactly these bytes.
func (s Spec) AppendCanonical(dst []byte) []byte {
	c := s.Canonical()
	dst = appendStr(dst, c.Kind)
	switch c.Kind {
	case KindRakhmatov:
		dst = appendF64(dst, c.Beta)
		dst = appendI64(dst, int64(c.Terms))
	case KindIdeal:
		// The kind alone identifies the model.
	case KindPeukert:
		dst = appendF64(dst, c.Exponent)
		dst = appendF64(dst, c.RefCurrent)
	case KindKiBaM:
		dst = appendF64(dst, c.Capacity)
		dst = appendF64(dst, c.WellFraction)
		dst = appendF64(dst, c.RateConstant)
	case KindCalibrated:
		dst = appendI64(dst, int64(len(c.Observations)))
		for _, o := range c.Observations {
			dst = appendF64(dst, o.Current)
			dst = appendF64(dst, o.Lifetime)
		}
	default:
		// Invalid kinds still encode deterministically (the kind string
		// itself); callers hash only validated specs.
	}
	return dst
}

// appendStr appends s length-prefixed so adjacent fields cannot melt
// into each other.
func appendStr(dst []byte, s string) []byte {
	dst = appendI64(dst, int64(len(s)))
	return append(dst, s...)
}

// appendF64 appends the exact float bit pattern (little-endian).
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendI64(dst []byte, v int64) []byte { return appendU64(dst, uint64(v)) }

func appendU64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// String renders the spec in ParseSpec's flag syntax — the canonical
// kind followed by the parameters it takes — so a printed spec can be
// pasted straight back into a -battery flag.
func (s Spec) String() string {
	c := s.Canonical()
	var b strings.Builder
	b.WriteString(c.Kind)
	p := func(name string, v float64) {
		fmt.Fprintf(&b, ",%s=%s", name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	switch c.Kind {
	case KindRakhmatov:
		p("beta", c.Beta)
		if c.Terms != DefaultTerms {
			fmt.Fprintf(&b, ",terms=%d", c.Terms)
		}
	case KindPeukert:
		p("exponent", c.Exponent)
		p("ref_current", c.RefCurrent)
	case KindKiBaM:
		p("capacity", c.Capacity)
		p("well_fraction", c.WellFraction)
		p("rate_constant", c.RateConstant)
	case KindCalibrated:
		b.WriteString(",obs=")
		for k, o := range c.Observations {
			if k > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s:%s",
				strconv.FormatFloat(o.Current, 'g', -1, 64),
				strconv.FormatFloat(o.Lifetime, 'g', -1, 64))
		}
	}
	return b.String()
}

// specFlagAliases maps every accepted -battery parameter spelling to
// the canonical JSON field name.
var specFlagAliases = map[string]string{
	"beta":          "beta",
	"terms":         "terms",
	"exponent":      "exponent",
	"k":             "exponent", // Peukert's k in the literature
	"ref_current":   "ref_current",
	"iref":          "ref_current", // cmd/battsim's flag name
	"capacity":      "capacity",
	"alpha":         "capacity", // the paper's capacity symbol
	"well_fraction": "well_fraction",
	"c":             "well_fraction", // KiBaM's c
	"rate":          "rate_constant",
	"rate_constant": "rate_constant",
	"obs":           "obs",
	"observations":  "obs",
}

// ParseSpec parses the -battery CLI flag syntax into a validated Spec:
// comma-separated key=value pairs, the first of which may be a bare
// kind. Parameter names accept the JSON field names plus the short
// aliases the literature uses (k, iref, alpha, c, rate); calibrated
// observations are semicolon-separated current:lifetime pairs.
//
//	rakhmatov,beta=0.35
//	kind=kibam,capacity=40000,c=0.5,rate=0.1
//	peukert,k=1.2,iref=100
//	calibrated,obs=100:478;200:228.9;400:106.4
//	ideal
func ParseSpec(flag string) (Spec, error) {
	var s Spec
	for i, part := range strings.Split(flag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if !found {
			if i == 0 {
				s.Kind = key
				continue
			}
			return s, fmt.Errorf("battery: spec flag: %q is not a key=value pair", part)
		}
		if key == "kind" {
			s.Kind = strings.ToLower(val)
			continue
		}
		name, ok := specFlagAliases[key]
		if !ok {
			return s, fmt.Errorf("battery: spec flag: unknown parameter %q", key)
		}
		if name == "obs" {
			obs, err := parseObservations(val)
			if err != nil {
				return s, err
			}
			s.Observations = obs
			continue
		}
		if name == "terms" {
			n, err := strconv.Atoi(val)
			if err != nil {
				return s, fmt.Errorf("battery: spec flag: bad terms %q: %w", val, err)
			}
			s.Terms = n
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return s, fmt.Errorf("battery: spec flag: bad %s %q: %w", name, val, err)
		}
		switch name {
		case "beta":
			s.Beta = f
		case "exponent":
			s.Exponent = f
		case "ref_current":
			s.RefCurrent = f
		case "capacity":
			s.Capacity = f
		case "well_fraction":
			s.WellFraction = f
		case "rate_constant":
			s.RateConstant = f
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s.Canonical(), nil
}

// parseObservations parses "I1:L1;I2:L2;…" (current mA : lifetime min).
func parseObservations(val string) ([]Observation, error) {
	var obs []Observation
	for _, pair := range strings.Split(val, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		is, ls, found := strings.Cut(pair, ":")
		if !found {
			return nil, fmt.Errorf("battery: spec flag: bad observation %q (want current:lifetime)", pair)
		}
		i, err := strconv.ParseFloat(strings.TrimSpace(is), 64)
		if err != nil {
			return nil, fmt.Errorf("battery: spec flag: bad observation current in %q: %w", pair, err)
		}
		l, err := strconv.ParseFloat(strings.TrimSpace(ls), 64)
		if err != nil {
			return nil, fmt.Errorf("battery: spec flag: bad observation lifetime in %q: %w", pair, err)
		}
		obs = append(obs, Observation{Current: i, Lifetime: l})
	}
	return obs, nil
}
