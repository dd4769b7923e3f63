package cache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// keyVersion namespaces the hash so a future change to the canonical
// encoding cannot collide with results stored under the old one.
// v2: the battery model is hashed as a canonical battery.Spec encoding
// instead of raw Beta/SeriesTerms fields, making every declarative
// model kind (ideal/peukert/kibam/calibrated) cacheable.
// v3: Options.Approx joins the hash — the approximation mode changes
// which candidates the search evaluates, so an approximate result must
// never answer an exact request (or vice versa).
const keyVersion = "battsched-cache-v3"

// Key returns the canonical content hash of a job — the cache address of
// its result — and whether the job is cacheable at all.
//
// The key covers everything that determines the result: the graph
// content (tasks in ID order with their design points and sorted parent
// sets), the deadline, the canonical strategy name, the canonical
// battery-spec bytes (see battery.Spec.AppendCanonical), every other
// result-affecting Options field, and (for the multistart strategy) the
// restart count and seed. Fields are hashed at their resolved defaults
// (core.Options.Canonical, battery.Spec.Canonical, core.DefaultRestarts),
// so a request spelling out a default and one leaving it zero share an
// entry — including a wire job's {"beta":0.35} shorthand and the
// equivalent {"battery":{"kind":"rakhmatov","beta":0.35}}, which the
// wire intake turns into the same spec.
//
// Deliberately excluded because they are result-neutral: Job.Name (a
// label), MultiStart.Workers (documented bit-identical to the
// sequential path), Options.RecordTrace (the
// trace never reaches an engine.Result), MultiStart for non-multistart
// strategies, and Job.Timeout (a completed result is identical under
// any timeout, and a computation the timeout aborts is never stored —
// see Cache.DoContext). Excluding them means a request answers from
// cache however the caller tuned its concurrency or deadline budget.
//
// Not cacheable (ok = false): a nil graph, an unknown strategy or an
// invalid battery spec (the engine's per-job error is cheaper than
// hashing). Every valid battery spec, of any kind, is cacheable.
//
// Key derivation is the whole cost of a cache hit, so it encodes the
// graph directly (no Spec marshaling) into one buffer and hashes that
// once.
//
// The battlint:canonical exclusions below are the result-neutral fields
// listed above, plus Options.Battery, which IS hashed — folded into the
// canonical battery-spec bytes by Options.BatterySpec (a core method,
// outside the analyzer's same-package view) and k.spec.
//
//battlint:canonical engine.Job -Name -Timeout
//battlint:canonical core.Options -Battery -RecordTrace
//battlint:canonical core.MultiStartOptions -Workers
func Key(job engine.Job) (key string, ok bool) {
	if job.Graph == nil {
		return "", false
	}
	spec := job.Options.BatterySpec()
	if spec.Validate() != nil {
		return "", false
	}
	strategy, err := engine.CanonicalStrategy(job.Strategy)
	if err != nil {
		return "", false
	}
	k := keyEncoder{buf: make([]byte, 0, keyBytesHint(job.Graph))}
	k.str(keyVersion)
	k.str(strategy)
	k.f64(job.Deadline)

	// Hash the resolved defaults, not the raw zero values, so a zero
	// field and its explicit default ({"strategy":"multistart"} vs
	// "restarts":8, beta 0 vs 0.273) land on the same entry.
	k.spec(spec)
	o := job.Options.Canonical()
	k.ints(int(o.InitialOrder), o.MaxIterations,
		int(o.Factors), int(o.Windows), int(o.DPFColumns), boolBit(o.DisableResequencing))
	k.f64(o.Approx)

	if strategy == engine.StrategyMultiStart {
		restarts := job.MultiStart.Restarts
		if restarts <= 0 {
			restarts = core.DefaultRestarts
		}
		k.ints(restarts)
		k.i64(job.MultiStart.Seed)
	}

	k.graph(job.Graph)
	sum := sha256.Sum256(k.buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:]), true
}

// keyEncoder builds the canonical byte string a key hashes: every
// field appended to one buffer, hashed once at the end.
type keyEncoder struct {
	buf []byte
}

// keyBytesHint sizes the encoder's buffer so a graph with short task
// and point names encodes without regrowing it.
func keyBytesHint(g *taskgraph.Graph) int {
	n := 256
	for i := 0; i < g.N(); i++ {
		n += 48 + 8*len(g.ParentIndices(i)) + 40*len(g.TaskAt(i).Points)
	}
	return n
}

// spec appends the battery spec's canonical bytes, length-prefixed
// like every variable-width field.
func (k *keyEncoder) spec(s battery.Spec) {
	at := len(k.buf)
	k.i64(0) // length, patched below
	k.buf = s.AppendCanonical(k.buf)
	binary.LittleEndian.PutUint64(k.buf[at:], uint64(len(k.buf)-at-8))
}

// str appends s length-prefixed so adjacent fields cannot melt into
// each other.
func (k *keyEncoder) str(s string) {
	k.i64(int64(len(s)))
	k.buf = append(k.buf, s...)
}

// f64 appends the exact bit pattern (distinguishes -0/+0 and every NaN
// payload; exactness matters more than normalization here).
func (k *keyEncoder) f64(v float64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, math.Float64bits(v))
}

func (k *keyEncoder) i64(v int64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, uint64(v))
}

func (k *keyEncoder) ints(vs ...int) {
	for _, v := range vs {
		k.i64(int64(v))
	}
}

// graph appends the graph content canonically: tasks in ascending ID
// order (whatever order they were added in), each with its name, its
// validated ascending-time design points and its sorted parent IDs.
func (k *keyEncoder) graph(g *taskgraph.Graph) {
	n := g.N()
	k.ints(n)
	var parentBuf [16]int
	order := idOrder(g)
	for pos := 0; pos < n; pos++ {
		i := pos
		if order != nil {
			i = order[pos]
		}
		t := g.TaskAt(i)
		k.ints(t.ID)
		k.str(t.Name)
		k.ints(len(t.Points))
		for _, p := range t.Points {
			k.f64(p.Current)
			k.f64(p.Time)
			k.f64(p.Voltage)
			k.str(p.Name)
		}
		parents := parentBuf[:0]
		for _, pi := range g.ParentIndices(i) {
			parents = append(parents, g.IDAt(pi))
		}
		slices.Sort(parents)
		k.ints(len(parents))
		k.ints(parents...)
	}
}

// idOrder returns the dense task indices in ascending ID order, or nil
// when that is the dense order itself — graphs are usually built in ID
// order.
func idOrder(g *taskgraph.Graph) []int {
	n := g.N()
	for i := 1; i < n; i++ {
		if g.IDAt(i-1) > g.IDAt(i) {
			order := make([]int, n)
			for j := range order {
				order[j] = j
			}
			slices.SortFunc(order, func(a, b int) int { return cmp.Compare(g.IDAt(a), g.IDAt(b)) })
			return order
		}
	}
	return nil
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
