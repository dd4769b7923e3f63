package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/battery"
	"repro/internal/dvs"
	"repro/internal/taskgraph"
)

// decodeJobOracle is the reference DecodeJob must agree with:
// encoding/json with unknown fields disallowed, one value, then the
// trailing-data check.
func decodeJobOracle(data []byte) (Job, error) {
	var j Job
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return j, err
	}
	if dec.More() {
		return j, fmt.Errorf("job %s: trailing data after the job object", j.label())
	}
	return j, nil
}

// checkDecodeMatchesOracle fails unless DecodeJob and the oracle give
// the same error text and the same Job — the partial Job of a failed
// decode included, since front ends echo its name.
func checkDecodeMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := DecodeJob(data)
	want, werr := decodeJobOracle(data)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%q:\n  error  %v\n  oracle %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n  job    %s\n  oracle %s", data, dumpJob(got), dumpJob(want))
	}
}

func dumpJob(j Job) string {
	s := fmt.Sprintf("%+v", j)
	if j.Graph != nil {
		s += fmt.Sprintf(" graph=%+v", *j.Graph)
	}
	if j.Battery != nil {
		s += fmt.Sprintf(" battery=%+v", *j.Battery)
	}
	return s
}

// decodeEdgeCases are documents where encoding/json's behavior is
// easy to get wrong: key folding, repeated keys, null, number forms,
// string escapes, syntax errors at every position and the top level.
var decodeEdgeCases = []string{
	// Key matching: exact, then case-folded, including the two
	// non-ASCII runes that fold onto ASCII letters.
	`{"Deadline":230,"FIXTURE":"g3"}`,
	`{"DEADLINE":230,"fixture":"g3","Restart_Workers":2}`,
	`{"fixture":"g3","deadline":230,"ſtrategy":"multistart"}`,
	`{"fixture":"g3","deadline":230,"battery":{"\u212Aind":"ideal"}}`,
	`{"fixture":"g3","dead\u006cine":230}`,
	`{"fixture":"g3","deadline":230,"\u00ffx":1}`,
	"{\"fixture\":\"g3\",\"deadline\":230,\"\xff\":1}",
	// Repeated keys: scalars take the last value, pointers merge, slices
	// decode over their earlier elements — even ones a shorter array
	// truncated away.
	`{"fixture":"g2","fixture":"g3","deadline":1,"deadline":230}`,
	`{"graph":{"name":"a","tasks":[{"id":1,"points":[{"current":10,"time":1}]}]},"graph":{"name":"b"},"deadline":5}`,
	`{"graph":{"tasks":[{"id":1,"name":"a","points":[{"current":10,"time":1},{"current":5,"time":2}],"parents":[7,8]},{"id":2,"name":"b"}]},` +
		`"graph":{"tasks":[{"id":3}]},"deadline":5}`,
	`{"graph":{"tasks":[{"id":1,"name":"a"},{"id":2,"name":"b"},{"id":4,"name":"d"}],"tasks":[{"id":9}],"tasks":[{},{"name":"x"},{}]},"deadline":5}`,
	`{"graph":{"tasks":[{"id":1,"parents":[1,2,3],"parents":[4],"parents":[null,null,5]}]},"deadline":5}`,
	`{"graph":{"tasks":[{"id":1}],"tasks":[]},"deadline":5}`,
	`{"fixture":"g3","deadline":230,"battery":{"kind":"kibam","capacity":1},"battery":{"well_fraction":0.5,"rate_constant":0.1}}`,
	`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal"},"battery":null,"battery":{"beta":1}}`,
	// null: nil for pointers and slices, a no-op for everything else.
	`null`,
	` null `,
	`null }`,
	`{"name":null,"fixture":null,"graph":null,"deadline":null,"battery":null,"restarts":null,"seed":null}`,
	`{"name":"n","name":null,"deadline":5,"deadline":null}`,
	`{"graph":{"name":null,"tasks":null},"deadline":5}`,
	`{"graph":{"tasks":[null,{"id":null,"points":null,"parents":null}]},"deadline":5}`,
	`{"fixture":"g3","deadline":230,"battery":{"kind":"calibrated","observations":[null,{"current":null}]}}`,
	// Numbers: integer fields take only integers; out-of-range is a
	// type error; every JSON number form parses.
	`{"fixture":"g3","deadline":230,"restarts":1e2}`,
	`{"fixture":"g3","deadline":230,"restarts":1.5}`,
	`{"fixture":"g3","deadline":230,"restarts":-0}`,
	`{"fixture":"g3","deadline":230,"seed":99999999999999999999}`,
	`{"fixture":"g3","deadline":230,"seed":-9223372036854775808}`,
	`{"fixture":"g3","deadline":1e999}`,
	`{"fixture":"g3","deadline":-1e999}`,
	`{"fixture":"g3","deadline":1e-999}`,
	`{"fixture":"g3","deadline":-0.0e+0}`,
	`{"fixture":"g3","deadline":2.30E2}`,
	`{"fixture":"g3","deadline":230,"battery":{"kind":"rakhmatov","terms":1E1}}`,
	// Strings: escapes, surrogate pairs, lone surrogates and invalid
	// UTF-8 (both become U+FFFD).
	`{"name":"\u00e9\ud83d\ude00|\ud800x|\udc00|\uD800\u0041|\ud800\ud800|\"\\\/\b\f\n\r\t","fixture":"g3","deadline":230}`,
	"{\"name\":\"\xff\xfe\xe2\x82\",\"fixture\":\"g3\",\"deadline\":230}",
	"{\"name\":\"\xed\xa0\x80 \x7f caf\xc3\xa9\",\"fixture\":\"g3\",\"deadline\":230}",
	`{"graph":{"name":"\u0067\u0032","tasks":[{"id":1,"name":"T\u0031","points":[{"current":1,"time":1,"name":"\ud834\udd1e"}]}]},"deadline":5}`,
	// Type errors: recorded, decoding continues, the first one wins.
	`{"name":"kept","deadline":"230","fixture":5,"bogus":1}`,
	`{"bogus":{"deep":[1,2,{"x":null}]},"name":"n","deadline":true}`,
	`{"graph":5,"name":"n"}`,
	`{"graph":[],"deadline":5}`,
	`{"graph":"g","deadline":5}`,
	`{"graph":{"tasks":{}},"deadline":5}`,
	`{"graph":{"tasks":[5,"x",true,[]]},"deadline":5}`,
	`{"graph":{"tasks":[{"points":[{"current":"x"}],"parents":["1"]}]},"deadline":5}`,
	`{"graph":{"tasks":[{"id":1.5,"points":{}}]},"deadline":5}`,
	`{"fixture":"g3","deadline":230,"battery":{"observations":[{"current":true,"lifetime":[]}]}}`,
	`{"fixture":"g3","deadline":230,"battery":[1]}`,
	`{"fixture":"g3","deadline":230,"battery":{"kind":"ideal","volts":3.3}}`,
	`{"name":{},"strategy":[],"deadline":{}}`,
	// Top level: only an object or null is a job.
	``,
	"  \n\t ",
	`[]`,
	`[1,{"a":2}]`,
	`5`,
	`5 `,
	`-1.5e3`,
	`"job"`,
	`true`,
	`false `,
	// Trailing data after the object, and the closing brackets that
	// do not count as trailing data.
	`{"fixture":"g3","deadline":230} x`,
	`{"name":"t","fixture":"g3","deadline":230}{}`,
	`{"fixture":"g3","deadline":230}}`,
	`{"fixture":"g3","deadline":230} ]`,
	"{\"fixture\":\"g3\",\"deadline\":230}\n\t ",
	// Syntax errors, one per scanner state.
	`{`,
	`{"fixture`,
	`{"fixture":"g3"`,
	`{"fixture":"g3",`,
	`{"fixture" "g3"}`,
	`{"fixture":"g3",}`,
	`{,}`,
	`{"fixture":"g3" "deadline":1}`,
	`{"deadline":01}`,
	`{"deadline":1.}`,
	`{"deadline":1.x}`,
	`{"deadline":-}`,
	`{"deadline":-x}`,
	`{"deadline":1e}`,
	`{"deadline":1e+}`,
	`{"deadline":1ex}`,
	`{"deadline":.5}`,
	`{"deadline":+5}`,
	`{"deadline":tru}`,
	`{"deadline":trux}`,
	`{"deadline":nul}`,
	`{"deadline":nulL}`,
	`{"deadline":fals}`,
	`{"deadline":NaN}`,
	`{"deadline":Infinity}`,
	`{"graph":{"tasks":[1,]}}`,
	`{"graph":{"tasks":[,]}}`,
	`{"graph":{"tasks":[1 2]}}`,
	`{"graph":{"tasks":[`,
	"{\"name\":\"a\x01b\"}",
	`{"name":"a\qb"}`,
	`{"name":"\u12G4"}`,
	`{"name":"\u12`,
	`{"name":"\`,
	`{"deadline":"x","bogus":1,"name":"a" x}`,
	`{'fixture':'g3'}`,
	"\xef\xbb\xbf{\"fixture\":\"g3\",\"deadline\":230}",
	`nul`,
	`nullx`,
	`null}`,
	`5x`,
	`"x"y`,
	`x`,
	`}`,
}

// TestDecodeJobMatchesOracle pins DecodeJob to encoding/json on every
// edge case, the FuzzDecodeJobs corpus line by line, and deep nesting.
func TestDecodeJobMatchesOracle(t *testing.T) {
	for _, c := range decodeEdgeCases {
		checkDecodeMatchesOracle(t, []byte(c))
	}
	for _, seed := range decodeJobsCorpus() {
		checkDecodeMatchesOracle(t, seed)
		for _, line := range bytes.Split(seed, []byte("\n")) {
			checkDecodeMatchesOracle(t, line)
		}
	}
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		deep := `{"fixture":"g3","deadline":230,"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + "}"
		checkDecodeMatchesOracle(t, []byte(deep))
		checkDecodeMatchesOracle(t, []byte(strings.Repeat(`{"a":`, depth)))
	}
}

// TestDecodeFieldsMatchTags keeps the decoder's field tables in step
// with the json tags they stand for: a field added to a wire struct
// without a decoder case would otherwise be rejected as unknown.
func TestDecodeFieldsMatchTags(t *testing.T) {
	for _, tc := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[Job](), jobFields},
		{reflect.TypeFor[taskgraph.Spec](), specFields},
		{reflect.TypeFor[taskgraph.TaskSpec](), taskFields},
		{reflect.TypeFor[taskgraph.PointSpec](), pointFields},
		{reflect.TypeFor[battery.Spec](), batteryFields},
		{reflect.TypeFor[battery.Observation](), observationFields},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			tags = append(tags, strings.Split(tc.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%v: json tags %q, decoder fields %q", tc.typ, tags, tc.names)
		}
	}
}

// TestDecodeJobFullRoundTrip decodes a job with every field set, at
// every level of the schema, back to the value it was encoded from.
func TestDecodeJobFullRoundTrip(t *testing.T) {
	spec := taskgraph.G3().ToSpec("inline")
	spec.Tasks[0].Points[0].Voltage = 1.2
	spec.Tasks[0].Points[0].Name = "DP1"
	for i := range spec.Tasks {
		if len(spec.Tasks[i].Parents) == 0 {
			spec.Tasks[i].Parents = nil // omitempty drops an empty list
		}
	}
	job := Job{Name: "full", Graph: &spec, Deadline: 230.5, Strategy: "multistart", Approx: 0.5,
		Restarts: 4, Seed: -7, RestartWorkers: 2, TimeoutMS: 1000, Priority: 3, TTLMS: 5000,
		Battery: &battery.Spec{Kind: battery.KindCalibrated, Observations: []battery.Observation{
			{Current: 100, Lifetime: 478}, {Current: 200, Lifetime: 228.9}}}}
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, job) {
		t.Fatalf("round trip:\n  got  %s\n  want %s", dumpJob(got), dumpJob(job))
	}
	checkDecodeMatchesOracle(t, body)
}

// FuzzDecodeJobEquivalence checks DecodeJob against encoding/json on
// arbitrary bytes: same error text (so the same accept/reject verdict)
// and a reflect.DeepEqual Job.
func FuzzDecodeJobEquivalence(f *testing.F) {
	for _, seed := range decodeJobsCorpus() {
		f.Add(seed)
		for _, line := range bytes.Split(seed, []byte("\n")) {
			f.Add(line)
		}
	}
	for _, c := range decodeEdgeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesOracle(t, data)
	})
}

// decodeBodies are BenchmarkDecodeJob's request bodies: a fixture job
// and inline fork-join graphs of 20 and 160 tasks with five design
// points each, encoded as the serving benchmark's clients send them.
func decodeBodies(tb testing.TB) []struct {
	name string
	body []byte
} {
	inline := func(width, depth, tail int) []byte {
		recipe := dvs.Recipe{Factors: dvs.G3Factors, Rule: dvs.TimeReversedLinear, Round: 1}
		n := 1 + width*depth + tail
		refs := make([][2]float64, n)
		for i := range refs {
			refs[i] = [2]float64{300 + float64(37*i%650), 3 + float64(i%9)}
		}
		points, err := recipe.PointsFunc(refs)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := taskgraph.ForkJoin(width, depth, tail, points)
		if err != nil {
			tb.Fatal(err)
		}
		spec := g.ToSpec(fmt.Sprintf("bench-%d", n))
		body, err := json.Marshal(Job{Graph: &spec, Deadline: (g.MinTotalTime() + g.MaxTotalTime()) / 2})
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	return []struct {
		name string
		body []byte
	}{
		{"fixture", []byte(`{"name":"g3-230","fixture":"g3","deadline":230,"strategy":"multistart","restarts":4,"seed":7}`)},
		{"inline-n20", inline(4, 2, 11)},
		{"inline-n160", inline(8, 10, 79)},
	}
}

// BenchmarkDecodeJob times DecodeJob per body, next to the
// encoding/json decode it replaced.
func BenchmarkDecodeJob(b *testing.B) {
	for _, bc := range decodeBodies(b) {
		for _, dc := range []struct {
			name   string
			decode func([]byte) (Job, error)
		}{{"decoder", DecodeJob}, {"encoding-json", decodeJobOracle}} {
			b.Run(bc.name+"/"+dc.name, func(b *testing.B) {
				b.SetBytes(int64(len(bc.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dc.decode(bc.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
