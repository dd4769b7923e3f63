package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/battery"
	"repro/internal/taskgraph"
)

// This file is the job decoder: one pass over the request bytes that
// writes straight into a Job, its inline taskgraph.Spec and its
// battery.Spec. The schema is fixed, so keys are matched against the
// field names below rather than discovered by reflection, numbers go
// straight to strconv, and a key is never copied into a string.
//
// The decoder accepts exactly the documents encoding/json (with
// DisallowUnknownFields, one value per call) accepts for a Job, builds
// the same value, and reports the same error text:
//
//   - keys match a field exactly or, failing that, case-folded
//     (bytes.EqualFold, so "DEADLINE" and "ſtrategy" both match);
//   - a repeated key decodes again over what is there: scalars take
//     the last value, a non-nil pointer is decoded into in place, and
//     an array decodes into the slice's existing elements, including
//     ones an earlier, longer array left beyond its length;
//   - null sets a pointer or slice to nil and leaves everything else
//     as it was;
//   - a type mismatch, an unparsable number (1e999, or 1e2 for an
//     integer) and an unknown key are recorded — the first one is the
//     error — and decoding carries on, so the partial Job matches too;
//   - any syntax error, found anywhere in the value, wins over those
//     and yields the zero Job;
//   - strings decode escapes and surrogate pairs, and replace invalid
//     UTF-8 and unpaired surrogates with U+FFFD.
//
// The test file decode_test.go holds encoding/json as the oracle, and
// FuzzDecodeJobEquivalence checks all of the above against it.

// maxDepth bounds container nesting where encoding/json's scanner does.
const maxDepth = 10000

// The field names of each decoded struct, as their json tags spell
// them. TestDecodeFieldsMatchTags keeps them in step with the tags.
var (
	jobFields = []string{"name", "fixture", "graph", "deadline", "strategy", "beta", "battery",
		"approx", "restarts", "seed", "restart_workers", "timeout_ms", "priority", "ttl_ms"}
	specFields        = []string{"name", "tasks"}
	taskFields        = []string{"id", "name", "points", "parents"}
	pointFields       = []string{"current", "time", "voltage", "name"}
	batteryFields     = []string{"kind", "beta", "terms", "exponent", "ref_current", "capacity", "well_fraction", "rate_constant", "observations"}
	observationFields = []string{"current", "lifetime"}
)

// decoder is the state of one DecodeJob call.
type decoder struct {
	data  []byte
	pos   int
	depth int // containers open at pos
	// saved is the first type or unknown-field error; decoding goes on
	// past it the way encoding/json's does.
	saved error
	// strct and path name the value being decoded in type errors: the
	// innermost struct whose field it is, and the field names from the
	// job down.
	strct   string
	path    []string
	pathBuf [6]string
	// scratch holds the unescaped bytes of the last key or string that
	// had escapes or non-ASCII bytes.
	scratch []byte
	// recent caches short decoded strings by length and last byte, so
	// a value that repeats — a design-point name like "DP1" recurs in
	// every task — reuses one string instead of allocating a copy per
	// occurrence.
	recent [16]string
}

// DecodeJob strictly parses one JSON job: unknown fields and trailing
// data after the object are rejected, so a concatenated or truncated
// request cannot silently lose half its payload. Validation and graph
// resolution happen once, in ToEngine.
//
// As with encoding/json's Decoder, closing brackets after the object
// do not count as trailing data.
func DecodeJob(data []byte) (Job, error) {
	var j Job
	d := decoder{data: data}
	d.path = d.pathBuf[:0]
	if err := d.top(&j); err != nil {
		return Job{}, err
	}
	if d.saved != nil {
		return j, d.saved
	}
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] != ']' && d.data[d.pos] != '}' {
		return j, fmt.Errorf("job %s: trailing data after the job object", j.label())
	}
	return j, nil
}

// top decodes the document's first value into j. Only an object or
// null is a job; any other value is still read through, so a syntax
// error in it wins over the type error.
func (d *decoder) top(j *Job) error {
	d.space()
	if d.pos == len(d.data) {
		return io.EOF
	}
	c := d.data[d.pos]
	switch c {
	case '{':
		return d.job(j)
	case 'n':
		return d.literal("null")
	}
	if err := d.skip(); err != nil {
		return err
	}
	d.save(errors.New("json: cannot unmarshal " + kindOf(c) + " into Go value of type wire.Job"))
	return nil
}

func (d *decoder) job(j *Job) error {
	return d.object("Job", "wire.Job", jobFields, func(name string) error {
		switch name {
		case "name":
			return d.str(&j.Name)
		case "fixture":
			return d.str(&j.Fixture)
		case "graph":
			return decodePtr(d, &j.Graph, d.spec)
		case "deadline":
			return d.float(&j.Deadline)
		case "strategy":
			return d.str(&j.Strategy)
		case "beta":
			return d.float(&j.Beta)
		case "battery":
			return decodePtr(d, &j.Battery, d.battery)
		case "approx":
			return d.float(&j.Approx)
		case "restarts":
			return d.int(&j.Restarts)
		case "seed":
			return d.int64(&j.Seed)
		case "restart_workers":
			return d.int(&j.RestartWorkers)
		case "timeout_ms":
			return d.int64(&j.TimeoutMS)
		case "priority":
			return d.int(&j.Priority)
		default: // ttl_ms
			return d.int64(&j.TTLMS)
		}
	})
}

func (d *decoder) spec(s *taskgraph.Spec) error {
	return d.object("Spec", "taskgraph.Spec", specFields, func(name string) error {
		if name == "name" {
			return d.str(&s.Name)
		}
		return decodeArray(d, &s.Tasks, "[]taskgraph.TaskSpec", d.task)
	})
}

func (d *decoder) task(t *taskgraph.TaskSpec) error {
	return d.object("TaskSpec", "taskgraph.TaskSpec", taskFields, func(name string) error {
		switch name {
		case "id":
			return d.int(&t.ID)
		case "name":
			return d.str(&t.Name)
		case "points":
			return decodeArray(d, &t.Points, "[]taskgraph.PointSpec", d.point)
		default: // parents
			return decodeArray(d, &t.Parents, "[]int", d.int)
		}
	})
}

func (d *decoder) point(p *taskgraph.PointSpec) error {
	return d.object("PointSpec", "taskgraph.PointSpec", pointFields, func(name string) error {
		switch name {
		case "current":
			return d.float(&p.Current)
		case "time":
			return d.float(&p.Time)
		case "voltage":
			return d.float(&p.Voltage)
		default: // name
			return d.str(&p.Name)
		}
	})
}

func (d *decoder) battery(s *battery.Spec) error {
	return d.object("Spec", "battery.Spec", batteryFields, func(name string) error {
		switch name {
		case "kind":
			return d.str(&s.Kind)
		case "beta":
			return d.float(&s.Beta)
		case "terms":
			return d.int(&s.Terms)
		case "exponent":
			return d.float(&s.Exponent)
		case "ref_current":
			return d.float(&s.RefCurrent)
		case "capacity":
			return d.float(&s.Capacity)
		case "well_fraction":
			return d.float(&s.WellFraction)
		case "rate_constant":
			return d.float(&s.RateConstant)
		default: // observations
			return decodeArray(d, &s.Observations, "[]battery.Observation", d.observation)
		}
	})
}

func (d *decoder) observation(o *battery.Observation) error {
	return d.object("Observation", "battery.Observation", observationFields, func(name string) error {
		if name == "current" {
			return d.float(&o.Current)
		}
		return d.float(&o.Lifetime)
	})
}

// object decodes a JSON object into a struct of type typ (named strct
// in error text) whose fields are names: each known key's value goes
// to field, each unknown key is recorded as an error and skipped.
func (d *decoder) object(strct, typ string, names []string, field func(name string) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '{' {
		return d.other(c, typ)
	}
	if err := d.open(); err != nil {
		return err
	}
	outer, depth := d.strct, len(d.path)
	for first := true; ; first = false {
		name, key, more, err := d.member(first, names)
		if err != nil || !more {
			return err
		}
		if name == "" {
			d.save(fmt.Errorf("json: unknown field %q", key))
			err = d.skip()
		} else {
			d.strct, d.path = strct, append(d.path, name)
			err = field(name)
			d.strct, d.path = outer, d.path[:depth]
		}
		if err != nil {
			return err
		}
	}
}

// match returns the field name key selects, matched case-folded, or ""
// when it selects none. (encoding/json prefers an exact match to a
// folded one, which only matters for names that fold alike; no two
// field names here do.)
func match(key []byte, names []string) string {
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// decodePtr decodes into the struct *p points at, allocating it if p
// is nil; null sets *p to nil.
func decodePtr[T any](d *decoder, p **T, decode func(*T) error) error {
	if null, err := d.null(); null || err != nil {
		if null {
			*p = nil
		}
		return err
	}
	if *p == nil {
		*p = new(T)
	}
	return decode(*p)
}

// decodeArray decodes a JSON array into *s element by element with
// encoding/json's slice rules: elements decode into whatever the
// backing array holds at their index, even past the current length,
// the slice ends up exactly as long as the array, [] gives an empty
// non-nil slice and null a nil one.
func decodeArray[T any](d *decoder, s *[]T, typ string, elem func(*T) error) error {
	if null, err := d.null(); null || err != nil {
		if null {
			*s = nil
		}
		return err
	}
	if d.data[d.pos] != '[' {
		return d.other(d.data[d.pos], typ)
	}
	if err := d.open(); err != nil {
		return err
	}
	v := *s
	i := 0
	for ; ; i++ {
		more, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			// Grow to at least minCap: a task's design points or parents
			// then fit the first allocation.
			grown := make([]T, i+1, max(2*cap(v), minCap))
			copy(grown, v)
			v = grown
		}
		if err := elem(&v[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return nil
}

// minCap is the capacity decodeArray gives a slice it has to grow.
// Capacity is invisible to callers, and past-the-length elements are
// only reused once written, so the growth policy cannot change a
// decoded value.
const minCap = 8

// str decodes a string field.
func (d *decoder) str(dst *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '"' {
		return d.other(c, "string")
	}
	s, err := d.stringLit()
	if err != nil {
		return err
	}
	*dst = d.intern(s)
	return nil
}

// intern returns b as a string, reusing a cached equal one if b is
// short.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 || len(b) > 16 {
		return string(b)
	}
	slot := &d.recent[(len(b)*7+int(b[len(b)-1]))%len(d.recent)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// float decodes a float64 field.
func (d *decoder) float(dst *float64) error {
	lit, err := d.numberOr("float64")
	if lit == nil || err != nil {
		return err
	}
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		d.mismatch("number "+string(lit), "float64")
		return nil
	}
	*dst = f
	return nil
}

// int decodes an int field; an exponent or a fraction is a type error
// even when the value is whole.
func (d *decoder) int(dst *int) error {
	v, ok, err := d.integer(strconv.IntSize, "int")
	if ok {
		*dst = int(v)
	}
	return err
}

// int64 decodes an int64 field.
func (d *decoder) int64(dst *int64) error {
	v, ok, err := d.integer(64, "int64")
	if ok {
		*dst = v
	}
	return err
}

func (d *decoder) integer(bits int, typ string) (int64, bool, error) {
	lit, err := d.numberOr(typ)
	if lit == nil || err != nil {
		return 0, false, err
	}
	v, perr := strconv.ParseInt(string(lit), 10, bits)
	if perr != nil {
		d.mismatch("number "+string(lit), typ)
		return 0, false, nil
	}
	return v, true, nil
}

// numberOr returns the number literal at pos, or nil after handling
// any other value as a field of type typ.
func (d *decoder) numberOr(typ string) ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '-' && !isDigit(c) {
		return nil, d.other(c, typ)
	}
	return d.number()
}

// other handles a value of the wrong kind for a field of type typ:
// null leaves the field alone, anything else is a type error.
func (d *decoder) other(c byte, typ string) error {
	if c == 'n' {
		return d.literal("null")
	}
	if err := d.skip(); err != nil {
		return err
	}
	d.mismatch(kindOf(c), typ)
	return nil
}

// null consumes a null literal at pos, reporting whether there was one.
func (d *decoder) null() (bool, error) {
	c, err := d.peek()
	if err != nil || c != 'n' {
		return false, err
	}
	return true, d.literal("null")
}

// save records err if it is the first error of the decode.
func (d *decoder) save(err error) {
	if d.saved == nil {
		d.saved = err
	}
}

// mismatch records a type error for a value (described as encoding/json
// describes it: "string", "number 1e999", …) in a field of type typ.
func (d *decoder) mismatch(value, typ string) {
	if d.saved == nil {
		d.saved = errors.New("json: cannot unmarshal " + value + " into Go struct field " +
			d.strct + "." + strings.Join(d.path, ".") + " of type " + typ)
	}
}

// kindOf names the kind of JSON value starting with c.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// The lexer. Every function below expects whitespace before pos to be
// skipped already and leaves pos after what it consumed.

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func (d *decoder) space() {
	data, i := d.data, d.pos
	for i < len(data) && data[i] <= ' ' && isSpace(data[i]) {
		i++
	}
	d.pos = i
}

// peek returns the byte at pos; the input ending there is an error,
// since a value must follow.
func (d *decoder) peek() (byte, error) {
	if d.pos == len(d.data) {
		return 0, io.ErrUnexpectedEOF
	}
	return d.data[d.pos], nil
}

// invalid is the syntax error for the byte at pos, in encoding/json's
// words.
func (d *decoder) invalid(context string) error {
	return errors.New("invalid character " + quoteChar(d.data[d.pos]) + " " + context)
}

// quoteChar formats c the way encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// open consumes the '{' or '[' at pos.
func (d *decoder) open() error {
	d.depth++
	if d.depth > maxDepth {
		return d.invalid("exceeded max depth")
	}
	d.pos++
	return nil
}

// member reads the next object member up to its value: the separator
// (none before the first member), the key and the colon. It returns
// the field name the key selects among names, or "" and the key. It
// reports more = false after consuming the closing '}'.
func (d *decoder) member(first bool, names []string) (name string, key []byte, more bool, err error) {
	d.space()
	if d.pos == len(d.data) {
		return "", nil, false, io.ErrUnexpectedEOF
	}
	c := d.data[d.pos]
	if c == '}' {
		d.depth--
		d.pos++
		return "", nil, false, nil
	}
	if !first {
		if c != ',' {
			return "", nil, false, d.invalid("after object key:value pair")
		}
		d.pos++
		d.space()
		if d.pos == len(d.data) {
			return "", nil, false, io.ErrUnexpectedEOF
		}
		c = d.data[d.pos]
	}
	if c != '"' {
		return "", nil, false, d.invalid("looking for beginning of object key string")
	}
	if name = d.literalKey(names); name == "" {
		if key, err = d.stringLit(); err != nil {
			return "", nil, false, err
		}
		name = match(key, names)
	}
	d.space()
	if d.pos == len(d.data) {
		return "", nil, false, io.ErrUnexpectedEOF
	}
	if d.data[d.pos] != ':' {
		return "", nil, false, d.invalid("after object key")
	}
	d.pos++
	d.space()
	return name, key, true, nil
}

// literalKey consumes the key string at pos if it spells one of names
// byte for byte, the common case, and returns that name; otherwise it
// consumes nothing and returns "".
func (d *decoder) literalKey(names []string) string {
	rest := d.data[d.pos+1:]
	for _, n := range names {
		if len(rest) > len(n) && rest[len(n)] == '"' && string(rest[:len(n)]) == n {
			d.pos += len(n) + 2
			return n
		}
	}
	return ""
}

// element reads up to the next array element: the separator (none
// before the first). It reports more = false after consuming the
// closing ']'.
func (d *decoder) element(first bool) (bool, error) {
	d.space()
	if d.pos == len(d.data) {
		return false, io.ErrUnexpectedEOF
	}
	switch c := d.data[d.pos]; {
	case c == ']':
		d.depth--
		d.pos++
		return false, nil
	case first:
		return true, nil
	case c != ',':
		return false, d.invalid("after array element")
	}
	d.pos++
	d.space()
	return true, nil
}

// skip consumes one value of any kind, checking its syntax.
func (d *decoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, _, more, err := d.member(first, nil)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.element(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.invalid("looking for beginning of value")
}

// literal consumes the literal word, whose first byte is at pos.
func (d *decoder) literal(word string) error {
	for k := 1; k < len(word); k++ {
		d.pos++
		if d.pos == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.pos] != word[k] {
			return d.invalid("in literal " + word + " (expecting " + quoteChar(word[k]) + ")")
		}
	}
	d.pos++
	return nil
}

// number consumes the number literal at pos and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
		if d.pos == len(d.data) {
			return nil, io.ErrUnexpectedEOF
		}
		if !isDigit(d.data[d.pos]) {
			return nil, d.invalid("in numeric literal")
		}
	}
	if d.data[d.pos] == '0' {
		d.pos++
	} else {
		d.digits()
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if err := d.needDigit("after decimal point in numeric literal"); err != nil {
			return nil, err
		}
		d.digits()
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if err := d.needDigit("in exponent of numeric literal"); err != nil {
			return nil, err
		}
		d.digits()
	}
	return d.data[start:d.pos], nil
}

func (d *decoder) digits() {
	data, i := d.data, d.pos
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	d.pos = i
}

func (d *decoder) needDigit(context string) error {
	if d.pos == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	if !isDigit(d.data[d.pos]) {
		return d.invalid(context)
	}
	return nil
}

// stringLit consumes the string literal at pos and returns its decoded
// bytes: a slice of the input when it holds only unescaped ASCII,
// else the decoder's scratch buffer, valid until the next call.
func (d *decoder) stringLit() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.scratch = appendUnquoted(d.scratch[:0], raw)
	return d.scratch, nil
}

// scanString consumes the string literal at pos, checking its syntax,
// and returns the bytes between the quotes and whether they are plain
// (no escapes, no bytes outside ASCII).
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	data, start := d.data, d.pos+1
	plain = true
	for i := start; ; {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i == len(data) {
			return nil, false, io.ErrUnexpectedEOF
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			d.pos = i
			if err := d.escape(); err != nil {
				return nil, false, err
			}
			i = d.pos
		case c < ' ':
			d.pos = i
			return nil, false, d.invalid("in string literal")
		default:
			plain = false // outside ASCII
			i++
		}
	}
}

// plainByte marks the bytes a string literal can hold as they are:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape consumes the escape sequence whose backslash is at pos.
func (d *decoder) escape() error {
	d.pos++
	if d.pos == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	switch d.data[d.pos] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.pos++
		return nil
	case 'u':
		for k := 0; k < 4; k++ {
			d.pos++
			if d.pos == len(d.data) {
				return io.ErrUnexpectedEOF
			}
			if !isHex(d.data[d.pos]) {
				return d.invalid("in \\u hexadecimal character escape")
			}
		}
		d.pos++
		return nil
	}
	return d.invalid("in string escape code")
}

// appendUnquoted appends the decoded form of s, the already checked
// bytes of a string literal between its quotes, to dst.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					// A surrogate only counts as half of a valid pair;
					// alone it decodes to U+FFFD.
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// hex4 decodes the four hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
