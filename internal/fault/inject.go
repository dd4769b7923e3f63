// The deterministic injector: a wrapping FS (and http.RoundTripper —
// see http.go) that fails operations on a counter/stride schedule.
package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names one interceptable operation kind. Each op kind has its own
// 1-based counter in the injector, so a schedule like "fail the 3rd
// rename" is independent of how many reads happened around it.
type Op string

const (
	OpMkdirAll  Op = "mkdir"
	OpReadDir   Op = "readdir"
	OpReadFile  Op = "read"
	OpRemove    Op = "remove"
	OpRename    Op = "rename"
	OpCreate    Op = "create"
	OpWrite     Op = "write"
	OpSync      Op = "sync"
	OpClose     Op = "close"
	OpChtimes   Op = "chtimes"
	OpSyncDir   Op = "syncdir"
	OpRoundTrip Op = "roundtrip"
)

// ops is the closed vocabulary ParseRules accepts.
var ops = map[Op]bool{
	OpMkdirAll: true, OpReadDir: true, OpReadFile: true, OpRemove: true,
	OpRename: true, OpCreate: true, OpWrite: true, OpSync: true,
	OpClose: true, OpChtimes: true, OpSyncDir: true, OpRoundTrip: true,
}

// ErrInjected marks every error the injector produces: errors.Is(err,
// fault.ErrInjected) distinguishes a scheduled fault from the real
// world's. Injected errors also unwrap to their errno (syscall.EIO,
// syscall.ENOSPC), so the code under test cannot tell the difference —
// only the harness can.
var ErrInjected = errors.New("fault: injected")

// injectedError carries the op and the errno of one fired fault.
type injectedError struct {
	op  Op
	err error
}

func (e *injectedError) Error() string { return fmt.Sprintf("fault: injected %s on %s", e.err, e.op) }
func (e *injectedError) Is(target error) bool {
	return target == ErrInjected || errors.Is(e.err, target)
}
func (e *injectedError) Unwrap() error { return e.err }

// Rule is one schedule entry: when the trigger matches an op's counter,
// the effect fires. Exactly one trigger (Nth or Every) and one effect
// (Err, TruncateAt, Delay or Status) should be set; ParseRules enforces
// this for the string form.
type Rule struct {
	// Op selects which operation counter this rule watches.
	Op Op
	// Nth fires on exactly the Nth op of the kind (1-based), once.
	Nth uint64
	// Every fires on every Every-th op of the kind (count%Every == 0).
	Every uint64
	// Err is the error to inject — typically syscall.EIO or
	// syscall.ENOSPC (see ParseRules's "eio"/"enospc").
	Err error
	// Torn, for OpWrite rules, makes the write tear: only the first
	// TruncateAt bytes reach the file, then the write fails with EIO —
	// a torn write at a deterministic byte offset.
	Torn       bool
	TruncateAt int
	// Delay stalls the op before it runs (the op itself then proceeds
	// normally unless another effect is set). Models a slow disk or a
	// congested network without failing anything.
	Delay time.Duration
	// Status, for OpRoundTrip rules, synthesizes an HTTP response with
	// this status code (plus a Retry-After: 1 header on 429/503)
	// instead of performing the round trip.
	Status int
}

// matches reports whether the rule fires on the count-th op.
func (r Rule) matches(op Op, count uint64) bool {
	if r.Op != op {
		return false
	}
	if r.Nth > 0 {
		return count == r.Nth
	}
	return r.Every > 0 && count%r.Every == 0
}

// ParseRules parses the battload/-test schedule syntax: a comma list of
// rules, each "op:trigger:effect".
//
//	write:nth=3:eio        the 3rd write fails with EIO
//	sync:every=5:enospc    every 5th fsync fails with ENOSPC
//	write:nth=7:torn@128   the 7th write tears after 128 bytes (then EIO)
//	rename:nth=1:delay@50ms  the 1st rename is delayed 50ms
//	roundtrip:every=4:status@503  every 4th HTTP request answers 503
//
// Ops: mkdir readdir read remove rename create write sync close chtimes
// syncdir roundtrip. Triggers: nth=N (once) or every=K (stride).
// Effects: eio, enospc, torn@BYTES (write only), delay@DURATION,
// status@CODE (roundtrip only).
func ParseRules(s string) ([]Rule, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(s, ",") {
		r, err := parseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	fields := strings.Split(s, ":")
	if len(fields) != 3 {
		return r, fmt.Errorf("fault: rule %q is not op:trigger:effect", s)
	}
	r.Op = Op(fields[0])
	if !ops[r.Op] {
		return r, fmt.Errorf("fault: rule %q: unknown op %q", s, fields[0])
	}

	trig, val, ok := strings.Cut(fields[1], "=")
	n, err := strconv.ParseUint(val, 10, 64)
	if !ok || err != nil || n == 0 {
		return r, fmt.Errorf("fault: rule %q: trigger must be nth=N or every=K with positive N", s)
	}
	switch trig {
	case "nth":
		r.Nth = n
	case "every":
		r.Every = n
	default:
		return r, fmt.Errorf("fault: rule %q: unknown trigger %q", s, trig)
	}

	effect, arg, hasArg := strings.Cut(fields[2], "@")
	switch effect {
	case "eio":
		r.Err = syscall.EIO
	case "enospc":
		r.Err = syscall.ENOSPC
	case "torn":
		if r.Op != OpWrite {
			return r, fmt.Errorf("fault: rule %q: torn applies to write only", s)
		}
		at, err := strconv.Atoi(arg)
		if !hasArg || err != nil || at < 0 {
			return r, fmt.Errorf("fault: rule %q: torn needs @BYTES", s)
		}
		r.Torn, r.TruncateAt = true, at
	case "delay":
		d, err := time.ParseDuration(arg)
		if !hasArg || err != nil || d <= 0 {
			return r, fmt.Errorf("fault: rule %q: delay needs @DURATION", s)
		}
		r.Delay = d
	case "status":
		if r.Op != OpRoundTrip {
			return r, fmt.Errorf("fault: rule %q: status applies to roundtrip only", s)
		}
		code, err := strconv.Atoi(arg)
		if !hasArg || err != nil || code < 100 || code > 599 {
			return r, fmt.Errorf("fault: rule %q: status needs @CODE in [100,599]", s)
		}
		r.Status = code
	default:
		return r, fmt.Errorf("fault: rule %q: unknown effect %q", s, effect)
	}
	return r, nil
}

// Injector wraps an FS, firing the scheduled faults. Safe for
// concurrent use; the per-op counters are a single serialized sequence,
// so a schedule's meaning does not depend on goroutine interleaving
// beyond the op order itself.
type Injector struct {
	fs    FS
	rules []Rule

	mu       sync.Mutex
	counts   map[Op]uint64
	injected uint64
	byOp     map[Op]uint64
}

// NewInjector wraps fsys with the scheduled rules. A rule-free injector
// is a transparent pass-through that still counts ops — which is
// exactly what the sync-counting regression tests want.
func NewInjector(fsys FS, rules ...Rule) *Injector {
	return &Injector{
		fs:     fsys,
		rules:  rules,
		counts: make(map[Op]uint64),
		byOp:   make(map[Op]uint64),
	}
}

// outcome is what the schedule resolved for one op: at most one of err,
// torn (with its offset) or status fires; delay composes with any.
type outcome struct {
	err    error
	torn   bool
	tornAt int
	status int
	delay  time.Duration
}

// step advances op's counter and resolves the schedule without pausing —
// the caller owns the delay (the HTTP seam waits context-aware, the FS
// seam plain-sleeps via stepWait).
func (in *Injector) step(op Op) outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[op]++
	count := in.counts[op]
	var out outcome
	for _, r := range in.rules {
		if !r.matches(op, count) {
			continue
		}
		if r.Delay > 0 {
			out.delay += r.Delay
		}
		if r.Err != nil && out.err == nil {
			out.err = &injectedError{op: op, err: r.Err}
		}
		if r.Torn && !out.torn {
			out.torn, out.tornAt = true, r.TruncateAt
			if out.err == nil {
				out.err = &injectedError{op: op, err: syscall.EIO}
			}
		}
		if r.Status != 0 && out.status == 0 {
			out.status = r.Status
		}
	}
	if out.err != nil || out.status != 0 {
		in.injected++
		in.byOp[op]++
	}
	return out
}

// stepWait is step plus the resolved delay, slept in place — the slow
// disk. Filesystem calls have no context to interrupt them, exactly
// like the real syscalls.
func (in *Injector) stepWait(op Op) outcome {
	out := in.step(op)
	if out.delay > 0 {
		time.Sleep(out.delay)
	}
	return out
}

// Count returns how many ops of the kind have been attempted (fired or
// not) — the observability hook for "the store fsyncs the directory
// exactly twice per write" style assertions.
func (in *Injector) Count(op Op) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// Injected returns how many faults have fired in total.
func (in *Injector) Injected() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// InjectedByOp returns a copy of the per-op fired-fault counts — the
// chaos harness's ledger of what actually happened.
func (in *Injector) InjectedByOp() map[Op]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Op]uint64, len(in.byOp))
	for op, n := range in.byOp {
		out[op] = n
	}
	return out
}

// FS seam implementation: every method steps the schedule, then either
// fails with the injected error or passes through.

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if out := in.stepWait(OpMkdirAll); out.err != nil {
		return out.err
	}
	return in.fs.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if out := in.stepWait(OpReadDir); out.err != nil {
		return nil, out.err
	}
	return in.fs.ReadDir(name)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if out := in.stepWait(OpReadFile); out.err != nil {
		return nil, out.err
	}
	return in.fs.ReadFile(name)
}

func (in *Injector) Remove(name string) error {
	if out := in.stepWait(OpRemove); out.err != nil {
		return out.err
	}
	return in.fs.Remove(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if out := in.stepWait(OpRename); out.err != nil {
		return out.err
	}
	return in.fs.Rename(oldpath, newpath)
}

func (in *Injector) Chtimes(name string, atime, mtime time.Time) error {
	if out := in.stepWait(OpChtimes); out.err != nil {
		return out.err
	}
	return in.fs.Chtimes(name, atime, mtime)
}

func (in *Injector) SyncDir(name string) error {
	if out := in.stepWait(OpSyncDir); out.err != nil {
		return out.err
	}
	return in.fs.SyncDir(name)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if out := in.stepWait(OpCreate); out.err != nil {
		return nil, out.err
	}
	f, err := in.fs.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{File: f, in: in}, nil
}

// injectFile threads the write/sync/close ops of a created file through
// the schedule — this is where torn writes happen.
type injectFile struct {
	File
	in *Injector
}

func (f *injectFile) Write(p []byte) (int, error) {
	out := f.in.stepWait(OpWrite)
	if out.torn {
		// The torn write: the first tornAt bytes land, the rest never
		// do. The underlying short write is real — a crash-shaped
		// artifact on the actual file.
		n := out.tornAt
		if n > len(p) {
			n = len(p)
		}
		wrote, werr := f.File.Write(p[:n])
		if werr != nil {
			return wrote, werr
		}
		return wrote, out.err
	}
	if out.err != nil {
		return 0, out.err
	}
	return f.File.Write(p)
}

func (f *injectFile) Sync() error {
	if out := f.in.stepWait(OpSync); out.err != nil {
		return out.err
	}
	return f.File.Sync()
}

func (f *injectFile) Close() error {
	if out := f.in.stepWait(OpClose); out.err != nil {
		f.File.Close() // release the descriptor regardless
		return out.err
	}
	return f.File.Close()
}
