package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseRules(t *testing.T) {
	good := map[string]Rule{
		"write:nth=3:eio":              {Op: OpWrite, Nth: 3, Err: syscall.EIO},
		"sync:every=5:enospc":          {Op: OpSync, Every: 5, Err: syscall.ENOSPC},
		"write:nth=7:torn@128":         {Op: OpWrite, Nth: 7, Torn: true, TruncateAt: 128},
		"write:nth=1:torn@0":           {Op: OpWrite, Nth: 1, Torn: true, TruncateAt: 0},
		"rename:nth=1:delay@50ms":      {Op: OpRename, Nth: 1, Delay: 50 * time.Millisecond},
		"roundtrip:every=4:status@503": {Op: OpRoundTrip, Every: 4, Status: 503},
	}
	for s, want := range good {
		rules, err := ParseRules(s)
		if err != nil {
			t.Fatalf("ParseRules(%q): %v", s, err)
		}
		if len(rules) != 1 || rules[0] != want {
			t.Errorf("ParseRules(%q) = %+v, want %+v", s, rules, want)
		}
	}

	multi, err := ParseRules("write:nth=3:eio, sync:every=5:enospc")
	if err != nil || len(multi) != 2 {
		t.Fatalf("comma list: rules=%v err=%v", multi, err)
	}

	if rules, err := ParseRules("  "); err != nil || rules != nil {
		t.Errorf("blank schedule: rules=%v err=%v, want nil,nil", rules, err)
	}

	bad := []string{
		"write:nth=3",              // missing effect
		"write:nth=3:eio:extra",    // too many fields
		"frobnicate:nth=1:eio",     // unknown op
		"write:always:eio",         // unknown trigger
		"write:nth=0:eio",          // zero count
		"write:nth=x:eio",          // non-numeric
		"write:nth=1:explode",      // unknown effect
		"sync:nth=1:torn@10",       // torn on non-write
		"write:nth=1:torn",         // torn missing bytes
		"write:nth=1:torn@-1",      // negative bytes
		"write:nth=1:delay@zzz",    // bad duration
		"write:nth=1:delay@-1s",    // non-positive duration
		"write:nth=1:status@503",   // status on non-roundtrip
		"roundtrip:nth=1:status@9", // out-of-range code
		"roundtrip:nth=1:status",   // status missing code
	}
	for _, s := range bad {
		if _, err := ParseRules(s); err == nil {
			t.Errorf("ParseRules(%q): want error, got nil", s)
		}
	}
}

func TestInjectorNthAndEvery(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS,
		Rule{Op: OpReadFile, Nth: 2, Err: syscall.EIO},
		Rule{Op: OpRemove, Every: 2, Err: syscall.ENOSPC},
	)

	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// nth=2 on read: 1st ok, 2nd fails, 3rd ok again (nth fires once).
	if _, err := in.ReadFile(path); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := in.ReadFile(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read 2: want EIO, got %v", err)
	}
	if _, err := in.ReadFile(path); err != nil {
		t.Fatalf("read 3: %v", err)
	}

	// every=2 on remove: odd attempts pass, even attempts fail.
	for i := 1; i <= 4; i++ {
		os.WriteFile(path, []byte("x"), 0o644)
		err := in.Remove(path)
		if i%2 == 0 {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("remove %d: want ENOSPC, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}

	if got := in.Count(OpReadFile); got != 3 {
		t.Errorf("Count(read) = %d, want 3", got)
	}
	if got := in.Injected(); got != 3 {
		t.Errorf("Injected() = %d, want 3 (1 read + 2 removes)", got)
	}
	if got := in.InjectedByOp()[OpRemove]; got != 2 {
		t.Errorf("InjectedByOp()[remove] = %d, want 2", got)
	}
}

func TestInjectedErrorIdentity(t *testing.T) {
	in := NewInjector(OS, Rule{Op: OpSyncDir, Nth: 1, Err: syscall.EIO})
	err := in.SyncDir(t.TempDir())
	if !errors.Is(err, ErrInjected) {
		t.Errorf("injected error does not match ErrInjected: %v", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("injected error does not unwrap to EIO: %v", err)
	}
	if !strings.Contains(err.Error(), "syncdir") {
		t.Errorf("error text %q does not name the op", err)
	}
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS, Rule{Op: OpWrite, Nth: 1, Torn: true, TruncateAt: 4})

	f, err := in.CreateTemp(dir, "torn-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("hello world"))
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: want injected EIO, got n=%d err=%v", n, err)
	}
	if n != 4 {
		t.Fatalf("torn write reported %d bytes, want 4", n)
	}
	f.Close()

	// The crash-shaped artifact is real: exactly 4 bytes on disk.
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hell" {
		t.Fatalf("file holds %q, want %q", got, "hell")
	}

	// A second write on a fresh file is past nth=1 and goes through whole.
	f2, err := in.CreateTemp(dir, "ok-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f2.Write([]byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write 2: n=%d err=%v", n, err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorDelay(t *testing.T) {
	in := NewInjector(OS, Rule{Op: OpReadDir, Nth: 1, Delay: 30 * time.Millisecond})
	start := time.Now()
	if _, err := in.ReadDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("delayed op took %v, want >= 30ms", d)
	}
	// Delay alone injects nothing — the op succeeded.
	if got := in.Injected(); got != 0 {
		t.Errorf("Injected() = %d after pure delay, want 0", got)
	}
}

func TestOSRoundTripThroughSeam(t *testing.T) {
	// A rule-free injector over OS behaves exactly like the filesystem,
	// while still counting ops.
	dir := t.TempDir()
	in := NewInjector(OS)

	sub := filepath.Join(dir, "aa")
	if err := in.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := in.CreateTemp(dir, "x-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(sub, "entry")
	if err := in.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if err := in.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	if err := in.Chtimes(dst, time.Now(), time.Now()); err != nil {
		t.Fatal(err)
	}
	got, err := in.ReadFile(dst)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	ents, err := in.ReadDir(sub)
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir: %v, %v", ents, err)
	}
	if err := in.Remove(dst); err != nil {
		t.Fatal(err)
	}

	for _, op := range []Op{OpMkdirAll, OpCreate, OpWrite, OpSync, OpClose, OpRename, OpSyncDir, OpChtimes, OpReadFile, OpReadDir, OpRemove} {
		if got := in.Count(op); got != 1 {
			t.Errorf("Count(%s) = %d, want 1", op, got)
		}
	}
}

func TestTransportFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "real")
	}))
	defer srv.Close()

	in := NewInjector(OS,
		Rule{Op: OpRoundTrip, Nth: 1, Err: syscall.ECONNRESET},
		Rule{Op: OpRoundTrip, Nth: 2, Status: 503},
		Rule{Op: OpRoundTrip, Nth: 3, Status: 429},
		Rule{Op: OpRoundTrip, Nth: 4, Status: 500},
	)
	client := &http.Client{Transport: &Transport{Injector: in}}

	// 1st: transport-level failure.
	if _, err := client.Get(srv.URL); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("request 1: want injected transport error, got %v", err)
	}

	// 2nd + 3rd: synthesized 503/429 with Retry-After.
	for i, want := range []int{503, 429} {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i+2, err)
		}
		if resp.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d", i+2, resp.StatusCode, want)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Errorf("request %d: Retry-After = %q, want \"1\"", i+2, ra)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "injected") {
			t.Errorf("request %d: body %q lacks the injected marker", i+2, body)
		}
	}

	// 4th: synthesized 500 has no Retry-After.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Fatalf("request 4: status %d, want 500", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("request 4: unexpected Retry-After %q", ra)
	}
	resp.Body.Close()

	// 5th: past the schedule, the real server answers.
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "real" {
		t.Fatalf("request 5: body %q, want \"real\"", body)
	}

	if got := in.Injected(); got != 4 {
		t.Errorf("Injected() = %d, want 4", got)
	}
}
