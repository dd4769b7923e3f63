package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one battschedd process the benchmark started. It owns the
// process until stop returns.
type daemon struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:<port>"

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports

	exited chan struct{} // closed once cmd.Wait has returned
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100 on
// x86-64 and arm64 Linux.
const clockTicks = 100

// startDaemon execs bin on an ephemeral loopback port and returns once
// it reports its listen address. Access logging stays on, as deployed;
// stderr is drained so the daemon never blocks on it.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should the benchmark itself die, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "battschedd: listening on "); ok {
				addr <- a
			}
			d.keep(line)
		}
		io.Copy(io.Discard, stderr) // an over-long line ends the scan; keep draining
	}()
	go func() {
		<-drained // Wait closes the pipe: read everything first
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("battschedd exited before listening: %s", d.lastLines())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("battschedd did not report a listen address within 60s")
	}
}

func (d *daemon) keep(line string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tail) == 8 {
		d.tail = d.tail[1:]
	}
	d.tail = append(d.tail, line)
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// waitReady polls GET /readyz until the daemon reports "ok".
func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"status":"ok"`) {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("battschedd exited before ready: %s", d.lastLines())
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("battschedd not ready within 30s")
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// the drain takes longer than the daemon's own 10s grace.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in
// bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in the daemon's /proc status")
}

// cpuStat is the host-wide "cpu" line of /proc/stat, in ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i := 1; i < len(f) && i <= 8; i++ { // user … steal; guest time is already in user
		v, _ := strconv.ParseInt(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two readings, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// copyTree copies the regular files under src into dst, which must not
// exist yet.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
}

// hostWindow is one second of a timed phase as the host saw it.
type hostWindow struct {
	from, to  time.Duration // since the phase began
	stealPct  float64
	daemonCPU time.Duration
}

// watchHost reads the host's steal counter and the daemon's CPU time
// every second from start until stop is closed.
func watchHost(d *daemon, start time.Time, stop <-chan struct{}) []hostWindow {
	var out []hostWindow
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	from, stat := time.Duration(0), readCPUStat()
	cpu, _ := d.cpu()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		now, nstat := time.Since(start), readCPUStat()
		ncpu, err := d.cpu()
		if err != nil {
			return out
		}
		out = append(out, hostWindow{from: from, to: now, stealPct: stealPct(stat, nstat), daemonCPU: ncpu - cpu})
		from, stat, cpu = now, nstat, ncpu
	}
}

// quietWindows keeps the half of a timed phase's windows in which the
// hypervisor stole the least CPU time. On a shared host steal comes in
// bursts that stall whichever request is in flight; they say nothing
// about the program yet dominate its tail latency, so throughput, CPU
// and latency are taken over the quiet half. Failures count over the
// whole phase.
func quietWindows(ws []hostWindow) []hostWindow {
	q := append([]hostWindow(nil), ws...)
	sort.SliceStable(q, func(a, b int) bool { return q[a].stealPct < q[b].stealPct })
	return q[:(len(q)+1)/2]
}

// within reports whether t falls in one of the windows.
func within(ws []hostWindow, t time.Duration) bool {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}
