package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"netmaster/internal/server"
)

// daemon is one netmaster-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	flags  []string
	base   string
	client *server.Client // timed traffic, through the instrumented transport
	ctl    *server.Client // scrapes and health checks, outside the timed path
	httpc  *http.Client
	exited chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clkTck = 100

// startDaemon launches bin with flags plus a loopback listener on a free
// port, and returns once the daemon has announced its address and
// answers /healthz.
func startDaemon(bin string, flags []string, conns int) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", nproc()))
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, flags: args, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addr <- line[i+len("listening on "):]:
				default:
				}
			}
			d.mu.Lock()
			if d.stderr.Len() < 64<<10 {
				d.stderr.WriteString(line + "\n")
			}
			d.mu.Unlock()
		}
		io.Copy(io.Discard, pipe)
	}()
	go func() { cmd.Wait(); close(d.exited) }()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, fmt.Errorf("netmaster-serve exited during start: %s", d.stderrTail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("netmaster-serve did not announce its address")
	}
	d.httpc = newHTTPClient(conns)
	d.client = server.NewClient(d.base, d.httpc)
	d.ctl = server.NewClient(d.base, &http.Client{Timeout: 2 * time.Minute})
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := d.ctl.Healthz(context.Background()); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("netmaster-serve never became healthy: %s", d.stderrTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stderr.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return strings.TrimSpace(s)
}

// stop sends SIGTERM and waits for the drain; a daemon that does not
// exit in time is killed. Either way the process has ended on return.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.httpc.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("netmaster-serve ignored SIGTERM")
	}
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("netmaster-serve exited with %v: %s", st, d.stderrTail())
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// procSample is what the kernel reports about the daemon process.
type procSample struct {
	CPU        time.Duration // user+sys, all threads
	HWMKB      int64         // peak resident set (VmHWM)
	WriteBytes int64         // bytes the process caused to be written to storage
}

func (d *daemon) proc() (procSample, error) {
	var s procSample
	pid := d.pid()
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.CPU = time.Duration(ut+st) * time.Second / clkTck
	s.HWMKB = procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	s.WriteBytes = procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes:")
	return s, nil
}

// sampleRSS reads the daemon's resident set (VmRSS, in KB) every 50 ms
// until stop closes, then sends the samples on the returned channel.
func (d *daemon) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	path := fmt.Sprintf("/proc/%d/status", d.pid())
	go func() {
		var kb []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			kb = append(kb, float64(procField(path, "VmRSS:")))
			select {
			case <-stop:
				out <- kb
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// procField reads the first integer after key in a /proc key: value file.
func procField(path, key string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// memStats reads the daemon's cumulative allocation and GC count from
// the runtime.MemStats block of /debug/pprof/heap?debug=1.
func (d *daemon) memStats() (totalAlloc, numGC int64, err error) {
	resp, err := http.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, _ = strconv.ParseInt(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return totalAlloc, numGC, sc.Err()
}

// daemonState is everything read from outside the daemon at one instant.
type daemonState struct {
	proc       procSample
	alloc, gcs int64
	counters   map[string]int64
}

func (d *daemon) state(ctx context.Context) (daemonState, error) {
	var s daemonState
	var err error
	if s.proc, err = d.proc(); err != nil {
		return s, err
	}
	if s.alloc, s.gcs, err = d.memStats(); err != nil {
		return s, err
	}
	snap, err := d.ctl.MetricsSnapshot(ctx)
	if err != nil {
		return s, err
	}
	s.counters = snap.Counters
	return s, nil
}
