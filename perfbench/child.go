package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetero/internal/api"
)

// child is a running heterod process.
type child struct {
	cmd       *exec.Cmd
	base      string // http://host:port of the serving listener
	pprofBase string // http://host:port of -pprof-addr, if enabled
	exited    chan error
}

// startChild execs heterod with flags and returns once /v1/healthz has
// answered 200, with the time that took from exec: the setup time.
// heterod's log goes to logPath.
func startChild(bin string, flags []string, logPath string) (*child, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	lw := &logWatch{w: logf, lines: make(chan string, 64)}
	cmd := exec.Command(bin, flags...)
	cmd.Stderr = lw
	// A benchmark killed from outside takes heterod down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting heterod: %w", err)
	}
	c := &child{cmd: cmd, exited: make(chan error, 1)}
	go func() {
		err := cmd.Wait() // returns once the log has been copied, too
		logf.Close()
		c.exited <- err
	}()
	wantPprof := false
	for _, f := range flags {
		wantPprof = wantPprof || f == "-pprof-addr"
	}
	// heterod logs the pprof listener (if any) and then the serving one.
	for c.base == "" {
		select {
		case line := <-lw.lines:
			if _, addr, ok := strings.Cut(line, "heterod pprof listening on "); ok {
				c.pprofBase = "http://" + addr
			} else if _, addr, ok := strings.Cut(line, "heterod listening on "); ok {
				c.base = "http://" + addr
			}
		case err := <-c.exited:
			return nil, 0, fmt.Errorf("heterod exited before listening (%v; see %s)", err, logPath)
		case <-time.After(60 * time.Second):
			c.stop()
			return nil, 0, errors.New("heterod did not report its listener")
		}
	}
	if wantPprof && c.pprofBase == "" {
		c.stop()
		return nil, 0, errors.New("heterod did not report its pprof listener")
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer probe.CloseIdleConnections()
	for poll := t0; ; {
		resp, err := probe.Get(c.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			c.stop()
			return nil, 0, errors.New("heterod never became healthy")
		}
		poll = poll.Add(healthPoll)
		sleepUntil(poll, 0)
	}
}

// healthPoll is the /v1/healthz polling interval during start-up. It is
// slept with sleepUntil: time.Sleep would round it up to about 1 ms,
// a quarter of a typical start.
const healthPoll = 100 * time.Microsecond

// logWatch copies heterod's log to w and hands each complete line to
// lines, dropping lines nobody is waiting for: only the first few matter.
type logWatch struct {
	w     io.Writer
	buf   []byte
	lines chan string
}

func (l *logWatch) Write(p []byte) (int, error) {
	_, _ = l.w.Write(p) // the log file is diagnostic only
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		select {
		case l.lines <- string(l.buf[:i]):
		default:
		}
		l.buf = l.buf[i+1:]
	}
}

// stop drains heterod with SIGTERM, killing it if the drain hangs, and
// waits for it to exit.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.exited:
		return err
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return errors.New("heterod did not drain within 30s; killed")
	}
}

// cpuTicks is the process's utime+stime in clock ticks (USER_HZ = 100 on
// Linux), from /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold spaces.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14, utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15, stime
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// hostTicks returns the host-wide total and steal clock ticks from the
// cpu line of /proc/stat. Steal is time the hypervisor ran something else
// while this machine wanted the CPU: a noisy-neighbour reading.
func hostTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat cpu line")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// ticksToMicros converts clock ticks to microseconds.
const ticksToMicros = 1e6 / 100

// peakRSSMB is the process's VmHWM in MiB, from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func statz(c *http.Client, base string) (api.StatzResponse, error) {
	var s api.StatzResponse
	return s, getJSON(c, base+"/v1/statz", &s)
}

// memCounters are the runtime.MemStats lines of the heap profile's debug
// page that the per-request allocation and GC figures come from.
type memCounters struct{ totalAlloc, numGC float64 }

func heapPage(c *http.Client, pprofBase string) (memCounters, error) {
	resp, err := c.Get(pprofBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memCounters{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return memCounters{}, err
	}
	var m memCounters
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		for name, dst := range map[string]*float64{"# TotalAlloc = ": &m.totalAlloc, "# NumGC = ": &m.numGC} {
			if v, ok := strings.CutPrefix(line, name); ok {
				if *dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
					return m, err
				}
				seen++
			}
		}
	}
	if seen != 2 {
		return m, errors.New("heap profile page lacks TotalAlloc/NumGC")
	}
	return m, nil
}
