package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one oipa-serve process the driver started.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logf *os.File
	done chan struct{}
}

// live tracks every child process so fatal paths can stop them all.
var (
	liveMu sync.Mutex
	live   = map[*exec.Cmd]chan struct{}{}
)

// stopAll terminates every child still running and waits for each.
func stopAll() {
	liveMu.Lock()
	cmds := make(map[*exec.Cmd]chan struct{}, len(live))
	for c, d := range live {
		cmds[c] = d
	}
	liveMu.Unlock()
	for c, d := range cmds {
		terminate(c, d)
	}
}

func terminate(c *exec.Cmd, done chan struct{}) {
	_ = c.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.Process.Kill()
		<-done
	}
	liveMu.Lock()
	delete(live, c)
	liveMu.Unlock()
}

// startProc starts a child and registers it for cleanup; the returned
// channel closes once the child has been waited for.
func startProc(c *exec.Cmd) (chan struct{}, error) {
	if err := c.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	liveMu.Lock()
	live[c] = done
	liveMu.Unlock()
	go func() {
		_ = c.Wait()
		close(done)
	}()
	return done, nil
}

// runProc runs a child to completion, registered for cleanup meanwhile.
func runProc(c *exec.Cmd) error {
	done, err := startProc(c)
	if err != nil {
		return err
	}
	<-done
	liveMu.Lock()
	delete(live, c)
	liveMu.Unlock()
	if !c.ProcessState.Success() {
		return fmt.Errorf("%s: %v", filepath.Base(c.Path), c.ProcessState)
	}
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs oipa-serve with args and returns once /readyz
// answers 200. logPath receives the server's stderr.
func startServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	all := append([]string{"-addr", addr, "-log-requests=false", "-drain-grace", "2s"}, args...)
	cmd := exec.Command(filepath.Join(bin, "oipa-serve"), all...)
	cmd.Stdout, cmd.Stderr = logf, logf
	done, err := startProc(cmd)
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, done: done}
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-done:
			s.stop()
			return nil, fmt.Errorf("oipa-serve exited during start-up: %s", tail(logPath))
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("oipa-serve not ready after 60s: %s", tail(logPath))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) stop() {
	terminate(s.cmd, s.done)
	s.logf.Close()
}

// cpuTicks reads the process's user+system CPU time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// peakRSSMB reads the process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// metricsSnapshot fetches /metrics as a flat map of dotted JSON paths to
// numbers ("registry.prepares" → 12).
func metricsSnapshot(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v interface{}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	flatten("", v, out)
	return out, nil
}

func flatten(prefix string, v interface{}, out map[string]float64) {
	switch t := v.(type) {
	case map[string]interface{}:
		for k, x := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, x, out)
		}
	case float64:
		out[prefix] = t
	}
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}
