package main

import (
	"bytes"
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

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// server is one ssserve process the benchmark started.
type server struct {
	name string
	args []string
	bin  string
	addr string // host:port
	cmd  *exec.Cmd
	out  *tailBuffer
	done chan struct{}
}

// tailBuffer drains a child's stdout and stderr through a pipe, so the
// per-request log never reaches storage (write_amp counts only durable
// writes), and keeps the last few KiB for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin with args plus -addr on a free port, in dir.
func startServer(name, bin, dir string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{name: name, bin: bin, args: args, addr: addr}
	return s, s.start(dir)
}

func (s *server) start(dir string) error {
	s.cmd = exec.Command(s.bin, append(append([]string{}, s.args...), "-addr", s.addr)...)
	s.cmd.Dir = dir
	// A server must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.out = &tailBuffer{}
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	s.done = make(chan struct{})
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status is reported through waitReady or ignored after kill
		close(done)
	}(s.cmd, s.done)
	return nil
}

func (s *server) url() string { return "http://" + s.addr }
func (s *server) pid() int    { return s.cmd.Process.Pid }

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before ready: %s", s.name, s.out.String())
		default:
		}
		resp, err := c.Get(s.url() + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v: %s", s.name, timeout, s.out.String())
}

// kill sends SIGKILL and waits until the process has exited.
func (s *server) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine: done closes either way
	<-s.done
}

// procStats is what /proc reports for one process.
type procStats struct {
	cpu        time.Duration // utime + stime
	hwmKB      int64         // VmHWM
	writeBytes int64         // bytes the process caused to be sent to storage
}

func readProc(pid int) (procStats, error) {
	var ps procStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			ps.hwmKB, _ = strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	ioStat, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(ioStat), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			ps.writeBytes, _ = strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return ps, nil
}

// fleetStats sums readProc over servers.
func fleetStats(servers []*server) (procStats, error) {
	var sum procStats
	for _, s := range servers {
		ps, err := readProc(s.pid())
		if err != nil {
			return sum, fmt.Errorf("%s: %w", s.name, err)
		}
		sum.cpu += ps.cpu
		sum.hwmKB += ps.hwmKB
		sum.writeBytes += ps.writeBytes
	}
	return sum, nil
}

// runTool runs a build step (ssgen) to completion in dir.
func runTool(dir, bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, out.String())
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
