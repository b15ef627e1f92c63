package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// child is one server process the benchmark started: the shipping
// cmd/sslserver binary or the traced replica. Its stderr is drained
// into a bounded tail, and a waiter goroutine notices an early exit.
type child struct {
	cmd      *exec.Cmd
	addr     string
	started  time.Time
	stderr   *tailWriter
	stdinW   io.WriteCloser // replica control commands (nil for sslserver)
	lines    chan string    // replica control replies
	exited   chan struct{}
	waitErr  error
	stopping atomic.Bool
}

// startChild execs path with args, serving on addr. ctl attaches the
// replica control channel (stdin commands, stdout replies).
func startChild(path string, args []string, addr string, ctl bool) (*child, error) {
	c := &child{
		cmd:    exec.Command(path, args...),
		addr:   addr,
		stderr: &tailWriter{max: 8 << 10},
		exited: make(chan struct{}),
	}
	c.cmd.Stderr = c.stderr
	// Should the driver die without stopping it, the kernel kills the
	// server too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if ctl {
		// Sized for the whole protocol (two acks and one report), so
		// the copying goroutine exec starts never blocks on it.
		c.lines = make(chan string, 8)
		c.cmd.Stdout = &lineWriter{out: c.lines}
		stdin, err := c.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		c.stdinW = stdin
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// waitReady polls addr until the server accepts a TCP connection, the
// process exits, or timeout passes.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := c.alive(); err != nil {
			return err
		}
		conn, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server on %s not ready after %v: %v", c.addr, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports an error when the process has exited without being
// asked to.
func (c *child) alive() error {
	select {
	case <-c.exited:
		if c.stopping.Load() {
			return nil
		}
		return fmt.Errorf("server exited early (%v); stderr tail:\n%s", c.waitErr, c.stderr.String())
	default:
		return nil
	}
}

// stop kills the process and waits until it and its output copiers
// have finished.
func (c *child) stop() {
	c.stopping.Store(true)
	if c.stdinW != nil {
		c.stdinW.Close()
	}
	_ = c.cmd.Process.Kill() // fails only if the process already exited
	<-c.exited
}

// cpuTime is the child's utime+stime so far.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the child's VmHWM in bytes.
func (c *child) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// command sends one control line to the replica and returns its reply.
func (c *child) command(cmd string, timeout time.Duration) (string, error) {
	if _, err := fmt.Fprintln(c.stdinW, cmd); err != nil {
		return "", fmt.Errorf("replica %s: %w", cmd, err)
	}
	select {
	case line := <-c.lines:
		return line, nil
	case <-c.exited:
		// The reply may have been copied just before the exit.
		select {
		case line := <-c.lines:
			return line, nil
		default:
		}
		return "", fmt.Errorf("replica exited during %s (%v); stderr tail:\n%s", cmd, c.waitErr, c.stderr.String())
	case <-time.After(timeout):
		return "", fmt.Errorf("replica %s: no reply after %v", cmd, timeout)
	}
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// tailWriter keeps the last max bytes written to it.
type tailWriter struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// lineWriter splits what it is written into lines on a channel.
type lineWriter struct {
	out     chan string
	pending []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.pending = append(w.pending, p...)
	for {
		i := strings.IndexByte(string(w.pending), '\n')
		if i < 0 {
			return len(p), nil
		}
		w.out <- string(w.pending[:i])
		w.pending = w.pending[i+1:]
	}
}

// hostCPU reads the machine's total and stolen CPU ticks from
// /proc/stat: steal is time the hypervisor ran something else while
// this machine's CPUs wanted to run.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
