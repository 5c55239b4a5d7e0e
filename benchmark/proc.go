package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes outside benchmark/out:
// the genlinkd binary and the per-run temp dirs. It sits in the checkout
// because a run may read and write nowhere else.
const buildDir = ".bench_build"

// harness owns what a run leaves behind — child processes and temp
// dirs — and removes all of it on every exit path: normal return, check
// failure and SIGINT/SIGTERM.
type harness struct {
	bin  string // the genlinkd binary under test
	tmp  string // this run's private temp dir
	rule string // the pinned rule file

	mu       sync.Mutex
	servers  []*server // guarded by mu
	launched int       // guarded by mu
	closed   bool      // guarded by mu
}

// newHarness builds ./cmd/genlinkd and creates the run's temp dir. It
// must run from the root of a checkout of this module.
func newHarness() (*harness, time.Duration, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil || !bytes.HasPrefix(mod, []byte("module genlink\n")) {
		return nil, 0, errors.New("run from the root of the genlink checkout (go.mod with `module genlink` not found)")
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, 0, err
	}
	bin := filepath.Join(root, buildDir, "bin", "genlinkd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/genlinkd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go build ./cmd/genlinkd: %w", err)
	}
	build := time.Since(t0)
	if err := os.MkdirAll(filepath.Join(root, buildDir, "tmp"), 0o755); err != nil {
		return nil, 0, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, buildDir, "tmp"), "run-")
	if err != nil {
		return nil, 0, err
	}
	h := &harness{bin: bin, tmp: tmp, rule: filepath.Join(root, "benchmark", "rules", "cora.json")}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close("")
		os.Exit(130)
	}()
	return h, build, nil
}

// dir returns a fresh directory inside the run's temp dir.
func (h *harness) dir(name string) (string, error) {
	return os.MkdirTemp(h.tmp, name+"-")
}

// close kills every child, waits for each, and removes the temp dir.
// When keepLogs names a directory, the servers' stderr files are moved
// there first, next to the result that failed.
func (h *harness) close(keepLogs string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, s := range h.servers {
		s.kill()
	}
	if keepLogs != "" {
		logs, _ := filepath.Glob(filepath.Join(h.tmp, "*.stderr"))
		if err := os.MkdirAll(keepLogs, 0o755); err == nil {
			for _, l := range logs {
				if err := os.Rename(l, filepath.Join(keepLogs, filepath.Base(l))); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: keep %s: %v\n", l, err)
				}
			}
			fmt.Fprintf(os.Stderr, "benchmark: server logs kept in %s\n", keepLogs)
		}
	}
	if err := os.RemoveAll(h.tmp); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: remove %s: %v\n", h.tmp, err)
	}
}

// server is one spawned genlinkd process.
type server struct {
	name    string
	addr    string // host:port
	base    string // http://host:port
	args    []string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been reaped
	started time.Time     // when the current process was exec'd
	peakKB  int64         // largest VmHWM seen just before a kill, over all restarts
	// readyAfter is how long the current process took from exec until it
	// was healthy (and ready, when a restart waited for more).
	readyAfter time.Duration
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before genlinkd binds it, so start retries on the rare
// collision.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// readyTimeout bounds the wait for a spawned server to answer /healthz,
// recovery included.
const readyTimeout = 60 * time.Second

// start spawns genlinkd with default flags plus the given deployment
// settings and -addr, and waits until /healthz answers 200.
func (h *harness) start(name string, args ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s := &server{name: name, addr: addr, base: "http://" + addr, args: args}
		if err := h.launchUntil(s, nil); err != nil {
			lastErr = err
			continue
		}
		return s, nil
	}
	return nil, lastErr
}

// restart launches a killed server again with the same arguments and
// address, returning how long it took from exec until it was healthy and
// ready reported true.
func (h *harness) restart(s *server, ready func() bool) (time.Duration, error) {
	if err := h.launchUntil(s, ready); err != nil {
		return 0, err
	}
	return s.readyAfter, nil
}

// launchUntil starts the process and polls until /healthz is 200 and
// ready (when given) reports true.
func (h *harness) launchUntil(s *server, ready func() bool) error {
	h.mu.Lock()
	h.launched++
	logPath := filepath.Join(h.tmp, fmt.Sprintf("%s-%d.stderr", s.name, h.launched))
	h.mu.Unlock()
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	s.cmd = exec.Command(h.bin, append([]string{"-addr", s.addr}, s.args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", s.name, err)
	}
	exited := make(chan struct{})
	go func() {
		// Wait is also what kill() relies on to reap the child; cmd.Wait
		// may be called once, so it lives here and kill waits on exited.
		_ = s.cmd.Wait() // the exit status of a killed child carries nothing
		close(exited)
	}()
	s.exited = exited

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.kill()
		return errors.New("harness closed")
	}
	h.servers = append(h.servers, s)
	h.mu.Unlock()

	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			tail, _ := os.ReadFile(logPath)
			return fmt.Errorf("%s exited before it was ready: %s", s.name, lastLines(tail, 5))
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ready == nil || ready()) {
				s.readyAfter = time.Since(s.started)
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return fmt.Errorf("%s not ready within %s", s.name, readyTimeout)
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// kill sends SIGKILL — the crash the durable workloads recover from —
// records the process's peak resident set first, and waits until the
// process has ended.
func (s *server) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	select {
	case <-s.exited:
		return
	default:
	}
	if kb := vmHWM(s.cmd.Process.Pid); kb > s.peakKB {
		s.peakKB = kb
	}
	_ = s.cmd.Process.Kill() // already-exited is fine: exited closes either way
	<-s.exited
}

// vmHWM reads a process's peak resident set size in KiB from
// /proc/<pid>/status, or 0 when it cannot be read.
func vmHWM(pid int) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
