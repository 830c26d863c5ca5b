package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// buildServer compiles ./cmd/cycleserved of the checkout at root into out.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", out, "./cmd/cycleserved")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cycleserved in %s: %w", root, err)
	}
	return nil
}

// server is one running cycleserved process.
type server struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
	log  *tailBuffer
	done chan struct{} // closed once cmd.Wait has returned
}

// startServer execs bin on a free loopback port with the given extra flags
// and waits until /healthz answers.
func startServer(bin string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		log:  &tailBuffer{max: 8 << 10},
		done: make(chan struct{}),
		// At most two connections: the load comes from one process with no
		// more connections than the host has cores.
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
	cmd.Stdout, cmd.Stderr = s.log, s.log
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once stop was requested
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("cycleserved exited during start-up:\n%s", s.log)
		default:
		}
		if resp, err := s.http.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cycleserved not healthy after 30s:\n%s", s.log)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server (SIGTERM drain, SIGKILL after 10s) and
// returns once the process has exited.
func (s *server) stop() {
	s.http.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// post sends one JSON body and returns the response body and headers.
func (s *server) post(path string, body []byte) (int, []byte, http.Header, error) {
	resp, err := s.http.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	return resp.StatusCode, payload, resp.Header, err
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(v)
	case http.StatusNotFound:
		return fmt.Errorf("GET %s: %w", path, errNotFound)
	default:
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
}

// errNotFound is a 404 from the server: /v1/store without -data-dir.
var errNotFound = errors.New("not found")

// counters is the server-side state the benchmark reads around a phase.
type counters struct {
	stats service.Stats
	store store.Stats // zero without -data-dir
	// appendBytes and appends are the sum and count of the journal's
	// framed-record-size histogram in /metrics.
	appendBytes, appends float64
	cpu                  time.Duration // utime+stime from /proc
}

func (s *server) counters() (*counters, error) {
	c := &counters{}
	if err := s.getJSON("/v1/stats", &c.stats); err != nil {
		return nil, err
	}
	if err := s.getJSON("/v1/store", &c.store); err != nil && !errors.Is(err, errNotFound) {
		return nil, err
	}
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	exp, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	if h, err := exp.MergedHistogram("evencycle_store_append_bytes"); err != nil {
		return nil, err
	} else if h != nil {
		c.appendBytes, c.appends = h.Sum, h.Count
	}
	if c.cpu, err = procCPU(s.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return c, nil
}

// userHZ is the kernel's USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux architecture the toolchain targets.
const userHZ = 100

// procCPU returns the user plus system CPU time the process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailBuffer keeps the last max bytes written to it: the server's log,
// shown when start-up fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
