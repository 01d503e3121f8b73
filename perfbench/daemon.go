package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a repaird child process on a loopback port, started with its
// default flags apart from the listen address, logging to a file.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon launches repaird and returns once GET /healthz answers.
func startDaemon(cfg runConfig, logName string) (*daemon, error) {
	if _, err := os.Stat(cfg.repaird); err != nil {
		return nil, fmt.Errorf("repaird binary: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.workdir, logName+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.repaird, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting repaird: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read through exited only
		close(d.exited)
	}()
	// At most nproc connections: the load generator's concurrency bound.
	nproc := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("repaird exited during start-up (log %s)", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("repaird did not answer /healthz within 20s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM), kills it if it lingers,
// and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
	d.log.Close()
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// call sends one request with an optional JSON body and decodes a JSON
// answer into out (when non-nil); it returns the status code.
func (d *daemon) call(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// scrape reads GET /metrics into series -> value, keyed by the series name
// with its labels exactly as exposed.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, errors.Join(errors.New("reading /metrics"), err)
	}
	return out, nil
}

// delta is after-before for one series (0 when absent from both).
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// daemonProcs is the daemon's GOMAXPROCS, which also sizes its default
// worker pool: the GOMAXPROCS variable the child inherits if set, else its
// CPU affinity count.
func daemonProcs(pid int) int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return allowedCPUs(pid)
}
