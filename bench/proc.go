package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildPrid compiles ./cmd/prid from the tree at root into
// root/.bench_build/prid and returns the binary's path.
func buildPrid(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "prid")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/prid")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/prid: %w", err)
	}
	return bin, nil
}

// proc is one spawned prid process (serve or gateway).
type proc struct {
	name     string
	cmd      *exec.Cmd
	log      string
	addrFile string
	// url is http://host:port, set once the address file appears.
	url string
	// exited is closed once the process has been reaped; err holds its
	// exit status.
	exited chan struct{}
	err    error
}

// spawn starts `bin args... --listen 127.0.0.1:0 --addr-file F` with its
// output in dir/<name>.log. The child is killed if the benchmark dies.
func spawn(bin, dir, name string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logPath := filepath.Join(dir, name+".log")
	logFile, err := os.Create(logPath) //pridlint:allow atomicwrite scratch process log, read only for error messages
	if err != nil {
		return nil, err
	}
	defer logFile.Close() //pridlint:allow errdrop the child holds its own descriptor; nothing was written through this one
	args = append(args, "--listen", "127.0.0.1:0", "--addr-file", addrFile)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, addrFile: addrFile, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls until the process has written its address and its
// /readyz answers 200. It polls every 100 µs: a binary-mode backend is
// ready in about 5 ms, so a coarser period would round set-up time up by
// a visible share.
func (p *proc) waitReady(ctx context.Context, client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before becoming ready (%v); log:\n%s", p.name, p.err, p.tail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s; log:\n%s", p.name, timeout, p.tail())
		}
		if p.url == "" {
			if b, err := os.ReadFile(p.addrFile); err == nil && len(b) > 0 {
				p.url = "http://" + string(b)
			}
		}
		if p.url != "" && probeReady(ctx, client, p.url) {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func probeReady(ctx context.Context, client *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close() //pridlint:allow errdrop readiness probe; only the status code is read
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds. It returns once the process is
// reaped.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below either way
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // best effort; the wait below reaps it
		<-p.exited
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading %s peak RSS: %w", p.name, err)
	}
	defer f.Close() //pridlint:allow errdrop read-only /proc file; the scanner surfaced any read error
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s VmHWM %q: %w", p.name, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// tail returns the last lines of the process's log, for error messages.
func (p *proc) tail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}
