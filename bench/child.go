package main

import (
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

const (
	// daemonStartTimeout bounds port-file discovery plus the first
	// /healthz 200; journal replay happens before the daemon listens.
	daemonStartTimeout = 30 * time.Second
	// daemonStopTimeout is how long a SIGTERMed daemon may drain before
	// it is killed.
	daemonStopTimeout = 15 * time.Second
	// requestTimeout bounds every HTTP round trip, long-polls included.
	requestTimeout = 30 * time.Second
	journalName    = "wal/journal.log"
)

// daemonBinary compiles cmd/reprod from the checkout's source, once per
// invocation: the first set-up pays for it and the median over the
// repeated set-ups leaves it out, because link time swings by a third
// from run to run and says nothing about the system under test.
func (e *env) daemonBinary(ctx context.Context) (string, error) {
	e.buildOnce.Do(func() {
		e.daemonBin = filepath.Join(e.work, "reprod")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", e.daemonBin, "./cmd/reprod")
		cmd.Dir = e.modRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			e.buildErr = fmt.Errorf("go build ./cmd/reprod: %w\n%s", err, out)
		}
	})
	return e.daemonBin, e.buildErr
}

// daemon is a running reprod child. stop must be called on every path
// that started one.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	// ready is how long the daemon took from exec to its first /healthz
	// 200, journal replay included.
	ready time.Duration
}

// startDaemon runs the daemon on a kernel-assigned loopback port over the
// store, discovers the port through -portfile and waits for /healthz.
func startDaemon(ctx context.Context, e *env, storeDir, runDir string) (*daemon, error) {
	bin, err := e.daemonBinary(ctx)
	if err != nil {
		return nil, err
	}
	portfile := filepath.Join(runDir, "port")
	if err := os.Remove(portfile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	d := &daemon{logPath: filepath.Join(runDir, "reprod.log"), exited: make(chan struct{})}
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin, "-store", storeDir, "-addr", "127.0.0.1:0", "-portfile", portfile, "-journal", journalName)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.procs))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reprod: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	ctx, cancel := context.WithTimeout(ctx, daemonStartTimeout)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	client := &http.Client{Timeout: requestTimeout}
	for {
		if d.base == "" {
			if addr, err := os.ReadFile(portfile); err == nil && strings.HasSuffix(string(addr), "\n") {
				d.base = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/healthz"); err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					d.ready = time.Since(t0)
					return d, nil
				}
			}
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return nil, fmt.Errorf("reprod exited during start-up: %v\n%s", d.waitErr, d.logTail())
		case <-ctx.Done():
			_ = d.stop() // the start-up failure is the one to report
			return nil, fmt.Errorf("reprod not healthy: %w\n%s", ctx.Err(), d.logTail())
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it does not exit in
// time, and always reaps it. Safe to call twice.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	timer := time.NewTimer(daemonStopTimeout)
	defer timer.Stop()
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("reprod drain: %w\n%s", d.waitErr, d.logTail())
		}
		return nil
	case <-timer.C:
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("reprod did not drain in %v and was killed\n%s", daemonStopTimeout, d.logTail())
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// logTail returns the end of the daemon's output for error messages.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}
