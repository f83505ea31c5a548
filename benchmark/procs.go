package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"
)

// buildDaemons compiles negmined and negrouter into the run's scratch
// directory. The build is not part of setup_s; its duration goes on the
// stamp. With a warm build cache this is a link step.
func buildDaemons(e *env) (negmined, negrouter string, err error) {
	start := time.Now()
	bin := filepath.Join(e.workDir, "bin")
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/negmined", "./cmd/negrouter")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build of the daemons: %v\n%s", err, out)
	}
	e.stamp.BuildSecs = time.Since(start).Seconds()
	return filepath.Join(bin, "negmined"), filepath.Join(bin, "negrouter"), nil
}

// proc is one daemon process under test. Its combined output goes to a log
// file in the scratch directory; the listen address is parsed from the
// "... on http://ADDR" banner both daemons print.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

// The trailing newline guards against reading a half-written line.
var bannerRe = regexp.MustCompile(`on http://(\S+)\n`)

func startProc(e *env, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{}),
		logPath: filepath.Join(e.workDir, name+".log")}
	logf, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// If the harness dies without running its clean-up, the kernel still
	// takes the daemon down.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = p.cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.exited)
	}()
	err = waitFor(e.ctx, 60*time.Second, name+" to print its listen address", func() bool {
		data, _ := os.ReadFile(p.logPath)
		if m := bannerRe.FindSubmatch(data); m != nil {
			p.addr = string(m[1])
			return true
		}
		select {
		case <-p.exited:
			return true // died before the banner; reported below
		default:
			return false
		}
	})
	if err == nil && p.addr == "" {
		err = fmt.Errorf("%s exited before printing its listen address", name)
	}
	if err != nil {
		p.stop()
		tail, _ := os.ReadFile(p.logPath)
		return nil, fmt.Errorf("%w; log:\n%s", err, tail)
	}
	return p, nil
}

// stop asks the daemon to drain (SIGINT), kills it if it has not gone
// within five seconds, and returns only once the process has been reaped.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// fleet is the set of daemons one workload runs.
type fleet []*proc

func (f fleet) stop() {
	for i := len(f) - 1; i >= 0; i-- {
		f[i].stop()
	}
}

// peakRSS sums the daemons' resident-set high-water marks; call it before
// stop.
func (f fleet) peakRSS() (float64, error) {
	sum := 0.0
	for _, p := range f {
		mb, err := peakRSSMiB(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += mb
	}
	return sum, nil
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitFor polls cond every 10 ms until it holds, the context ends or the
// timeout passes.
func waitFor(ctx context.Context, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// oneConn returns a client that keeps exactly one keep-alive connection:
// each load-generating client owns one, so connections in flight never
// exceed the client count.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   10 * time.Second,
	}
}
