package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// proc is one divmaxd child process. The benchmark runs the system
// under test out of process, so that the client's heap and collector do
// not share a runtime with the server's.
type proc struct {
	bin, addr, logPath string
	args               []string
	cmd                *exec.Cmd
	done               chan struct{} // closed once the process has been waited for
}

// procs lists the children still running, so that every exit path can
// stop them.
var procs = struct {
	sync.Mutex
	m map[*proc]bool
}{m: map[*proc]bool{}}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc launches divmaxd with args on a fresh loopback port,
// appending its log to logPath.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{bin: bin, addr: addr, logPath: logPath, args: args}
	return p, p.start()
}

func (p *proc) start() error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("opening process log: %w", err)
	}
	cmd := exec.Command(p.bin, append([]string{"-addr", p.addr}, p.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark, even when the benchmark is
	// killed before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("starting %s: %w", filepath.Base(p.bin), err)
	}
	p.cmd, p.done = cmd, make(chan struct{})
	procs.Lock()
	procs.m[p] = true
	procs.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		logf.Close()
		close(p.done)
	}()
	return nil
}

func (p *proc) url() string { return "http://" + p.addr }

// waitReady polls /v1/readyz until the process answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("divmaxd %v exited during start-up (log: %s)", p.args, p.logPath)
		default:
		}
		if resp, err := hc.Get(p.url() + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("divmaxd %v not ready after %v (log: %s)", p.args, timeout, p.logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill crashes the process with SIGKILL and waits until it has exited.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process already exited
	<-p.done
	procs.Lock()
	delete(procs.m, p)
	procs.Unlock()
}

// restart starts the process again on the same address and arguments.
func (p *proc) restart() error {
	if p.cmd != nil {
		select {
		case <-p.done:
		default:
			return errors.New("restart of a running process")
		}
	}
	return p.start()
}

// stopAll kills every child still running and waits for each.
func stopAll() {
	procs.Lock()
	var ps []*proc
	for p := range procs.m {
		ps = append(ps, p)
	}
	procs.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// deployment is the system under test for one workload: the processes
// and the one address the client talks to.
type deployment struct {
	front *proc   // answers the client
	all   []*proc // front last, so that stop order is workers after front
}

// deploy starts w's processes under dir and waits until the front
// answers readyz.
func deploy(bin string, w workload, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	logPath := filepath.Join(dir, "divmaxd.log")
	d := &deployment{}
	start := func(args ...string) (*proc, error) {
		p, err := startProc(bin, logPath, args...)
		if err != nil {
			d.kill()
			return nil, err
		}
		d.all = append(d.all, p)
		return p, nil
	}
	maxk := fmt.Sprint(maxK)
	switch w.Mode {
	case modeWAL:
		p, err := start("-shards", "2", "-maxk", maxk, "-data-dir", filepath.Join(dir, "data"), "-fsync", fsyncPolicy)
		if err != nil {
			return nil, err
		}
		d.front = p
	case modeMem:
		p, err := start("-shards", "2", "-maxk", maxk)
		if err != nil {
			return nil, err
		}
		d.front = p
	case modeCluster:
		var urls string
		for i := range 2 {
			p, err := start("-shards", "1", "-maxk", maxk)
			if err != nil {
				return nil, err
			}
			if err := p.waitReady(time.Minute); err != nil {
				d.kill()
				return nil, err
			}
			if i > 0 {
				urls += ","
			}
			urls += p.url()
		}
		p, err := start("-coordinator", "-workers", urls, "-maxk", maxk)
		if err != nil {
			return nil, err
		}
		d.front = p
	default:
		return nil, fmt.Errorf("unknown deployment mode %q", w.Mode)
	}
	if err := d.front.waitReady(time.Minute); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// kill crashes every process of the deployment.
func (d *deployment) kill() {
	for i := len(d.all) - 1; i >= 0; i-- {
		d.all[i].kill()
	}
}
