package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDirName is where everything the benchmark writes lives, under
// the repository root: the serve binary, per-run temp dirs, span files.
// It is git-ignored.
const buildDirName = ".bench_build"

// env is what one invocation shares across workloads: the repository
// root, the serve binary built once, a scratch directory removed on
// exit, and every child process started, so all are reaped on success,
// failure and interrupt alike.
type env struct {
	root     string // repository root (holds go.mod of module rankedaccess)
	buildDir string // root/.bench_build
	tmp      string // buildDir/run-*, removed by close
	serveBin string
	nproc    int // cores; also the number of closed-loop client goroutines, each on its own connection

	mu    sync.Mutex
	procs []*proc
}

// findRoot walks up from the working directory to the module root of
// the program under test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module rankedaccess\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod of module rankedaccess above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, buildDirName), nproc: runtime.NumCPU()}
	// The generator never gets more parallelism than the box has, and
	// every workload runs one closed-loop client per core: more would
	// measure the scheduler's queue, not the program.
	runtime.GOMAXPROCS(e.nproc)
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(e.buildDir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// buildServe compiles cmd/serve from the checkout's source into the
// build directory; with a warm go build cache this is a no-op relink.
func (e *env) buildServe(ctx context.Context) error {
	e.serveBin = filepath.Join(e.buildDir, "serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.serveBin, "./cmd/serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build cmd/serve: %v\n%s", err, out)
	}
	return nil
}

// close stops every child still running and removes the scratch dir.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	os.RemoveAll(e.tmp)
}

// commit reports the checkout's commit, or "unknown" outside git (the
// driver's checkout is not a repository).
func (e *env) commit() string {
	out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem under path, since WAL fsync cost — and
// so every write metric — depends on it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// proc is one child process of the program under test.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed when Wait returns
}

// spawn starts bin with args, its output going to a log file in the
// scratch dir.
func (e *env) spawn(bin, name string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.tmp, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() signals it, a crash shows as a failed probe
		logf.Close()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to drain (SIGTERM), waits, and kills it if it
// does not exit; it returns only once the process has been reaped.
func (p *proc) stop() { p.signalAndWait(syscall.SIGTERM) }

// kill is the crash: SIGKILL, no drain, no shutdown checkpoint.
func (p *proc) kill() { p.signalAndWait(syscall.SIGKILL) }

func (p *proc) signalAndWait(sig syscall.Signal) {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(sig) // already-exited is fine
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// logTail returns the last lines of the process's log for diagnostics.
func (p *proc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// handedOut remembers the ports freeAddr has returned: a port is free
// again the moment freeAddr releases it, so the kernel may well offer it
// to the next call, and a shard node needs two different ones.
var handedOut = struct {
	sync.Mutex
	ports map[int]bool
}{ports: map[int]bool{}}

// freeAddr picks a free loopback port by binding port 0 and releasing
// it; the child binds it a moment later. No port is returned twice in
// one invocation.
func freeAddr() (string, error) {
	handedOut.Lock()
	defer handedOut.Unlock()
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := l.Addr().(*net.TCPAddr)
		l.Close()
		if !handedOut.ports[addr.Port] {
			handedOut.ports[addr.Port] = true
			return addr.String(), nil
		}
	}
}

// waitReady polls GET /readyz until it answers 200, the process dies,
// or the deadline passes. A coordinator earns readiness only once its
// prober has seen every node up.
func waitReady(ctx context.Context, p *proc, addr string, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming ready:\n%s", p.name, p.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready after %s:\n%s", p.name, deadline, p.logTail())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// clockTick is the kernel's USER_HZ; 100 on every Linux this runs on.
const clockTick = 100

// cpuSeconds returns utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}

// selfCPUSeconds is the harness's own CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns VmHWM of a process in MB (pid 0 = the harness).
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
