package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildBinaries compiles aideserver and aideshard from the checkout's
// source into .bench_build/bin; build time is never part of a metric.
func buildBinaries(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/aideserver", "./cmd/aideshard")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building aideserver and aideshard: %w\n%s", err, out)
	}
	return bin, nil
}

// proc is one spawned child, leader of its own process group.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// spawn starts bin in runDir with stderr appended to <name>.log. The
// child leads its own process group, so stop can signal everything it
// forked, and dies with the driver should the driver be killed outright.
func spawn(runDir, bin, name string, env []string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(runDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Dir = runDir
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop kills on purpose
		close(p.done)
	}()
	return p, nil
}

// topology is one running aideserver plus its aideshard workers.
type topology struct {
	runDir  string
	server  *proc
	workers []*proc
	base    string // http://host:port of the server
}

func (t *topology) procs() []*proc {
	return append(append([]*proc(nil), t.workers...), t.server)
}

// prepareRunDir claims a fresh run directory. A directory left by an
// earlier run whose children are still alive fails the run; stale files
// of dead processes are removed.
func prepareRunDir(runDir string) error {
	pids, err := os.ReadFile(filepath.Join(runDir, "pids"))
	if err == nil {
		for _, f := range strings.Fields(string(pids)) {
			if pid, _ := strconv.Atoi(f); pid > 0 && running(pid) {
				return fmt.Errorf("leftover child process %d from an earlier run in %s", pid, runDir)
			}
		}
	}
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	return os.MkdirAll(runDir, 0o755)
}

// running reports whether pid is a live process. A zombie is not: a
// child killed along with its driver stays one for as long as nobody
// reaps it, and must not block every later run.
func running(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	rest := strings.TrimSpace(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	return rest != "" && rest[0] != 'Z' && rest[0] != 'X'
}

// startTopology spawns the workload's processes and returns once
// /healthz answers with every shard healthy. setup is the time from the
// first spawn to that answer: dataset generation, index build, worker
// dial and hello. Readiness is observed through -addr-file and /healthz
// polling, never assumed after a sleep.
func startTopology(ctx context.Context, binDir, runDir string, w workload, datasetSeed int64) (t *topology, setup time.Duration, err error) {
	if err := prepareRunDir(runDir); err != nil {
		return nil, 0, err
	}
	t = &topology{runDir: runDir}
	defer func() {
		if err != nil {
			_ = t.stop()
		}
	}()
	common := []string{"-sdss", strconv.Itoa(w.Rows), "-seed", strconv.FormatInt(datasetSeed, 10)}
	attrs := strings.Join(w.Attrs, ",")
	start := time.Now()

	// The workers share the machine: each gets its share of the CPUs, as
	// separate hosts would give each its own, instead of every worker
	// fanning its kernels out over all of them and time-slicing.
	var workerEnv, shardArgs []string
	if w.Workers > 0 {
		workerEnv = []string{"GOMAXPROCS=" + strconv.Itoa(max(1, runtime.NumCPU()/w.Workers))}
	}
	for i := 0; i < w.Workers; i++ {
		sock := fmt.Sprintf("./s%d.sock", i) // relative: unix socket paths are short-limited
		args := append([]string{"-listen", sock, "-addr-file", fmt.Sprintf("w%d.addr", i), "-attrs", attrs,
			"-shards", strconv.Itoa(w.Workers), "-serve", strconv.Itoa(i)}, common...)
		p, err := spawn(runDir, filepath.Join(binDir, "aideshard"), fmt.Sprintf("w%d", i), workerEnv, args...)
		if err != nil {
			return t, 0, err
		}
		t.workers = append(t.workers, p)
		if err := t.recordPids(); err != nil {
			return t, 0, err
		}
		shardArgs = append(shardArgs, "-shard-addr", sock)
	}
	for i, p := range t.workers {
		if _, err := waitAddrFile(ctx, p, filepath.Join(runDir, fmt.Sprintf("w%d.addr", i))); err != nil {
			return t, 0, err
		}
	}

	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", "server.addr", "-sdss-attrs", attrs}, common...)
	if w.Workers > 0 {
		args = append(append(args, "-shards", strconv.Itoa(w.Workers)), shardArgs...)
	}
	if w.Durable {
		args = append(args, "-data-dir", "wal", "-fsync", "always")
	}
	t.server, err = spawn(runDir, filepath.Join(binDir, "aideserver"), "server", nil, args...)
	if err != nil {
		return t, 0, err
	}
	if err := t.recordPids(); err != nil {
		return t, 0, err
	}
	addr, err := waitAddrFile(ctx, t.server, filepath.Join(runDir, "server.addr"))
	if err != nil {
		return t, 0, err
	}
	t.base = "http://" + addr
	if err := t.waitHealthy(ctx); err != nil {
		return t, 0, err
	}
	return t, time.Since(start), nil
}

// recordPids rewrites the pids file a later run uses to detect children
// that outlived this one.
func (t *topology) recordPids() error {
	var b strings.Builder
	for _, p := range t.workers {
		fmt.Fprintln(&b, p.pid())
	}
	if t.server != nil {
		fmt.Fprintln(&b, t.server.pid())
	}
	return os.WriteFile(filepath.Join(t.runDir, "pids"), []byte(b.String()), 0o644)
}

const readyPoll = 2 * time.Millisecond

// logTail returns the end of a child's stderr log, for error messages:
// stop removes the run directory, so the log would otherwise be lost.
func logTail(runDir, name string) string {
	b, err := os.ReadFile(filepath.Join(runDir, name+".log"))
	if err != nil {
		return err.Error()
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// waitAddrFile polls for the address file the child writes once it has
// bound its listener, failing fast if the child exits first.
func waitAddrFile(ctx context.Context, p *proc, path string) (string, error) {
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("%s exited during set-up: %s", p.name, logTail(filepath.Dir(path), p.name))
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(readyPoll):
		}
	}
}

func (t *topology) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var body struct {
				Status   string `json:"status"`
				Degraded bool   `json:"shards_degraded"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && body.Status == "ok" {
				if body.Degraded {
					return errors.New("server came up with degraded shards")
				}
				return nil
			}
		}
		select {
		case <-t.server.done:
			return fmt.Errorf("server exited during set-up: %s", logTail(t.runDir, "server"))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
	}
}

// stop terminates every child (SIGTERM to its group, SIGKILL after a
// grace period), then verifies nothing survived: a process group that
// still answers signal 0, or a unix socket left in the run directory,
// is an error. The run directory — logs, sockets, WAL — is removed.
func (t *topology) stop() error {
	var errs []error
	procs := t.procs()
	for _, p := range procs {
		if p != nil && !p.exited() {
			_ = syscall.Kill(-p.pid(), syscall.SIGTERM)
		}
	}
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
			<-p.done
			errs = append(errs, fmt.Errorf("%s ignored SIGTERM and was killed", p.name))
		}
		// The leader is reaped; anything it forked into its group is not.
		if syscall.Kill(-p.pid(), 0) == nil {
			_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
			errs = append(errs, fmt.Errorf("process group %d of %s survived shutdown", p.pid(), p.name))
		}
	}
	if socks, _ := filepath.Glob(filepath.Join(t.runDir, "*.sock")); len(socks) > 0 {
		errs = append(errs, fmt.Errorf("unix sockets left behind: %v", socks))
	}
	if err := os.RemoveAll(t.runDir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// procUsage is what the kernel accounts to one process.
type procUsage struct {
	cpuMillis float64 // user+system CPU so far
	peakRSSMB float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTick = 100

func usageOf(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	i := strings.LastIndexByte(string(stat), ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	u.cpuMillis = (utime + stime) * 1000 / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return u, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// usage sums the accounting of the server and of the workers.
func (t *topology) usage() (server, workers procUsage, err error) {
	server, err = usageOf(t.server.pid())
	if err != nil {
		return
	}
	for _, p := range t.workers {
		u, uerr := usageOf(p.pid())
		if uerr != nil {
			return server, workers, uerr
		}
		workers.cpuMillis += u.cpuMillis
		workers.peakRSSMB += u.peakRSSMB
	}
	return
}
