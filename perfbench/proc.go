package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

	"repro/osp/client"
)

// startTimeout bounds how long a server may take from exec to a
// healthy /healthz. A server that misses it is killed and the run fails.
const startTimeout = 15 * time.Second

// server is one ospserve process in service mode on ports the kernel
// chose.
type server struct {
	cmd        *exec.Cmd
	httpURL    string // http://host:port
	streamAddr string // host:port
	c          *client.Client
	exited     chan struct{}
}

// fleet owns every server a run starts, so that each exit path can
// stop them all.
type fleet struct {
	bin   string
	flags []string // extra ospserve flags, e.g. -stream-timings

	mu   sync.Mutex
	live []*server
}

// start execs one server and waits, within startTimeout, until it has
// printed both listen addresses and answers /healthz.
func (f *fleet) start(ctx context.Context, hc *http.Client, node string) (*server, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0", "-node", node}, f.flags...)
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = os.Stderr
	// The kernel kills the server should this process die without
	// running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", node, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("server %s: %w", node, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	f.mu.Lock()
	f.live = append(f.live, s)
	f.mu.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		// Read stdout to EOF so the server never blocks on a full pipe,
		// then reap it.
		var httpAddr string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "ospserve: admission service listening on "); ok {
				httpAddr = a
			} else if a, ok := strings.CutPrefix(line, "ospserve: stream transport listening on "); ok {
				addrs <- [2]string{httpAddr, a}
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // draining only
		cmd.Wait()               //nolint:errcheck // a killed server exits non-zero by design
		close(s.exited)
	}()

	ctx, cancel := context.WithTimeout(ctx, startTimeout)
	defer cancel()
	select {
	case a := <-addrs:
		s.httpURL, s.streamAddr = a[0], a[1]
	case <-s.exited:
		f.stop(s)
		return nil, fmt.Errorf("server %s exited during start-up", node)
	case <-ctx.Done():
		f.stop(s)
		return nil, fmt.Errorf("server %s: no listen addresses within %v", node, startTimeout)
	}
	c, err := client.New(s.httpURL, client.WithHTTPClient(hc))
	if err != nil {
		f.stop(s)
		return nil, err
	}
	s.c = c
	for {
		if err := c.Health(ctx); err == nil {
			return s, nil
		}
		select {
		case <-ctx.Done():
			f.stop(s)
			return nil, fmt.Errorf("server %s: not healthy within %v", node, startTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills one server and waits until it has been reaped.
func (f *fleet) stop(s *server) {
	s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-s.exited
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.live {
		if x == s {
			f.live = append(f.live[:i], f.live[i+1:]...)
			break
		}
	}
}

// stopAll kills every live server and waits for each.
func (f *fleet) stopAll() {
	f.mu.Lock()
	live := append([]*server(nil), f.live...)
	f.mu.Unlock()
	for _, s := range live {
		f.stop(s)
	}
}

// procCPU returns a process's user plus system CPU time from
// /proc/<pid>/stat (whole thread group, clock-tick resolution).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns VmHWM of /proc/<pid>/status ("self" for this
// process) in bytes, then resets it to the current RSS through
// /proc/<pid>/clear_refs, so the next reading is the peak since this
// one. (wait4's ru_maxrss is no substitute on Linux: it carries the
// forking parent's peak across exec.)
func resetPeakRSS(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb := int64(-1)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			break
		}
	}
	if kb < 0 || err != nil {
		return 0, fmt.Errorf("/proc/%s/status: no VmHWM (%v)", pid, err)
	}
	if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	return kb << 10, nil
}

// cpuTimes is the host's aggregate CPU line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

func hostCPU() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTimes
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line)[1:] {
		if i >= 8 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// host is the fingerprint printed with every result.
type host struct {
	NProc            int     `json:"nproc"`
	CPUModel         string  `json:"cpu_model"`
	GenGOMAXPROCS    int     `json:"gomaxprocs_generator"`
	ServerGOMAXPROCS int     `json:"gomaxprocs_servers"`
	GoVersion        string  `json:"go_version"`
	Source           string  `json:"source_sha256"`
	Steal            float64 `json:"steal_frac"`
}

func fingerprint(root string) host {
	h := host{
		NProc:         runtime.NumCPU(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Source:        sourceHash(root),
	}
	// Servers inherit this environment: GOMAXPROCS when set, else the
	// runtime default of one per CPU.
	h.ServerGOMAXPROCS = runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		h.ServerGOMAXPROCS = v
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceHash identifies the program under test: a SHA-256 over the
// paths and contents of every Go source and go.mod of the checkout,
// outside the benchmark's own directory and the build directory. The
// checkout need not be a git repository.
func sourceHash(root string) string {
	sum := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" {
			raw, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(sum, "%s %d\n", rel, len(raw))
				sum.Write(raw)
			}
		}
		return nil
	})
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
