package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynppr/internal/httpapi"
)

// daemon is one dppr-httpd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	ready  time.Duration // spawn → first 200 from /healthz
	exited chan struct{} // closed once Wait has returned
	outMu  sync.Mutex
	out    bytes.Buffer // the child's output, for error reports
}

// live tracks every child not yet waited for, so every exit path can kill
// them: an orphaned dppr-httpd would keep its port and the cores.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// killAll kills and reaps every live child.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon spawns bin with args and waits until /healthz answers 200.
// The listen address is read back from the daemon's "listening on" line.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the child if the generator dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &lockedWriter{d}
	urlCh := make(chan string, 1)
	spawned := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]struct{}{}
	}
	live.set[d] = struct{}{}
	live.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.outMu.Lock()
			d.out.WriteString(line + "\n")
			d.outMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				select {
				case urlCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		// Wait only after stdout is drained, as os/exec requires.
		_ = d.cmd.Wait()
		close(d.exited)
	}()

	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	select {
	case d.url = <-urlCh:
	case <-d.exited:
		d.forget()
		return nil, fmt.Errorf("dppr-httpd exited before listening: %s", d.output())
	case <-deadline.C:
		d.kill()
		return nil, fmt.Errorf("dppr-httpd did not listen within 120s: %s", d.output())
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	poll := httpapi.NewClient(d.url, hc)
	for {
		if err := poll.Health(); err == nil {
			d.ready = time.Since(spawned)
			return d, nil
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, fmt.Errorf("dppr-httpd exited before healthy: %s", d.output())
		case <-deadline.C:
			d.kill()
			return nil, fmt.Errorf("dppr-httpd not healthy within 120s: %s", d.output())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

type lockedWriter struct{ d *daemon }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.d.outMu.Lock()
	defer w.d.outMu.Unlock()
	return w.d.out.Write(p)
}

func (d *daemon) output() string {
	d.outMu.Lock()
	defer d.outMu.Unlock()
	return strings.TrimSpace(d.out.String())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) forget() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// kill sends SIGKILL and waits until the process has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-d.exited
	d.forget()
}

// procCPU returns the utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

func parseStatCPU(data []byte) (time.Duration, error) {
	// The command name (field 2) is parenthesised and may hold spaces, so
	// split after its closing parenthesis: the rest starts at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat: no command name")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat: %d fields", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc stat: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procStatus reads one "Key: value" line of /proc/<pid>/status.
func procStatus(pid int, key string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	return parseStatusField(data, key)
}

func parseStatusField(data []byte, key string) (string, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("/proc status has no %s line", key)
}

// vmHWMMiB returns the peak resident set size of pid in MiB.
func vmHWMMiB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kib, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kib / 1024, nil
}

// cpusAllowed counts the CPUs in pid's affinity mask: the GOMAXPROCS a Go
// child picks when the environment does not set one.
func cpusAllowed(pid int) (int, error) {
	v, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("Cpus_allowed_list %q: %w", v, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("Cpus_allowed_list %q: %w", v, err)
			}
		}
		n += b - a + 1
	}
	return n, nil
}

// selfCPU returns the generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceRevision identifies the tree under test: the git commit when the
// checkout is a repository, otherwise a hash of the Go sources and go.mod
// files under root.
func sourceRevision(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:12])
}

// provenance is recorded with every result.
type provenance struct {
	Revision       string `json:"revision"`
	GoVersion      string `json:"go_version"`
	NumCPU         int    `json:"nproc"`
	GenMaxProcs    int    `json:"generator_gomaxprocs"`
	DaemonMaxProcs int    `json:"daemon_gomaxprocs"`
	DaemonPool     int    `json:"daemon_pool_workers"`
	DataDirFS      string `json:"data_dir_fs"`
	Fsync          string `json:"fsync"`
	SetupRepeats   int    `json:"setup_repeats"`
}

func newProvenance(root, dataDir string) provenance {
	return provenance{
		Revision:    sourceRevision(root),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GenMaxProcs: runtime.GOMAXPROCS(0),
		DataDirFS:   fsType(dataDir),
		Fsync:       "always",
	}
}
