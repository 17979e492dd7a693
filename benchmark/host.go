package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo keys a run's numbers to the machine that produced them:
// numbers are only ever compared within one fingerprint.
type hostInfo struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	Fingerprint string `json:"host_fingerprint"`
}

func gatherHostInfo(root string) hostInfo {
	h := hostInfo{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
	}
	h.Fingerprint = h.CPUModel + " / " + h.Kernel
	return h
}

// gitCommit names the checkout. The benchmark also runs in exported
// trees that are not git repositories; those read "unknown".
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	// The trajectory file grows with every run; it alone does not make a
	// tree dirty.
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no",
		"--", ".", ":(exclude)benchmark/results/history.jsonl").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a process
// from /proc, in MB. pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS makes VmHWM of this process mean "since now": it hands
// freed heap back to the kernel and writes 5 to /proc/self/clear_refs,
// which resets the high-water mark to the current resident set. The
// kernel never lowers VmHWM by itself, so without this every round would
// report the highest peak of any round before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPUSeconds is another process's CPU time so far: the on-CPU
// nanoseconds of each of its threads (first field of
// /proc/<pid>/task/<tid>/schedstat), summed. /proc/<pid>/stat has the same
// in clock ticks of 10 ms, too coarse for a number that two runs must not
// read identically by accident.
func procCPUSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads (err %v)", pid, err)
	}
	ns := 0.0
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}
