package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo fingerprints the machine a run measured, so figures from
// different hosts or settings are never compared by mistake.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// DaemonGOMAXPROCS is the setting the daemon child ran with (daemon
	// workload only).
	DaemonGOMAXPROCS int `json:"daemon_gomaxprocs,omitempty"`
	// PinnedCPU is the CPU the run, and its daemon child, were pinned to
	// (-1 = not pinned, as in tests).
	PinnedCPU int    `json:"pinned_cpu"`
	GoVersion string `json:"go_version"`
	// StealTicks is the hypervisor steal time, in USER_HZ ticks summed
	// over all CPUs, accrued while the run measured. A large value means
	// another tenant took the CPUs and the run's figures are suspect.
	StealTicks int64 `json:"steal_ticks"`
}

// pinnedCPU is the CPU main pinned the process to.
var pinnedCPU = -1

func newHostInfo() hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PinnedCPU:  pinnedCPU,
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the aggregate steal column of /proc/stat (-1 when it
// cannot be read).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// resetPeakRSS returns the garbage of everything before it to the
// operating system and resets this process's VmHWM to its current
// resident set, so that the peak read afterwards is that of the work
// done from here on (Linux 4.0 and later).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process
// ("self" or a pid) in megabytes.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
