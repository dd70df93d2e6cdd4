package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The shared host this benchmark runs on lends its vCPUs to other
// tenants: /proc/stat shows seconds of steal in a 30 s run, and wall
// time grows with it by up to a third. The kernel keeps stolen time out
// of a task's CPU time (paravirtual steal accounting), so the gated
// throughput and set-up figures are measured in CPU time; the latencies
// a client waits for are wall time and reported ungated.

// selfCPU returns the CPU time this process has consumed, all threads
// included. getrusage derives it from the scheduler's nanosecond run
// time, the running thread's current slice included.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time another process has consumed, summed over
// its threads from /proc/<pid>/task/*/schedstat, whose first field is
// the thread's run time in nanoseconds as of its last tick or context
// switch.
func procCPU(pid string) (time.Duration, error) {
	files, err := filepath.Glob(filepath.Join("/proc", pid, "task", "*", "schedstat"))
	if err != nil {
		return 0, err
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("no /proc/%s/task/*/schedstat", pid)
	}
	var total time.Duration
	for _, f := range files {
		data, err := os.ReadFile(f)
		if os.IsNotExist(err) {
			continue // the thread exited after the glob
		}
		if err != nil {
			return 0, err
		}
		field, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}
