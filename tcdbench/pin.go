package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of this process to the
// lowest-numbered CPU it may run on, and returns that CPU. Threads
// created later inherit the restriction, and so do the processes they
// start: the daemon child runs on the same CPU.
//
// On a shared host the vCPUs see different contention from other
// tenants, so the calibration (see hostSpeed) tracks the measured work
// only when both run on the same CPU. Call it before starting
// goroutines; the task list is walked twice to catch a thread the
// runtime creates meanwhile.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited
				return -1, fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return cpu, nil
}
