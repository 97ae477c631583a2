package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask wide enough for 8192 CPUs.
type cpuMask [128]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setProcessAffinity gives every thread of the process the mask. A thread
// inherits the mask of the one that starts it, so two passes over the task
// list also catch one started by a thread the first pass had not reached.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread ended between the listing and the call.
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// pinToOneCPU confines the process to the highest-numbered CPU it may run
// on and returns that CPU and the function that lifts the restriction again.
//
// overload-openloop keeps the machine about a quarter busy, in bursts of a
// few hundred microseconds between sleeps. At that load the kernel either
// packs the process's threads onto one CPU or spreads them over two,
// depending on what the machine ran in the seconds before: straight after a
// process that kept both CPUs busy it spreads them, and every goroutine
// hand-off then wakes a thread on the other CPU with an inter-processor
// interrupt — 27 000 of them in a run against 400, and cpu_us_per_op 25–40%
// higher (310–360µs against 250µs) on the same inputs. Pinned, the same two
// runs read within 3% of each other, and nothing else moves: the workload is
// bound by the injected sleeps, not by the CPU.
func pinToOneCPU() (cpu int, restore func(), err error) {
	allowed, err := getAffinity(0)
	if err != nil {
		return 0, nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	var one cpuMask
	for cpu = len(allowed)*64 - 1; cpu > 0; cpu-- {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			break
		}
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := setProcessAffinity(one); err != nil {
		return 0, nil, fmt.Errorf("sched_setaffinity: %w", err)
	}
	return cpu, func() { _ = setProcessAffinity(allowed) }, nil
}
