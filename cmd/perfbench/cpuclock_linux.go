package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time used so far by all of the process's
// threads. The kernel charges a thread only for the time it ran, so time
// the host gave to other processes or, under paravirtual steal-time
// accounting, to other guests is not counted.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
