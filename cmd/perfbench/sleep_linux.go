package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// scheduler rounds sub-millisecond timer sleeps up to its 1 ms poll
// granularity when the process is otherwise idle, which would make the
// open-loop generator itself late by up to a millisecond.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps again
	}
}
