//go:build !linux

package main

import "time"

var processStart = time.Now()

// processCPU stands in for the process's CPU time with the wall time
// since start, which is what it equals for a single busy thread on an
// otherwise idle host.
func processCPU() time.Duration { return time.Since(processStart) }
