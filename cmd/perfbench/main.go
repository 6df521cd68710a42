// Command perfbench is the repository's benchmark: it runs one named
// workload from a workload seed, checks the program's outputs, and prints
// every end-to-end metric (or, with --trace 1, every per-layer metric) by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the exit code is
// non-zero when a correctness check fails.
//
// Usage:
//
//	bash cmd/perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//
// Workloads: paper, paper-atc, large, serve (see workloads.go for why each
// exists and which layer metrics it is meant to move).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 25, "measuring time")
	trace := flag.Int("trace", 0, "1 for the traced run and its per-layer metrics")
	flag.Parse()

	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds S (> 0) --trace 0|1; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n  %-10s moves: %s\n", w.name, w.why, "", w.moves)
		}
		os.Exit(2)
	}
	o := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := w.run(w, o)
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	rep.emit(specs)
	if !rep.Correct {
		os.Exit(1)
	}
}
