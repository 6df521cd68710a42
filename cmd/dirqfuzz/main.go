// Command dirqfuzz runs the deterministic scenario fuzzer: seed-derived
// random configs and scripted event timelines checked against the
// repository's differential oracles (run-twice determinism, gated-vs-naive
// equivalence, monolithic-vs-stepped driving, serve live-vs-Replay,
// experiment worker-count invariance — see internal/diffuzz).
//
// Usage:
//
//	dirqfuzz [-seeds 200] [-seed-base 0] [-oracles determinism,gating,...]
//	         [-nodes N] [-duration 10m] [-shrink] [-shrink-budget 150]
//	         [-corpus dir] [-workers N] [-v]
//	dirqfuzz -replay internal/diffuzz/testdata/corpus   # re-run saved repros
//
// Every case is a pure function of its seed: a failure report is
// reproducible from the seed alone, and the written repro JSON replays it
// even after the generator changes. The exit status is nonzero on any
// divergence (and on -replay if any saved repro fails again), so CI can
// gate on it directly. -duration bounds wall time for scheduled runs:
// seeds not started when it expires are skipped and reported.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/diffuzz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirqfuzz: ")

	var (
		seeds        = flag.Int("seeds", 200, "number of consecutive seeds to fuzz")
		seedBase     = flag.Uint64("seed-base", 0, "first seed of the range")
		nodes        = flag.Int("nodes", 0, "force every case's network size (0: generator's ladder)")
		oraclesFlag  = flag.String("oracles", "", "comma-separated oracle subset (default: all)")
		duration     = flag.Duration("duration", 0, "wall-time budget; 0 means run every seed")
		shrink       = flag.Bool("shrink", true, "minimize failing cases before reporting")
		shrinkBudget = flag.Int("shrink-budget", 0, "oracle re-runs per shrink (0: default)")
		corpus       = flag.String("corpus", "", "directory to write failure repros into")
		workers      = flag.Int("workers", 0, "concurrent cases (0: GOMAXPROCS)")
		replay       = flag.String("replay", "", "replay a corpus directory instead of fuzzing")
		verbose      = flag.Bool("v", false, "log every failure as it is found")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}

	if *replay != "" {
		os.Exit(replayCorpus(*replay))
	}

	var oracles []string
	if *oraclesFlag != "" {
		for _, o := range strings.Split(*oraclesFlag, ",") {
			if o = strings.TrimSpace(o); o != "" {
				oracles = append(oracles, o)
			}
		}
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	opts := diffuzz.Options{
		SeedBase:     *seedBase,
		Seeds:        *seeds,
		Nodes:        *nodes,
		Oracles:      oracles,
		Context:      ctx,
		Shrink:       *shrink,
		ShrinkBudget: *shrinkBudget,
		CorpusDir:    *corpus,
		Workers:      *workers,
	}
	if *verbose {
		opts.Logf = log.Printf
	}

	start := time.Now()
	sum, err := diffuzz.Fuzz(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dirqfuzz: %d cases (seeds %d..%d), %d oracle runs, %d skipped, %d divergences in %v\n",
		sum.Cases, *seedBase, *seedBase+uint64(*seeds)-1, sum.OracleRuns, sum.Skipped,
		len(sum.Failures), time.Since(start).Round(time.Millisecond))
	for _, f := range sum.Failures {
		fmt.Printf("\nFAIL seed=%d oracle=%s (script events %d -> %d after shrink)\n%s\n",
			f.Seed, f.Oracle, len(f.Case.Script.Events), len(f.Minimized.Script.Events), f.Detail)
		if f.ReproPath != "" {
			fmt.Printf("repro written: %s\n", f.ReproPath)
		}
	}
	if len(sum.Failures) > 0 {
		os.Exit(1)
	}
}

// replayCorpus re-runs every saved repro and returns the exit code.
func replayCorpus(dir string) int {
	repros, err := diffuzz.LoadCorpus(dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(repros) == 0 {
		log.Fatalf("no repros under %s", dir)
	}
	bad := 0
	for _, r := range repros {
		if err := diffuzz.RunOracle(r.Oracle, r.Case, nil); err != nil {
			bad++
			fmt.Printf("FAIL %s: %v\n", diffuzz.ReproName(r.Seed, r.Oracle), err)
		} else {
			fmt.Printf("ok   %s\n", diffuzz.ReproName(r.Seed, r.Oracle))
		}
	}
	fmt.Printf("dirqfuzz: replayed %d repros, %d failing\n", len(repros), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
