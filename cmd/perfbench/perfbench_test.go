package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// shortConfig is the paper's network on a horizon short enough for tests.
func shortConfig(mode scenario.ThresholdMode, seed uint64) scenario.Config {
	cfg := scenario.Default()
	cfg.Mode = mode
	cfg.Seed = seed
	cfg.Epochs = 1500
	return cfg
}

func TestProbesLeaveResultUnchanged(t *testing.T) {
	for _, mode := range []scenario.ThresholdMode{scenario.FixedDelta, scenario.ATC} {
		cfg := shortConfig(mode, 7)
		ref, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := digest(ref)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runNetwork(cfg, simOpts{traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if traced.digest != want {
			t.Errorf("%v: traced Result differs from scenario.Run", mode)
		}
		// Stepping to the horizon runs the ticks 0..Epochs inclusive.
		if traced.probe.epochs != cfg.Epochs+1 {
			t.Errorf("%v: probes saw %d epochs, want %d", mode, traced.probe.epochs, cfg.Epochs+1)
		}
		plain, err := runNetwork(cfg, simOpts{midSnap: true, memory: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != want {
			t.Errorf("%v: measured untraced Result differs from scenario.Run", mode)
		}
	}
}

func TestBandsCoverTracedWallTime(t *testing.T) {
	cfg := shortConfig(scenario.FixedDelta, 3)
	cfg.Epochs = 4000
	run, err := runNetwork(cfg, simOpts{traced: true})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	setBands(v, &run.probe, float64(run.result.QueriesInjected), run.snapshot, run.steady, 1)
	if c := v["trace.coverage"]; c < 0.95 || c > 1.0001 {
		t.Errorf("bands plus snapshot cover %.3f of the traced steady wall time, want [0.95, 1]", c)
	}
}

// The simulations' times come from processCPU: it must count the
// process's work and leave out the time it spends off the CPU.
func TestProcessCPUCountsOnlyRunningTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("processCPU is the wall clock off Linux")
	}
	const span = 50 * time.Millisecond
	c0 := processCPU()
	time.Sleep(span)
	if slept := processCPU() - c0; slept > span/5 {
		t.Errorf("a %v sleep used %v of CPU time", span, slept)
	}
	// A busy loop must see the clock reach span, however much of the
	// wall time the host takes for other work.
	c0, t0 := processCPU(), time.Now()
	for processCPU()-c0 < span {
		if time.Since(t0) > 20*span {
			t.Fatalf("a busy loop used %v of CPU time in %v", processCPU()-c0, time.Since(t0))
		}
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 0, false},   // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
		if err == nil {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("percentile(n=%d, p=%v) leaves %d samples beyond it", c.n, c.p, beyond)
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric or workload name %q invalid or repeated", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s invalid", u, n)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || lookupWorkload(w.Name) == nil {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: why in BENCHMARK.json differs from workloads.go:\n  %q\n  %q",
				w.Name, w.Why, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
				i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s",
				i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/perfbench" {
		t.Errorf("paths %v, want [cmd/perfbench]", b.Paths)
	}
}

func TestSeedStream(t *testing.T) {
	first := func(seed uint64, name string) []uint64 {
		draw := seedStream(seed, name)
		return []uint64{draw(), draw(), draw(), draw()}
	}
	a, b := first(1, "paper"), first(1, "paper")
	c, d := first(1, "paper-atc"), first(2, "paper")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seed lists are not a function of the workload seed")
		}
		if a[i] == 0 || a[i] == c[i] || a[i] == d[i] {
			t.Errorf("seed %d: %d repeats across workloads or workload seeds", i, a[i])
		}
	}
}

func TestUnbuildableSeedsAreReplaced(t *testing.T) {
	// A depth cap of 7 hops leaves some random placements of the paper's
	// field without a spanning tree, and not others.
	tight := func() scenario.Config {
		c := scenario.Default()
		c.Epochs = 1
		c.MaxDepth = 7
		return c
	}
	w := &workload{name: "paper", config: tight, seeds: 8}
	n := newNetworks(w, 1)
	orig := append([]uint64(nil), n.seeds...)
	for k := range n.seeds {
		if _, err := n.run(k, simOpts{}); err != nil {
			t.Fatalf("network %d: %v", k, err)
		}
	}
	replaced := 0
	for k := range orig {
		if n.seeds[k] != orig[k] {
			replaced++
		}
	}
	if n.rejected == 0 || replaced == 0 {
		t.Fatalf("%d rejections, %d seeds replaced; want some of each", n.rejected, replaced)
	}

	// A cap no placement can meet exhausts the replacements and fails.
	never := func() scenario.Config {
		c := tight()
		c.MaxDepth = 1
		return c
	}
	n = newNetworks(&workload{name: "paper", config: never, seeds: 3}, 1)
	if _, err := n.run(0, simOpts{}); err == nil || n.rejected != 4 {
		t.Fatalf("impossible tree: err %v after %d rejections, want an error after 4", err, n.rejected)
	}
}

func TestOtherBuildErrorsFailTheRun(t *testing.T) {
	invalid := func() scenario.Config {
		c := scenario.Default()
		c.Coverage = 2 // rejected by Config.Validate
		return c
	}
	n := newNetworks(&workload{name: "paper", config: invalid, seeds: 3}, 1)
	orig := n.seeds[0]
	if _, err := n.run(0, simOpts{}); err == nil {
		t.Fatal("an invalid config ran")
	}
	if n.rejected != 0 || n.seeds[0] != orig {
		t.Errorf("a Validate error replaced the seed (%d rejections)", n.rejected)
	}
}

func TestServeAnswersMatchReplay(t *testing.T) {
	insts, _, err := newInstances(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startStack(insts[0], true, 400)
	if err != nil {
		t.Fatal(err)
	}
	smp, epochs, _ := s.fixedPhase(0, 400)
	s.stop()
	p := summarize(smp, s.trace)
	if p.failed != 0 || len(p.responses) != 400 {
		t.Fatalf("%d of 400 queries failed (first: %v)", p.failed, p.firstErr)
	}
	if epochs <= 0 {
		t.Errorf("shards advanced %d epochs", epochs)
	}
	rep := newReport()
	checkReplay(rep, s, p.responses)
	if !rep.Correct {
		t.Fatalf("replay check failed: %v", rep.Problems)
	}
	for i, h := range p.handlerNs {
		if h <= 0 {
			t.Fatalf("request %d: handler time %v not recorded", i, h)
		}
	}

	// A tampered answer must be caught.
	bad := *p.responses[0]
	bad.Matched = append([]int{-1}, bad.Matched...)
	rep = newReport()
	checkReplay(rep, s, append([]*serve.Response{&bad}, p.responses[1:]...))
	if rep.Correct {
		t.Fatal("replay check accepted a tampered answer")
	}
}
