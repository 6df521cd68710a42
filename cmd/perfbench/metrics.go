package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec names one reported metric. The list below is the single
// source of the names, units and directions written into BENCHMARK.json;
// perfbench_test.go fails when the two disagree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
// Every workload reports all of them (see README.md). A simulation is one
// busy goroutine, so its times are read from the process CPU clock, which
// leaves out the time a shared host gives to other work: on the 2-vCPU VM
// this benchmark was tuned on, that time swung wall-clock epoch rates by
// a quarter from run to run. The serving workload is concurrent and paced
// by the wall clock, so its times are wall times.
var endToEnd = []metricSpec{
	{"epochs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"bytes_per_node", "B", "lower"},
	{"cost_fraction", "fraction", "lower"},
	{"overshoot_pct", "%", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), named
// <layer>.<quantity> after the repository's packages. A workload that
// never enters a layer reports 0 for it (the sims have no HTTP layer; the
// serving shards take no Snapshot).
var perLayer = []metricSpec{
	// The workload's wall-clock latency: per-epoch time for the
	// simulations, per-query latency from the intended send time for
	// serve. It is not an end-to-end metric because on a 2-vCPU VM the
	// hypervisor stalls a busy vCPU for milliseconds at a time, and the
	// latency then tracks the host's load from run to run more than the
	// program's.
	{"tail.p50_ms", "ms", "lower"},
	{"tail.p99_ms", "ms", "lower"},
	// Epoch bands, timed by boundary probes on the simulation clock.
	{"core.epoch_us", "us", "lower"},
	{"query.inject_us", "us", "lower"},
	{"lmac.frame_us", "us", "lower"},
	{"scenario.metrics_us", "us", "lower"},
	{"metrics.snapshot_ms", "ms", "lower"},
	{"trace.coverage", "fraction", "higher"},
	{"trace.overhead", "ratio", "higher"},
	// Set-up split.
	{"topology.build_ms", "ms", "lower"},
	{"lmac.slots_ms", "ms", "lower"},
	// Exact counts from the run's telemetry registry.
	{"core.active_frac", "fraction", "lower"},
	{"core.tuples_per_epoch", "count", "lower"},
	{"sensordata.sweep_quiet_frac", "fraction", "lower"},
	{"sensordata.evals_per_epoch", "count", "lower"},
	{"lmac.frames_full_frac", "fraction", "lower"},
	{"lmac.frames_quiet_frac", "fraction", "lower"},
	{"lmac.frames_silent_frac", "fraction", "higher"},
	{"lmac.msgs_per_epoch", "count", "lower"},
	{"radio.tx_per_epoch", "count", "lower"},
	{"radio.rx_per_tx", "ratio", "lower"},
	{"sim.events_per_epoch", "count", "lower"},
	{"sim.heap_peak", "count", "lower"},
	// Go runtime over the traced steady phase.
	{"go.allocs_per_epoch", "count", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	// Serving path.
	{"serve.handler_us.p50", "us", "lower"},
	{"serve.handler_us.p99", "us", "lower"},
	{"serve.wire_us.p50", "us", "lower"},
	{"serve.submit_ms.p50", "ms", "lower"},
	{"serve.submit_ms.p99", "ms", "lower"},
	{"serve.queue_depth_peak", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.shard_epochs_per_s", "1/s", "higher"},
	// The highest ramp rate meeting the latency limit. Like the p99 it
	// saturates both vCPUs, so it tracks the host's stalls (1182 to 2441
	// q/s over ten seeds) and is reported here, unbounded.
	{"serve.max_qps", "1/s", "higher"},
	{"loadgen.late_ms.p50", "ms", "lower"},
	{"loadgen.late_ms.p99", "ms", "lower"},
}

// report is the outcome of one benchmark run.
type report struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Problems  []string // correctness failures, printed to stderr
	Notes     []string // facts about the inputs, printed with the metrics
	Values    map[string]float64
	Samples   map[string]int // sample count behind each percentile
}

func newReport() *report {
	return &report{Correct: true, Values: map[string]float64{}, Samples: map[string]int{}}
}

// fail records a failed correctness check against one attempted operation
// that has already been counted.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// note records a fact about the run's inputs for the printed output.
func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// emit prints a human-readable table of the chosen metric set followed by
// the one-line JSON result that ends the output. A metric the run did not
// produce is a bug in the benchmark, reported as a correctness failure.
func (r *report) emit(specs []metricSpec) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range specs {
		v, ok := r.Values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.Correct = false
			r.Problems = append(r.Problems, fmt.Sprintf("metric %s not measured", s.Name))
			v = 0
		}
		metrics[s.Name] = value{Value: v, Unit: s.Unit}
		if n, ok := r.Samples[s.Name]; ok {
			fmt.Printf("%-28s %14.6g %-8s (%d samples)\n", s.Name, v, s.Unit, n)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", s.Name, v, s.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Println(string(out))
}
