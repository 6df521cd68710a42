package main

import (
	"repro/internal/scenario"
)

// workload is one named input set. Every simulation workload starts from
// the default scenario.Config and changes only what its definition says;
// none sets a mode knob (Shards, DisableActivityGating, ...), so deleting
// or defaulting one needs no benchmark edit.
type workload struct {
	name string
	// why this workload exists, word for word as in BENCHMARK.json (the
	// tests compare them), and the layer metrics it is meant to move.
	why, moves string
	run        func(w *workload, opts runOptions) *report

	// Simulation workloads only.
	config func() scenario.Config
	seeds  int // networks per run; their mean steadies the seed-exact metrics
}

// runOptions are the command-line inputs of one run.
type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
}

var workloads = []*workload{
	{
		name: "paper",
		why: "The paper's 50-node, 20000-epoch fixed-delta run: half the nodes active per " +
			"epoch, so RunEpoch, the sweep and the escape calendar dominate.",
		moves: "core.epoch_us moves epochs_per_s and tail.p50_ms; " +
			"sensordata.sweep_quiet_frac shows sweep waste.",
		run:    runSim,
		config: scenario.Default,
		seeds:  24,
	},
	{
		name: "paper-atc",
		why: "The same run under adaptive threshold control: every node takes the classic " +
			"path, so sweep and calendar levers must not move it, and MAC and radio weigh more.",
		moves: "lmac.frame_us and radio.tx_per_epoch move epochs_per_s; " +
			"core.epoch_us measures the unrefuted path.",
		run: runSim,
		config: func() scenario.Config {
			c := scenario.Default()
			c.Mode = scenario.ATC
			return c
		},
		seeds: 20,
	},
	{
		name: "large",
		why: "25000 nodes at the paper's density: the O(N) field step, calendar drain and " +
			"MAC delivery per epoch, plus set-up time and bytes per node.",
		moves: "core.epoch_us, lmac.frame_us and query.inject_us move epochs_per_s; " +
			"topology.build_ms and lmac.slots_ms move setup_s.",
		run: runSim,
		config: func() scenario.Config {
			c := scenario.ScaleDefault(25000)
			c.Epochs = largeEpochs
			return c
		},
		seeds: largeNetworks,
	},
	{
		name: "serve",
		why: "dirqd's default 2-shard stack over loopback HTTP, open loop on 2 connections: " +
			"the only workload through admission, the shard scheduler, net/http and JSON.",
		moves: "core.epoch_us moves epochs_per_s, and tail.p50_ms through the 12-epoch settle window; " +
			"serve.handler_us and serve.wire_us move tail.p50_ms and serve.max_qps (2 connections / latency).",
		run: runServe,
	},
}

// The large workload's size. One network takes about 4 s on a 2-vCPU
// host: a build of about 1.5 s, most of it placement redraws until the
// unit-disk graph is connected, then 150 epochs at about 60 per second.
// One pass over the networks plus the repetition of the first fits in a
// 25-second run. The seed-exact metrics (cost, overshoot) vary by about
// 20% from network to network; five networks bring their spread over
// workload seeds to about 14%.
const (
	largeEpochs   = 150
	largeNetworks = 5
)

// lookupWorkload returns the named workload, or nil.
func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
