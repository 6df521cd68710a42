package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/lmac"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// simOpts selects what one network run measures besides its timing.
type simOpts struct {
	memory  bool       // GC-settled live heap after the build plus one epoch
	midSnap bool       // take (and drop) a Snapshot at the checkpoint epoch
	traced  bool       // band probes and a telemetry registry
	stopAt  int64      // stop at this epoch instead of the horizon (0: horizon)
	lat     *[]float64 // per-epoch wall ms, appended when non-nil
}

// simRun is one network built and driven to its horizon, one epoch per
// Step so that every epoch's wall time is a sample.
type simRun struct {
	build        time.Duration // scenario.Build, on the process CPU clock
	steady       time.Duration // Start, every Step and the final Snapshot
	steadyCPU    time.Duration // the process's CPU time over the same spans
	snapshot     time.Duration
	bytesPerNode float64
	result       *scenario.Result
	digest       [32]byte

	// Traced runs only.
	probe   bandProbe
	reg     *telemetry.Registry
	mallocs uint64
	gcCPU   float64 // seconds of GC CPU during the steady phase
	allCPU  float64 // seconds of CPU available during the steady phase
}

// configFor is the workload's scenario for one network seed.
func (w *workload) configFor(seed uint64) scenario.Config {
	cfg := w.config()
	cfg.Seed = seed
	return cfg
}

// checkpoint is the epoch at which the reference run of a simulation
// workload takes a Snapshot mid-run, so that its repetitions also show
// that a Snapshot leaves the run unchanged.
func checkpoint(cfg scenario.Config) int64 { return cfg.Epochs / 4 }

// digest hashes a Result's gob encoding. The run-local handles (telemetry
// registry, script driver) are cleared: they are not outputs, and
// interface fields do not gob-encode.
func digest(res *scenario.Result) ([32]byte, error) {
	c := *res
	c.Config.Telemetry = nil
	c.Config.Script = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return [32]byte{}, fmt.Errorf("digest: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// liveHeap returns the GC-settled live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuSeconds reads the runtime's GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runNetwork builds one network and drives it. Pauses for measurement
// (heap settling, the mid-run Snapshot) are excluded from steady and from
// the per-epoch samples.
func runNetwork(cfg scenario.Config, o simOpts) (*simRun, error) {
	run := &simRun{}
	// Every build starts from a settled heap, so that set-up time does not
	// pay for the previous run's garbage.
	var heap0 uint64
	if o.memory {
		heap0 = liveHeap()
	} else {
		runtime.GC()
	}
	if o.traced {
		run.reg = telemetry.NewRegistry()
		cfg.Telemetry = run.reg
	}
	c0 := processCPU()
	r, err := scenario.Build(cfg)
	run.build = processCPU() - c0
	if err != nil {
		return nil, err
	}
	// The steady phase starts from a settled heap as well, so that it
	// does not pay for collecting the build's garbage.
	runtime.GC()
	if o.traced {
		run.probe.attach(r.Engine)
	}
	horizon := cfg.Epochs
	if o.stopAt > 0 {
		horizon = o.stopAt
	}
	cp := checkpoint(cfg)

	var ms0 runtime.MemStats
	var gc0, all0 float64
	if o.traced {
		runtime.ReadMemStats(&ms0)
		gc0, all0 = cpuSeconds()
	}
	seg, segCPU := time.Now(), processCPU() // start of the current timed segment
	last := seg
	r.Start()
	for r.Epoch() < horizon {
		r.Step(1)
		now := time.Now()
		if o.lat != nil {
			*o.lat = append(*o.lat, float64(now.Sub(last))/1e6)
		}
		last = now
		switch e := r.Epoch(); {
		case o.memory && e == 1:
			run.steady += now.Sub(seg)
			run.steadyCPU += processCPU() - segCPU
			run.bytesPerNode = (float64(liveHeap()) - float64(heap0)) / float64(cfg.NumNodes)
		case o.midSnap && e == cp && e < horizon:
			run.steady += now.Sub(seg)
			run.steadyCPU += processCPU() - segCPU
			r.Snapshot()
		default:
			continue
		}
		seg, segCPU = time.Now(), processCPU()
		last = seg
	}
	t := time.Now()
	run.result = r.Snapshot()
	end := time.Now()
	run.steadyCPU += processCPU() - segCPU
	run.snapshot = end.Sub(t)
	run.steady += end.Sub(seg)
	if o.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		gc1, all1 := cpuSeconds()
		run.mallocs = ms1.Mallocs - ms0.Mallocs
		run.gcCPU, run.allCPU = gc1-gc0, all1-all0
	}
	run.digest, err = digest(run.result)
	return run, err
}

// unbuildable reports whether scenario.Build refused a network because its
// random placement admits no spanning tree within the paper's fanout and
// depth limits (topology.BuildSpanningTree's "too tight" error, which has
// no sentinel to match). Such a seed is an invalid input and is replaced;
// any other Build error fails the run.
func unbuildable(err error) bool {
	return err != nil && strings.Contains(err.Error(), "too tight")
}

// networks is a workload's seed list for one run. A seed whose network
// cannot be built is replaced by the next seed of the stream, so the
// list stays a pure function of the workload seed.
type networks struct {
	w        *workload
	seeds    []uint64
	draw     func() uint64
	rejected int
}

func newNetworks(w *workload, seed uint64) *networks {
	n := &networks{w: w, draw: seedStream(seed, w.name)}
	n.seeds = make([]uint64, w.seeds)
	for i := range n.seeds {
		n.seeds[i] = n.draw()
	}
	return n
}

// run runs network k, replacing its seed while scenario.Build finds no
// spanning tree for it. More replacements than seeds fails the run, and
// so does any other error.
func (n *networks) run(k int, o simOpts) (*simRun, error) {
	for {
		run, err := runNetwork(n.w.configFor(n.seeds[k]), o)
		if !unbuildable(err) {
			return run, err
		}
		if n.rejected++; n.rejected > len(n.seeds) {
			return nil, fmt.Errorf("scenario.Build refused %d seeds, last: %w", n.rejected, err)
		}
		n.seeds[k] = n.draw()
	}
}

// note records how many seeds were replaced, which is a pure function of
// the workload seed: a change in it means Build accepts different inputs.
func (n *networks) note(rep *report) {
	rep.note("%d of %d network seeds replaced (no spanning tree within the fanout and depth limits)",
		n.rejected, len(n.seeds))
}

// checkResult applies the seed-independent sanity checks to one Result.
func checkResult(rep *report, seed uint64, res *scenario.Result) {
	switch {
	case !(res.CostFraction > 0 && res.CostFraction < 1):
		rep.fail("seed %d: cost fraction %v outside (0, 1)", seed, res.CostFraction)
	case res.QueriesInjected == 0:
		rep.fail("seed %d: no queries injected", seed)
	case math.IsNaN(res.Summary.MeanOvershoot) || res.Summary.MeanOvershoot < 0:
		rep.fail("seed %d: mean overshoot %v", seed, res.Summary.MeanOvershoot)
	}
}

// runSim is the untraced run of a simulation workload. Every seed's
// network runs once (timing its build, its memory and its steady state),
// and the seeds then cycle from the first for as long as another run is
// expected to end within --seconds, but at least once, so that every run
// checks that a repetition reproduces its seed's Result digest. The first
// build in a process pays for heap growth and cold code, so it is left out
// of setup_s. The first network's first run takes a Snapshot a quarter of
// the way in, which its repetition does not: their match also shows that
// a Snapshot leaves the run unchanged.
func runSim(w *workload, o runOptions) *report {
	if o.trace {
		return traceSim(w, o)
	}
	rep := newReport()
	nets := newNetworks(w, o.seed)
	defer nets.note(rep)
	seeds := nets.seeds // replacements land in place
	var mem []float64
	first := make([]*simRun, len(seeds))
	times := make([][]float64, len(seeds))  // steady CPU seconds per run, by seed
	builds := make([][]float64, len(seeds)) // build CPU seconds per run, by seed
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if i > len(seeds) {
			// Start another run only if one as long as the mean so far ends in time.
			perRun := time.Since(start) / time.Duration(i)
			if time.Now().Add(perRun).After(deadline) {
				break
			}
		}
		k := i % len(seeds)
		once := i < len(seeds)
		rep.Attempted++
		run, err := nets.run(k, simOpts{memory: once, midSnap: i == 0})
		if err != nil {
			rep.fail("seed %d: %v", seeds[k], err)
			if once {
				return rep
			}
			continue
		}
		if i > 0 {
			builds[k] = append(builds[k], run.build.Seconds())
		}
		if once && run.build < cheapBuild {
			if err := timeBuilds(w.configFor(seeds[k]), &builds[k]); err != nil {
				rep.fail("seed %d: %v", seeds[k], err)
				return rep
			}
		}
		times[k] = append(times[k], run.steadyCPU.Seconds())
		if first[k] == nil {
			first[k] = run
			mem = append(mem, run.bytesPerNode)
			checkResult(rep, seeds[k], run.result)
		} else if run.digest != first[k].digest {
			rep.fail("seed %d: Result differs between repetitions", seeds[k])
		}
	}
	if !rep.Correct {
		return rep
	}

	// Seeds differ in activity, so each seed's time is its own median
	// and the rate is total work over total time of one pass.
	// Build time depends on the seed more: the placement is redrawn until
	// the graph is connected, and at 25000 nodes the odd seed connects at
	// the first radio range and builds several times faster than the
	// rest. setup_s is therefore the median over the networks of each
	// network's median, so that one such network does not move it.
	var epochs, steady, cost, overshoot float64
	var setups []float64
	for k, run := range first {
		epochs += float64(run.result.Config.Epochs)
		steady += median(times[k])
		setups = append(setups, median(builds[k]))
		cost += run.result.CostFraction
		overshoot += run.result.Summary.MeanOvershoot
	}
	n := float64(len(first))
	rep.Values["epochs_per_s"] = epochs / steady
	rep.Values["setup_s"] = median(setups)
	rep.Values["bytes_per_node"] = median(mem)
	rep.Values["cost_fraction"] = cost / n
	rep.Values["overshoot_pct"] = overshoot / n
	return rep
}

// A network whose build is cheap (under cheapBuild) is built setupSamples
// times in the first pass, and setup_s takes the median, so that a
// hiccup of the host in one build does not move it. A large network's
// one build already takes seconds.
const (
	setupSamples = 5
	cheapBuild   = 10 * time.Millisecond
)

// timeBuilds times builds of cfg from a settled heap on the process CPU
// clock, appending their seconds to builds until it holds setupSamples.
func timeBuilds(cfg scenario.Config, builds *[]float64) error {
	for len(*builds) < setupSamples {
		runtime.GC()
		c0 := processCPU()
		if _, err := scenario.Build(cfg); err != nil {
			return err
		}
		*builds = append(*builds, (processCPU() - c0).Seconds())
	}
	return nil
}

// setupSplit times the topology build (placement plus spanning tree, on
// the scenario's own seed stream) and the TDMA slot assignment.
func setupSplit(cfg scenario.Config) (topo, slots time.Duration, err error) {
	runtime.GC()
	rng := sim.NewRNG(cfg.Seed)
	t := time.Now()
	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: cfg.NumNodes, Width: cfg.Width, Height: cfg.Height, RadioRange: cfg.RadioRange,
	}, rng.Stream("place"))
	if err != nil {
		return 0, 0, err
	}
	if _, err := topology.BuildSpanningTree(g, topology.Root, cfg.MaxFanout, cfg.MaxDepth); err != nil {
		return 0, 0, err
	}
	topo = time.Since(t)
	t = time.Now()
	if _, err := lmac.AssignSlots(g); err != nil {
		return 0, 0, err
	}
	return topo, time.Since(t), nil
}

// counterSums totals a registry's series by name (over all label sets),
// keying labelled frame counts as name/kind.
func counterSums(reg *telemetry.Registry, into map[string]float64) {
	for _, s := range reg.Snapshot() {
		key := s.Name
		if kind, ok := s.Labels["kind"]; ok {
			key += "/" + kind
		}
		if s.Kind == "gauge" {
			into[key] = math.Max(into[key], s.Value)
			continue
		}
		into[key] += s.Value
	}
}

// traceSim is the traced run of a simulation workload: each seed runs
// untraced and then traced (alternating which goes first), the two
// Results must match, and the traced runs give the per-layer metrics.
func traceSim(w *workload, o runOptions) *report {
	rep := newReport()
	nets := newNetworks(w, o.seed)
	defer nets.note(rep)
	seeds := nets.seeds
	if _, err := nets.run(0, simOpts{stopAt: 1}); err != nil {
		rep.Attempted++
		rep.fail("warm-up build: %v", err)
		return rep
	}
	var (
		probe                  bandProbe
		plainT, tracedT, snapT time.Duration
		epochs, queries, runs  float64
		mallocs                uint64
		gcCPU, allCPU          float64
		topoMs, slotsMs        []float64
		counts                 = map[string]float64{}
		nodes                  float64
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var lat []float64
	for i := 0; i < len(seeds) && (i == 0 || time.Now().Before(deadline) || len(lat) < tailSamples); i++ {
		var plain, traced *simRun
		var perr, terr error
		if i%2 == 0 {
			plain, perr = nets.run(i, simOpts{lat: &lat})
			traced, terr = nets.run(i, simOpts{traced: true, lat: &lat})
		} else {
			traced, terr = nets.run(i, simOpts{traced: true, lat: &lat})
			plain, perr = nets.run(i, simOpts{lat: &lat})
		}
		rep.Attempted += 2
		if perr != nil || terr != nil {
			rep.fail("seed %d: untraced %v, traced %v", seeds[i], perr, terr)
			continue
		}
		cfg := w.configFor(seeds[i])
		topo, slots, err := setupSplit(cfg)
		if err != nil {
			rep.fail("seed %d set-up split: %v", seeds[i], err)
			continue
		}
		topoMs = append(topoMs, float64(topo)/1e6)
		slotsMs = append(slotsMs, float64(slots)/1e6)
		checkResult(rep, seeds[i], plain.result)
		if plain.digest != traced.digest {
			rep.fail("seed %d: traced Result differs from untraced", seeds[i])
			continue
		}
		plainT += plain.steady
		tracedT += traced.steady
		snapT += traced.snapshot
		probe.add(&traced.probe)
		epochs += float64(traced.probe.epochs)
		queries += float64(traced.result.QueriesInjected)
		runs++
		nodes = float64(cfg.NumNodes)
		mallocs += traced.mallocs
		gcCPU += traced.gcCPU
		allCPU += traced.allCPU
		counterSums(traced.reg, counts)
	}
	if !rep.Correct || runs == 0 {
		return rep
	}
	v := rep.Values
	v["tail.p50_ms"] = pct(rep, lat, 0.50)
	v["tail.p99_ms"] = pct(rep, lat, 0.99)
	setBands(v, &probe, queries, snapT, tracedT, runs)
	v["trace.overhead"] = plainT.Seconds() / tracedT.Seconds()
	v["topology.build_ms"] = median(topoMs)
	v["lmac.slots_ms"] = median(slotsMs)
	setCounts(v, counts, epochs, nodes)
	v["go.allocs_per_epoch"] = float64(mallocs) / epochs
	v["go.gc_cpu_frac"] = ratio(gcCPU, allCPU)
	for _, name := range servingOnly {
		v[name] = 0
	}
	return rep
}

// tailSamples is how many per-epoch samples a traced run collects at
// least, so that its p99 has more than minBeyond samples beyond it.
const tailSamples = 1100

// servingOnly are the per-layer metrics of the HTTP serving path, which
// the simulation workloads never enter.
var servingOnly = []string{
	"serve.handler_us.p50", "serve.handler_us.p99", "serve.wire_us.p50",
	"serve.submit_ms.p50", "serve.submit_ms.p99", "serve.queue_depth_peak",
	"serve.shed", "serve.shard_epochs_per_s", "serve.max_qps", "loadgen.late_ms.p50", "loadgen.late_ms.p99",
}

// setBands reports the epoch bands: per epoch, except query injection,
// which is per query. coverage is the share of the traced steady wall
// time that the bands plus the Snapshot account for.
func setBands(v map[string]float64, p *bandProbe, queries float64, snap, steady time.Duration, runs float64) {
	e := float64(p.epochs)
	v["core.epoch_us"] = ratio(float64(p.core)/1e3, e)
	v["query.inject_us"] = ratio(float64(p.inject)/1e3, queries)
	v["lmac.frame_us"] = ratio(float64(p.frame)/1e3, e)
	v["scenario.metrics_us"] = ratio(float64(p.metrics)/1e3, e)
	v["metrics.snapshot_ms"] = ratio(float64(snap)/1e6, runs)
	v["trace.coverage"] = ratio(float64(p.total()+snap), float64(steady))
}

// setCounts derives the per-epoch ratios from summed telemetry counters.
func setCounts(v map[string]float64, c map[string]float64, epochs, nodes float64) {
	frames := c["dirq_lmac_frames_total/full"] + c["dirq_lmac_frames_total/quiet"] + c["dirq_lmac_frames_total/silent"]
	sweep := c["dirq_field_sweep_hits_total"] + c["dirq_field_sweep_refutations_total"]
	v["core.active_frac"] = ratio(c["dirq_core_active_nodes_total"], epochs*nodes)
	v["core.tuples_per_epoch"] = ratio(c["dirq_core_tuples_sent_total"], epochs)
	v["sensordata.sweep_quiet_frac"] = ratio(c["dirq_field_sweep_refutations_total"], sweep)
	v["sensordata.evals_per_epoch"] = ratio(c["dirq_field_evals_total"], epochs)
	v["lmac.frames_full_frac"] = ratio(c["dirq_lmac_frames_total/full"], frames)
	v["lmac.frames_quiet_frac"] = ratio(c["dirq_lmac_frames_total/quiet"], frames)
	v["lmac.frames_silent_frac"] = ratio(c["dirq_lmac_frames_total/silent"], frames)
	v["lmac.msgs_per_epoch"] = ratio(c["dirq_lmac_messages_flushed_total"], epochs)
	v["radio.tx_per_epoch"] = ratio(c["dirq_radio_tx_total"], epochs)
	v["radio.rx_per_tx"] = ratio(c["dirq_radio_rx_total"], c["dirq_radio_tx_total"])
	v["sim.events_per_epoch"] = ratio(c["dirq_engine_events_dispatched_total"]+
		c["dirq_engine_ticker_runs_total"]-probeCount*epochs, epochs)
	v["sim.heap_peak"] = c["dirq_engine_heap_depth_peak"]
}
