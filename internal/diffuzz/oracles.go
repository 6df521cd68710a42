package diffuzz

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/sensordata"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The oracle names, accepted by RunOracle and the -oracles CLI flag.
const (
	// OracleDeterminism runs the scripted case twice and requires
	// byte-identical Result+Report.
	OracleDeterminism = "determinism"
	// OracleGating runs the case gated and with DisableActivityGating and
	// requires byte-identical output.
	OracleGating = "gating"
	// OracleStepping compares monolithic Runner.Run against manual
	// Start/Step driving under seed-derived chunkings, and a
	// DisableWorkload run with external Inject/Resolve admission under two
	// different chunk schedules.
	OracleStepping = "stepping"
	// OracleServe serves seed-derived queries against a live chaos shard
	// and requires Replay of the admission log to reproduce every response.
	OracleServe = "serve"
	// OracleWorkers runs one experiment sweep with 1 and with N workers
	// and requires identical tables.
	OracleWorkers = "workers"
)

// AllOracles lists every oracle in canonical execution order.
func AllOracles() []string {
	return []string{OracleDeterminism, OracleGating, OracleStepping, OracleServe, OracleWorkers}
}

// Divergence is an oracle failure: two executions that the repository's
// invariants require to be identical were not. Infrastructure errors
// (unbuildable shrink candidates, serve timeouts) are ordinary errors;
// only a *Divergence counts as a fuzzing find.
type Divergence struct {
	Oracle string
	Seed   uint64
	Detail string
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("diffuzz: oracle %q diverged on seed %d: %s", d.Oracle, d.Seed, d.Detail)
}

// RunOracle executes one named oracle against a case. perturb, when
// non-nil, is applied to the built runner of the second determinism run
// before it starts — test instrumentation for proving the harness catches
// an injected divergence (e.g. silently consuming one RNG draw).
func RunOracle(name string, c Case, perturb func(*scenario.Runner)) error {
	switch name {
	case OracleDeterminism:
		return oracleDeterminism(c, perturb)
	case OracleGating:
		return oracleGating(c)
	case OracleStepping:
		return oracleStepping(c)
	case OracleServe:
		return oracleServe(c)
	case OracleWorkers:
		return oracleWorkers(c)
	default:
		return fmt.Errorf("diffuzz: unknown oracle %q (known: %v)", name, AllOracles())
	}
}

// runScripted executes the case's scripted run and returns the encoded
// Result+Report bundle. naive disables activity gating; the knob is
// normalized out of the encoding so gated and naive runs compare equal
// when (and only when) everything else matches.
func runScripted(c Case, naive bool, perturb func(*scenario.Runner)) ([]byte, *script.Result, error) {
	p, err := script.NewPlayer(c.Script)
	if err != nil {
		return nil, nil, err
	}
	cfg := c.Cfg
	cfg.DisableActivityGating = naive
	cfg.DisableWorkload = true
	cfg.Script = p
	r, err := scenario.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if perturb != nil {
		perturb(r)
	}
	res := r.Run()
	res.Config.DisableActivityGating = false
	res.Config.Script = nil
	bundle := &script.Result{Result: res, Report: p.Report()}
	enc, err := encode(bundle)
	return enc, bundle, err
}

// encode gob-serializes a value. Gob rather than JSON because per-query
// accuracies can carry +Inf (RelOvershootPct), which JSON refuses.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("diffuzz: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// encodeResult encodes a plain scenario Result with the driver handle
// cleared (interface fields don't gob-encode).
func encodeResult(res *scenario.Result) ([]byte, error) {
	res.Config.Script = nil
	return encode(res)
}

// diffDetail locates the first differing byte of two encodings and
// renders a short human-readable summary alongside it.
func diffDetail(a, b []byte, aName, bName, aRepr, bRepr string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("%s and %s differ from byte %d (lengths %d vs %d)\n%s: %s\n%s: %s",
		aName, bName, i, len(a), len(b), aName, aRepr, bName, bRepr)
}

// summarize renders the comparable headline of one scripted bundle.
func summarize(r *script.Result) string {
	return fmt.Sprintf("queries=%d summary=%+v costFraction=%.6f windows=%d faults=%d",
		r.QueriesInjected, r.Summary, r.CostFraction, len(r.Report.Windows), len(r.Report.Faults))
}

// oracleDeterminism: the same case executed twice must be byte-identical.
func oracleDeterminism(c Case, perturb func(*scenario.Runner)) error {
	a, ra, err := runScripted(c, false, nil)
	if err != nil {
		return err
	}
	b, rb, err := runScripted(c, false, perturb)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return &Divergence{Oracle: OracleDeterminism, Seed: c.Seed,
			Detail: diffDetail(a, b, "run-1", "run-2", summarize(ra), summarize(rb))}
	}
	return nil
}

// oracleGating: the activity-gated engine must reproduce the naive epoch
// loop bit for bit.
func oracleGating(c Case) error {
	g, rg, err := runScripted(c, false, nil)
	if err != nil {
		return err
	}
	n, rn, err := runScripted(c, true, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, n) {
		return &Divergence{Oracle: OracleGating, Seed: c.Seed,
			Detail: diffDetail(g, n, "gated", "naive", summarize(rg), summarize(rn))}
	}
	return nil
}

// oracleStepping: monolithic Run vs manual driving.
func oracleStepping(c Case) error {
	// Variant 1: the built-in workload run, monolithic vs seed-derived
	// random step chunks.
	cfg := c.Cfg
	mono, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	r, err := scenario.Build(cfg)
	if err != nil {
		return err
	}
	r.Start()
	chunks := sim.NewRNG(c.Seed).Stream("diffuzz/chunks")
	for !r.Done() {
		if r.Step(int64(chunks.Intn(97))+1) == 0 && !r.Done() {
			return fmt.Errorf("diffuzz: Step advanced 0 epochs before the horizon (epoch %d)", r.Epoch())
		}
	}
	em, err := encodeResult(mono)
	if err != nil {
		return err
	}
	stepped := r.Snapshot()
	es, err := encodeResult(stepped)
	if err != nil {
		return err
	}
	if !bytes.Equal(em, es) {
		return &Divergence{Oracle: OracleStepping, Seed: c.Seed,
			Detail: diffDetail(em, es, "monolithic", "stepped",
				fmt.Sprintf("%+v", mono.Summary), fmt.Sprintf("%+v", stepped.Summary))}
	}

	// Variant 2: external admission — the serve-layer drive style. Queries
	// are injected with Inject/Resolve at seed-derived epoch boundaries;
	// two different chunk schedules must agree.
	coarse, cres, err := manualDrive(c, false)
	if err != nil {
		return err
	}
	fine, fres, err := manualDrive(c, true)
	if err != nil {
		return err
	}
	if !bytes.Equal(coarse, fine) {
		return &Divergence{Oracle: OracleStepping, Seed: c.Seed,
			Detail: diffDetail(coarse, fine, "coarse-inject", "fine-inject",
				fmt.Sprintf("%+v", cres.Summary), fmt.Sprintf("%+v", fres.Summary))}
	}
	return nil
}

// manualDrive runs the case's config with the workload disabled and
// injects seed-derived queries at fixed epoch boundaries, advancing in
// one chunk per boundary (fine=false) or in small ragged chunks
// (fine=true). Both schedules hit every boundary exactly, so the
// simulations must be indistinguishable.
func manualDrive(c Case, fine bool) ([]byte, *scenario.Result, error) {
	cfg := c.Cfg
	cfg.DisableWorkload = true
	r, err := scenario.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	r.Start()

	erng := sim.NewRNG(c.Seed).Stream("diffuzz/injects")
	k := 3 + erng.Intn(6)
	lo := cfg.WarmupEpochs + 1
	seen := map[int64]bool{}
	var boundaries []int64
	for i := 0; i < k; i++ {
		at := lo + int64(erng.Intn(int(cfg.Epochs-lo)))
		if !seen[at] {
			seen[at] = true
			boundaries = append(boundaries, at)
		}
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	crng := sim.NewRNG(c.Seed).Stream("diffuzz/fine")
	for _, at := range boundaries {
		for r.Epoch() < at {
			step := at - r.Epoch()
			if fine {
				if s := int64(crng.Intn(7)) + 1; s < step {
					step = s
				}
			}
			r.Step(step)
		}
		// The workload generator supplies the query shape; the ground
		// truth is recomputed through the external Resolve path, exactly
		// like a client-supplied query in the serving layer.
		q, _ := r.NextWorkloadQuery()
		r.Inject(q, r.Resolve(q))
	}
	r.Step(cfg.Epochs)
	res := r.Snapshot()
	enc, err := encodeResult(res)
	return enc, res, err
}

// oracleServe: a live shard under chaos injection must be exactly
// reproduced by replaying its admission log.
func oracleServe(c Case) error {
	scn := c.Cfg
	scn.Script = nil
	scn.LoadPhases = nil
	// The serving horizon is open-ended: the clients and settle windows,
	// not the case horizon, bound how far the shard simulates.
	scn.Epochs = 1 << 20
	var chaos []script.Event
	for _, e := range c.Script.Events {
		if e.RunnerOp() {
			chaos = append(chaos, e)
		}
	}
	shcfg := serve.ShardConfig{
		ID:       fmt.Sprintf("fuzz-%d", c.Seed),
		Scenario: scn,
		// Small step and tick so the oracle resolves in milliseconds.
		StepEpochs: 16,
		Tick:       200 * time.Microsecond,
		Chaos:      chaos,
		// Case-drawn backpressure knobs (zero: serve defaults). With a
		// tight queue some of the concurrent submissions below shed, and
		// the oracle then also proves shedding leaves no log trace.
		QueueDepth: c.QueueDepth,
		MaxBatch:   c.MaxBatch,
	}
	sh, err := serve.NewShard(shcfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sh.Serve(ctx) }()

	// Request shapes are drawn serially (deterministic per seed); the
	// submissions race, so which ones shed under a bounded queue is
	// scheduler-dependent — exactly why replay correctness must not
	// depend on it.
	qrng := sim.NewRNG(c.Seed).Stream("diffuzz/queries")
	const clients = 8
	reqs := make([]serve.Request, clients)
	for i := range reqs {
		reqs[i] = randRequest(qrng)
	}
	type submission struct {
		resp *serve.Response
		err  error
	}
	results := make([]submission, clients)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qctx, qcancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer qcancel()
			resp, qerr := sh.Submit(qctx, reqs[i])
			results[i] = submission{resp, qerr}
		}(i)
	}
	wg.Wait()
	live := map[int64]*serve.Response{}
	shed := 0
	for i, r := range results {
		switch {
		case r.err == nil:
			live[r.resp.QueryID] = r.resp
		case errors.Is(r.err, serve.ErrOverloaded):
			shed++
		default:
			cancel()
			<-serveDone
			return fmt.Errorf("diffuzz: serve oracle: live query %d: %w", i, r.err)
		}
	}
	cancel()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("diffuzz: serve oracle: %w", err)
	}
	if got := sh.QueriesShed(); got != int64(shed) {
		return &Divergence{Oracle: OracleServe, Seed: c.Seed,
			Detail: fmt.Sprintf("shard counted %d shed queries, clients saw %d", got, shed)}
	}

	log := sh.AdmittedLog()
	logged := 0
	for _, e := range log {
		if e.Event == nil {
			logged++
		}
	}
	if logged != len(live) {
		return &Divergence{Oracle: OracleServe, Seed: c.Seed,
			Detail: fmt.Sprintf("admission log holds %d query entries for %d answered queries (%d shed — shed queries must not be logged)",
				logged, len(live), shed)}
	}
	fresh, err := serve.NewShard(shcfg)
	if err != nil {
		return err
	}
	replayed, err := fresh.Replay(log)
	if err != nil {
		// A log the shard itself produced but cannot replay is a broken
		// determinism contract, not an infrastructure error.
		return &Divergence{Oracle: OracleServe, Seed: c.Seed,
			Detail: fmt.Sprintf("replay of the live admission log failed: %v", err)}
	}
	if len(replayed) != len(live) {
		return &Divergence{Oracle: OracleServe, Seed: c.Seed,
			Detail: fmt.Sprintf("replay produced %d responses for %d live queries", len(replayed), len(live))}
	}
	for _, rr := range replayed {
		lr, ok := live[rr.QueryID]
		if !ok {
			return &Divergence{Oracle: OracleServe, Seed: c.Seed,
				Detail: fmt.Sprintf("replayed query %d has no live counterpart", rr.QueryID)}
		}
		a, aerr := json.Marshal(lr)
		b, berr := json.Marshal(rr)
		if aerr != nil || berr != nil {
			return fmt.Errorf("diffuzz: serve oracle: marshal response %d: %v / %v", rr.QueryID, aerr, berr)
		}
		if !bytes.Equal(a, b) {
			return &Divergence{Oracle: OracleServe, Seed: c.Seed,
				Detail: fmt.Sprintf("query %d differs\nlive:   %s\nreplay: %s", rr.QueryID, a, b)}
		}
	}
	return nil
}

// randRequest draws one range query over a random sensor type's span.
func randRequest(rng *sim.RNG) serve.Request {
	typ := sensordata.AllTypes()[rng.Intn(int(sensordata.NumTypes))]
	min, max := typ.Span()
	lo := rng.Range(min, max)
	return serve.Request{Type: typ, Lo: lo, Hi: lo + rng.Range(0, max-lo)}
}

// workerIDs are the experiment sweeps the workers oracle samples: cheap
// enough to run twice per case, and together covering the plain-run pool
// (fig5), the threshold sweep (fig6), and the scripted engine-pool path
// (churn).
var workerIDs = []string{experiments.IDFig5a, experiments.IDFig6, experiments.IDChurn}

// oracleWorkers: experiment results must not depend on the worker count.
// Errors are part of the contract too: if the serial sweep fails, the
// parallel sweep must fail identically.
func oracleWorkers(c Case) error {
	rng := sim.NewRNG(c.Seed).Stream("diffuzz/workers")
	id := workerIDs[rng.Intn(len(workerIDs))]
	o := experiments.Options{
		Seed:     rng.Uint64(),
		NumNodes: 30 + rng.Intn(16),
		Epochs:   int64(300 + rng.Intn(201)),
	}
	workers := 2 + rng.Intn(6)

	o.Workers = 1
	serial, serr := experiments.Run(id, o)
	o.Workers = workers
	par, perr := experiments.Run(id, o)

	switch {
	case (serr == nil) != (perr == nil):
		return &Divergence{Oracle: OracleWorkers, Seed: c.Seed,
			Detail: fmt.Sprintf("experiment %q: workers=1 err=%v, workers=%d err=%v", id, serr, workers, perr)}
	case serr != nil:
		if serr.Error() != perr.Error() {
			return &Divergence{Oracle: OracleWorkers, Seed: c.Seed,
				Detail: fmt.Sprintf("experiment %q errors differ: %q vs %q", id, serr, perr)}
		}
		return nil
	case !reflect.DeepEqual(serial, par):
		return &Divergence{Oracle: OracleWorkers, Seed: c.Seed,
			Detail: fmt.Sprintf("experiment %q tables differ between workers=1 and workers=%d\nserial: %+v\nparallel: %+v",
				id, workers, serial, par)}
	}
	return nil
}
