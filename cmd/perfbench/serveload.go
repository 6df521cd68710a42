package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Serving load shape.
const (
	serveShards = 2    // dirqd's default -shards
	serveConns  = 2    // senders: the host's CPU count, so the generator cannot outrun it
	fixedRate   = 1000 // q/s offered in the fixed-rate phase, well below the knee
	// p99Limit is the latency limit a ramp rate must meet to count
	// towards serve.max_qps, timed from the intended send time.
	// It sits well above the fixed-rate p99, so a ramp step fails on a
	// growing backlog rather than on one scheduling hiccup.
	p99Limit = 50 * time.Millisecond
	// rampStepQueries sizes each ramp step so that its p99 has more
	// than minBeyond samples beyond it.
	rampStepQueries = 2500
	rampFactor      = 1.25 // geometric ramp; then three bisections (~2.8% resolution)
	requestTimeout  = 5 * time.Second
	// setupPerInstance is how many timed stack start-ups precede each
	// instance's fixed-rate phase. Spread over the run, they sample the
	// same stretch of the host's time as the other metrics: on a shared
	// host the median start-up of a burst drifts by a third within seconds.
	setupPerInstance = 4
	// serveInstances is how many dirqd instances, each on its own shard
	// seeds and so its own fields and queries, share a run's fixed-rate
	// phase: the mean over their shards steadies the cost fraction and
	// the overshoot.
	serveInstances = 10
	// fixedShare is the share of --seconds given to the fixed-rate phase;
	// set-up, warm-ups and the replay check take about the rest (the
	// traced run's ramp, too).
	fixedShare = 0.6
	// warmupQueries are sent to each fresh stack before timing starts.
	warmupQueries = 100
)

// wallClock is the ShardConfig.Clock dirqd injects.
func wallClock() int64 { return time.Now().UnixNano() }

// poolQueries is how many queries of the paper's workload are drawn on
// each shard's field; a run cycles through them. At the paper's cadence
// of one query per 20 epochs they span more than a simulated day.
const poolQueries = 150

// instance is one in-process dirqd: its shard configs, and for each shard
// the queries that make up its traffic.
type instance struct {
	cfgs []serve.ShardConfig
	pool [][]serve.QueryRequestWire
}

// query returns the instance's i-th query: the shards take turns, as
// dirqd's round-robin routing would give them, and each cycles through
// the queries drawn on its own field.
func (in *instance) query(i int) serve.QueryRequestWire {
	p := in.pool[i%len(in.pool)]
	return p[(i/len(in.pool))%len(p)]
}

// newInstances mirrors cmd/dirqd's defaults for each of count
// instances: consecutive-ID shards of the default scenario with a
// 256-event protocol trace, an unbounded horizon, the default step,
// settle, tick and queue settings, and a wall clock for the latency
// histogram. Shard seeds come from the workload seed's stream. A seed
// whose placement admits no spanning tree within the paper's limits
// (which NewManager would refuse) is replaced by the next, at most once
// per shard; any other error fails the run. It also returns the number
// of seeds replaced.
func newInstances(seed uint64, count int) ([]*instance, int, error) {
	draw := seedStream(seed, "serve")
	var out []*instance
	rejected := 0
	for len(out) < count {
		in := &instance{}
		for len(in.cfgs) < serveShards {
			sc := scenario.Default()
			sc.TraceCapacity = 256
			sc.Epochs = 1 << 40
			sc.Seed = draw()
			id := fmt.Sprintf("s%d", len(in.cfgs))
			qs, err := paperQueries(sc, id, poolQueries)
			if unbuildable(err) {
				if rejected++; rejected > count*serveShards {
					return nil, rejected, fmt.Errorf("scenario.Build refused %d seeds, last: %w", rejected, err)
				}
				continue
			}
			if err != nil {
				return nil, rejected, err
			}
			in.cfgs = append(in.cfgs, serve.ShardConfig{ID: id, Scenario: sc, Clock: wallClock})
			in.pool = append(in.pool, qs)
		}
		out = append(out, in)
	}
	return out, rejected, nil
}

// paperQueries draws n queries of the paper's workload (scenario.Config's
// Coverage involvement target, sensor types in rotation, the first after
// WarmupEpochs and then one per QueryInterval) on the field of the shard
// that sc configures, addressed to that shard. The shard hosts the same
// scenario with its built-in workload disabled, so these are the ranges
// scenario.Run would inject into it at those epochs.
func paperQueries(sc scenario.Config, shard string, n int) ([]serve.QueryRequestWire, error) {
	sc.DisableWorkload = true // as serve.NewShard sets it
	r, err := scenario.Build(sc)
	if err != nil {
		return nil, err
	}
	r.Start()
	first := sc.WarmupEpochs
	if first == 0 {
		first = sc.QueryInterval
	}
	r.Step(first)
	out := make([]serve.QueryRequestWire, n)
	for i := range out {
		q, _ := r.NextWorkloadQuery()
		lo, hi := q.Lo, q.Hi
		out[i] = serve.QueryRequestWire{Shard: shard, Type: q.Type.String(), Lo: &lo, Hi: &hi}
		r.Step(sc.QueryInterval)
	}
	return out, nil
}

// seqKey carries a request's index from the sender to the traced
// transport, which forwards it in a header to the traced handler.
type seqKey struct{}

const seqHeader = "X-Perfbench-Seq"

// seqTransport stamps each request with its index.
type seqTransport struct{ base http.RoundTripper }

func (t seqTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if i, ok := req.Context().Value(seqKey{}).(int); ok {
		req = req.Clone(req.Context())
		req.Header.Set(seqHeader, strconv.Itoa(i))
	}
	return t.base.RoundTrip(req)
}

// handlerTrace times the handler for each stamped /query request and
// records the admission backlog each request finds on arrival.
type handlerTrace struct {
	inner     http.Handler
	mgr       *serve.Manager
	durations []atomic.Int64 // ns, indexed by request index
	depthPeak atomic.Int64
}

func (h *handlerTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil || i < 0 || i >= len(h.durations) {
		h.inner.ServeHTTP(w, r)
		return
	}
	var depth int64
	for _, sh := range h.mgr.Shards() {
		depth += int64(sh.Backlog())
	}
	for {
		peak := h.depthPeak.Load()
		if depth <= peak || h.depthPeak.CompareAndSwap(peak, depth) {
			break
		}
	}
	t := time.Now()
	h.inner.ServeHTTP(w, r)
	h.durations[i].Store(int64(time.Since(t)))
}

// stack is one in-process dirqd: a Manager behind serve.NewHandler on a
// loopback listener, and the client that drives it.
type stack struct {
	in      *instance
	cfgs    []serve.ShardConfig
	mgr     *serve.Manager
	srv     *http.Server
	served  chan error
	tr      *http.Transport
	client  *serve.Client
	trace   *handlerTrace
	probes  []*bandProbe
	startup time.Duration
}

// startStack builds and starts a stack, timing NewManager through the
// first /healthz answer. A traced stack attaches band probes to every
// shard engine before Start and wraps the handler and transport.
func startStack(in *instance, traced bool, maxRequests int) (*stack, error) {
	cfgs := in.cfgs
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{in: in, cfgs: cfgs, served: make(chan error, 1)}
	s.tr = &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	var rt http.RoundTripper = s.tr
	if traced {
		rt = seqTransport{base: s.tr}
	}
	s.client = serve.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})

	t0 := time.Now()
	if s.mgr, err = serve.NewManager(cfgs); err != nil {
		ln.Close()
		return nil, err
	}
	var h http.Handler = serve.NewHandler(s.mgr)
	if traced {
		for _, sh := range s.mgr.Shards() {
			p := &bandProbe{}
			p.attach(sh.Engine())
			s.probes = append(s.probes, p)
		}
		s.trace = &handlerTrace{inner: h, mgr: s.mgr, durations: make([]atomic.Int64, maxRequests)}
		h = s.trace
	}
	if err := s.mgr.Start(context.Background()); err != nil {
		ln.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: h}
	go func() { s.served <- s.srv.Serve(ln) }()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := s.client.Healthz(ctx)
		cancel()
		if err == nil {
			break
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	s.startup = time.Since(t0)
	return s, nil
}

// stop shuts the HTTP server and the shards down and waits for both.
func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // the wait below reports nothing more useful
	<-s.served
	s.mgr.Stop()
	s.tr.CloseIdleConnections()
}

// epochs is the total simulated epoch count over all shards.
func (s *stack) epochs() int64 {
	var n int64
	for _, st := range s.mgr.Stats() {
		n += st.Epoch
	}
	return n
}

// sample is one open-loop request.
type sample struct {
	due, sent, done time.Time
	resp            *serve.Response
	err             error
}

// openLoop offers queries base..base+n-1 of the instance's stream at rate per
// second. One scheduler goroutine releases each query at its intended
// send time; serveConns senders take them in order, so a stall shows up
// as lateness (sent - due) rather than as load that was never offered.
func (s *stack) openLoop(base, n int, rate float64) []sample {
	out := make([]sample, n)
	start := time.Now().Add(5 * time.Millisecond)
	for i := range out {
		out[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	jobs := make(chan int, n) // sized to the number of sends: the scheduler never blocks
	go func() {
		defer close(jobs)
		for i := range out {
			sleepUntil(out[i].due)
			jobs <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				smp := &out[i]
				ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), seqKey{}, base+i), requestTimeout)
				smp.sent = time.Now()
				smp.resp, smp.err = s.client.Query(ctx, s.in.query(base+i))
				smp.done = time.Now()
				cancel()
			}
		}()
	}
	wg.Wait()
	return out
}

// phase summarizes a run of samples; handler and wire times only for a
// traced stack.
type phase struct {
	n, failed  int
	lat, late  []float64 // ms from the intended send time; ms late
	lateGrowth float64   // median lateness, last quarter minus first quarter
	overshoot  float64
	p50, p99   float64
	latErr     error
	handlerNs  []float64
	wireNs     []float64
	firstErr   error
	responses  []*serve.Response
}

func summarize(smp []sample, h *handlerTrace) *phase {
	p := &phase{n: len(smp)}
	var over []float64
	for i, s := range smp {
		p.late = append(p.late, float64(s.sent.Sub(s.due))/1e6)
		if s.err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = s.err
			}
			// A failed request misses every latency limit.
			p.lat = append(p.lat, float64(requestTimeout)/1e6)
			continue
		}
		p.lat = append(p.lat, float64(s.done.Sub(s.due))/1e6)
		over = append(over, s.resp.Accuracy.OvershootPct)
		p.responses = append(p.responses, s.resp)
		if h != nil {
			hd := float64(h.durations[i].Load())
			p.handlerNs = append(p.handlerNs, hd)
			p.wireNs = append(p.wireNs, float64(s.done.Sub(s.sent))-hd)
		}
	}
	q := len(p.late) / 4
	p.lateGrowth = median(p.late[len(p.late)-q:]) - median(p.late[:q])
	p.overshoot = mean(over)
	lat := append([]float64(nil), p.lat...)
	if p.p50, p.latErr = percentile(lat, 0.50); p.latErr == nil {
		p.p99, p.latErr = percentile(lat, 0.99)
	}
	return p
}

// passes reports whether a ramp step met the latency limit without
// failures or a growing generator backlog.
func (p *phase) passes() bool {
	limit := float64(p99Limit) / 1e6
	return p.failed == 0 && p.latErr == nil && p.p99 <= limit && p.lateGrowth <= limit/4
}

// fixedPhase offers n requests at fixedRate, returning the samples with
// the shards' epoch advance and the wall time it took.
func (s *stack) fixedPhase(base, n int) ([]sample, int64, time.Duration) {
	e0, t0 := s.epochs(), time.Now()
	smp := s.openLoop(base, n, fixedRate)
	return smp, s.epochs() - e0, time.Since(t0)
}

// ramp raises the offered rate geometrically from `from` until a step
// fails, then bisects between the last passing and first failing rates.
// It returns the highest passing rate (0 if even from/rampFactor fails)
// and the requests sent and failed, and appends the answers to responses.
func (s *stack) ramp(base int, from float64, responses *[]*serve.Response) (best float64, sent, failed int) {
	step := func(rate float64) bool {
		p := summarize(s.openLoop(base+sent, rampStepQueries, rate), nil)
		sent += p.n
		failed += p.failed
		*responses = append(*responses, p.responses...)
		return p.passes()
	}
	lo, hi := 0.0, from
	for step(hi) {
		lo, hi = hi, hi*rampFactor
		if hi > 1e6 {
			return lo, sent, failed // the limit cannot be reached on loopback
		}
	}
	if lo == 0 {
		lo = from / rampFactor
		if !step(lo) {
			return 0, sent, failed
		}
	}
	for i := 0; i < 3; i++ {
		mid := math.Sqrt(lo * hi)
		if step(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, sent, failed
}

// checkReplay verifies every live response against a fresh shard that
// replays the live shard's admission log single-threaded.
func checkReplay(rep *report, s *stack, live []*serve.Response) {
	byShard := map[string]map[int64][]byte{}
	for _, r := range live {
		b, err := json.Marshal(r)
		if err != nil {
			rep.fail("encode live response: %v", err)
			return
		}
		if byShard[r.Shard] == nil {
			byShard[r.Shard] = map[int64][]byte{}
		}
		byShard[r.Shard][r.QueryID] = b
	}
	errs := make([]error, len(s.cfgs))
	var wg sync.WaitGroup
	for i, cfg := range s.cfgs {
		sh, _ := s.mgr.Shard(cfg.ID)
		want := byShard[cfg.ID]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = replayShard(cfg, sh.AdmittedLog(), want)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rep.fail("%v", err)
		}
	}
}

// replayShard replays one shard's log and compares the responses to the
// live ones by query ID.
func replayShard(cfg serve.ShardConfig, log []serve.AdmittedQuery, live map[int64][]byte) error {
	cfg.Clock = nil
	fresh, err := serve.NewShard(cfg)
	if err != nil {
		return fmt.Errorf("shard %s replay: %w", cfg.ID, err)
	}
	got, err := fresh.Replay(log)
	if err != nil {
		return fmt.Errorf("shard %s replay: %w", cfg.ID, err)
	}
	matched := 0
	for _, r := range got {
		want, ok := live[r.QueryID]
		if !ok {
			continue // admitted but its client saw an error
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, want) {
			return fmt.Errorf("shard %s query %d: live response differs from replay", cfg.ID, r.QueryID)
		}
		matched++
	}
	if matched != len(live) {
		return fmt.Errorf("shard %s: %d live responses, %d found in replay", cfg.ID, len(live), matched)
	}
	return nil
}

// runServe runs the serving workload: the fixed-rate phase split over
// serveInstances stacks, each preceded by timed stack start-ups, and the
// replay check of every answer.
func runServe(w *workload, o runOptions) *report {
	rep := newReport()
	count := serveInstances
	if o.trace {
		count = 1
	}
	// The instances and their query pools are built before anything is
	// timed.
	insts, rejected, err := newInstances(o.seed, count)
	rep.note("%d of %d shard seeds replaced (no spanning tree within the fanout and depth limits)",
		rejected, count*serveShards)
	if err != nil {
		rep.Attempted++
		rep.fail("shard configs: %v", err)
		return rep
	}
	if o.trace {
		return traceServe(rep, insts[0], o)
	}
	// The first start-up in a process warms code and heap; it is not timed.
	var setups []float64
	startups := func(in *instance, repeat int) error {
		for i := 0; i < repeat; i++ {
			s, err := startStack(in, false, 0)
			if err != nil {
				return err
			}
			setups = append(setups, s.startup.Seconds())
			s.stop()
		}
		return nil
	}
	if err := startups(insts[0], 1); err != nil {
		rep.Attempted++
		rep.fail("stack start-up: %v", err)
		return rep
	}
	setups = setups[:0]

	n := int(fixedRate * fixedShare * o.seconds / serveInstances)
	var (
		smp, warm    []sample
		epochs       int64
		busy         time.Duration
		costs        []float64
		bytesPerNode float64
	)
	for k, in := range insts {
		if err := startups(in, setupPerInstance); err != nil {
			rep.Attempted++
			rep.fail("stack start-up: %v", err)
			return rep
		}
		heap0 := liveHeap()
		s, err := startStack(in, false, 0)
		if err != nil {
			rep.Attempted++
			rep.fail("stack start-up: %v", err)
			return rep
		}
		if k == 0 {
			nodes := 0
			for _, c := range in.cfgs {
				nodes += c.Scenario.NumNodes
			}
			bytesPerNode = (float64(liveHeap()) - float64(heap0)) / float64(nodes)
		}
		// A fresh stack's first queries meet cold caches and a growing
		// heap; they are answered and checked but not timed.
		w := s.openLoop(0, warmupQueries, fixedRate)
		warm = append(warm, w...)
		part, e, d := s.fixedPhase(warmupQueries, n)
		smp = append(smp, part...)
		epochs += e
		busy += d
		for _, st := range s.mgr.Stats() {
			costs = append(costs, st.CostFraction)
		}
		s.stop()
		checkReplay(rep, s, append(summarize(w, nil).responses, summarize(part, nil).responses...))
	}
	warmed, fixed := summarize(warm, nil), summarize(smp, nil)
	rep.Attempted += int64(fixed.n + warmed.n)
	if f := fixed.failed + warmed.failed; f > 0 {
		rep.Correct = false
		rep.Failed += int64(f)
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d queries failed", f, fixed.n+warmed.n))
	}
	if fixed.latErr != nil {
		rep.fail("%v", fixed.latErr)
	}
	for _, c := range costs {
		if !(c > 0 && c < 1) {
			rep.fail("cost fraction %v outside (0, 1)", c)
		}
	}

	v := rep.Values
	v["epochs_per_s"] = float64(epochs) / busy.Seconds()
	v["setup_s"] = median(setups)
	rep.Samples["setup_s"] = len(setups)
	v["bytes_per_node"] = bytesPerNode
	v["cost_fraction"] = mean(costs)
	v["overshoot_pct"] = fixed.overshoot
	return rep
}

// traceServe runs an untraced fixed-rate phase and a rate ramp, then a
// traced fixed-rate phase, each on a fresh stack with the same seeds, and
// reports the serving and shard layer metrics.
func traceServe(rep *report, in *instance, o runOptions) *report {
	cfgs := in.cfgs
	n := int(fixedRate * fixedShare * o.seconds / 2)
	phases := make([]*phase, 2)
	var best float64
	var s *stack
	var epochs int64
	var busy time.Duration
	var ms0, ms1 runtime.MemStats
	var gc0, all0, gc1, all1 float64
	for i, traced := range []bool{false, true} {
		var err error
		if s, err = startStack(in, traced, n); err != nil {
			rep.Attempted++
			rep.fail("stack start-up: %v", err)
			return rep
		}
		warm := summarize(s.openLoop(n, warmupQueries, fixedRate), nil)
		runtime.ReadMemStats(&ms0)
		gc0, all0 = cpuSeconds()
		var smp []sample
		smp, epochs, busy = s.fixedPhase(0, n)
		runtime.ReadMemStats(&ms1)
		gc1, all1 = cpuSeconds()
		phases[i] = summarize(smp, s.trace)
		answered := append(warm.responses, phases[i].responses...)
		var sent, failed int
		if !traced {
			best, sent, failed = s.ramp(n+warmupQueries, fixedRate*rampFactor, &answered)
		}
		s.stop()
		checkReplay(rep, s, answered)
		rep.Attempted += int64(phases[i].n + warm.n + sent)
		if f := phases[i].failed + warm.failed + failed; f > 0 {
			rep.Correct = false
			rep.Failed += int64(f)
			rep.Problems = append(rep.Problems, fmt.Sprintf("%d queries failed", f))
		}
		if phases[i].latErr != nil {
			rep.fail("%v", phases[i].latErr)
		}
	}
	if !rep.Correct {
		return rep
	}
	plain, traced := phases[0], phases[1]

	v := rep.Values
	var probe bandProbe
	for _, p := range s.probes {
		probe.add(p)
	}
	counts := map[string]float64{}
	counterSums(s.mgr.Telemetry(), counts)
	// The shards' wall time: coverage is the share of it spent in epochs.
	shardTime := time.Duration(len(cfgs)) * busy
	setBands(v, &probe, float64(traced.n), 0, shardTime, 1)
	v["metrics.snapshot_ms"] = 0 // shards answer from query records, never Snapshot
	v["trace.overhead"] = plain.p50 / traced.p50
	v["tail.p50_ms"] = traced.p50
	v["tail.p99_ms"] = traced.p99
	v["serve.max_qps"] = best
	if best == 0 {
		rep.fail("no ramp rate met the %v p99 limit", p99Limit)
	}
	var topoMs, slotsMs []float64
	for _, c := range cfgs {
		topo, slots, err := setupSplit(c.Scenario)
		if err != nil {
			rep.fail("set-up split: %v", err)
			return rep
		}
		topoMs = append(topoMs, float64(topo)/1e6)
		slotsMs = append(slotsMs, float64(slots)/1e6)
	}
	v["topology.build_ms"] = median(topoMs)
	v["lmac.slots_ms"] = median(slotsMs)
	setCounts(v, counts, counts["dirq_epochs_total"], float64(cfgs[0].Scenario.NumNodes))
	v["go.allocs_per_epoch"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(epochs))
	v["go.gc_cpu_frac"] = ratio(gc1-gc0, all1-all0)

	v["serve.handler_us.p50"] = pct(rep, traced.handlerNs, 0.50) / 1e3
	v["serve.handler_us.p99"] = pct(rep, traced.handlerNs, 0.99) / 1e3
	v["serve.wire_us.p50"] = pct(rep, traced.wireNs, 0.50) / 1e3
	submit := mergedHistogram(s.mgr.Telemetry(), "dirq_serve_query_latency_seconds")
	v["serve.submit_ms.p50"] = submit.Quantile(0.50) * 1e3
	v["serve.submit_ms.p99"] = submit.Quantile(0.99) * 1e3
	v["serve.queue_depth_peak"] = float64(s.trace.depthPeak.Load())
	var shed int64
	for _, sh := range s.mgr.Shards() {
		shed += sh.QueriesShed()
	}
	v["serve.shed"] = float64(shed)
	v["serve.shard_epochs_per_s"] = float64(epochs) / busy.Seconds()
	v["loadgen.late_ms.p50"] = pct(rep, traced.late, 0.50)
	v["loadgen.late_ms.p99"] = pct(rep, traced.late, 0.99)
	return rep
}

// pct is percentile with its error recorded as a failed check.
func pct(rep *report, xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		rep.fail("%v", err)
	}
	return v
}

// mergedHistogram sums one histogram's buckets over all label sets.
func mergedHistogram(reg *telemetry.Registry, name string) telemetry.SeriesSnapshot {
	var out telemetry.SeriesSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		if out.Name == "" {
			out = s
			out.Buckets = append([]telemetry.BucketCount(nil), s.Buckets...)
			continue
		}
		out.Count += s.Count
		out.Sum += s.Sum
		for i := range out.Buckets {
			out.Buckets[i].Count += s.Buckets[i].Count
		}
	}
	return out
}
