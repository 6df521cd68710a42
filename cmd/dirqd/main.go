// Command dirqd serves live range queries over one or more continuously
// advancing DirQ sensor-network simulations ("shards").
//
// Each shard hosts an independent network (same knobs, consecutive
// seeds), advances it on its own goroutine, and admits client queries at
// epoch boundaries. Answers carry the matched nodes, accuracy against
// the ground truth at admission, and message cost against the flooding
// baseline.
//
// Usage:
//
//	dirqd [-addr :8080] [-shards 2] [-nodes 50] [-mode fixed|atc]
//	      [-delta 5] [-rho 0.4] [-seed 1] [-loss 0] [-hetero]
//	      [-horizon 0] [-step 25] [-settle 0] [-tick 2ms] [-trace 256]
//	      [-queue 256] [-maxbatch 0] [-route round-robin|least-loaded]
//	      [-chaos script.json]
//
// -queue bounds each shard's admission queue: a full queue sheds new
// queries with 429 Too Many Requests (plus a Retry-After hint) instead
// of queueing without limit. -maxbatch caps how many queued queries one
// scheduler pass admits (0 = the queue bound), smoothing latency under
// bursts. -route picks the placement of un-pinned queries: round-robin
// or least-loaded (smallest live admission backlog).
//
// -chaos loads a scenario-dynamics script (see internal/script and the
// README's "Scripting scenarios") and runs its timeline on every shard
// while queries are being served: node kills, sensor regime shifts and
// drift, threshold retuning, fired at exact epochs. Workload ops are
// rejected — the clients are the workload. Applied events land in each
// shard's admission log, so deterministic replay still holds.
//
// Endpoints:
//
//	POST /query         {"shard":"s0","type":"temperature","lo":10,"hi":25}
//	GET  /stats         live per-shard accuracy and cost-vs-flooding
//	                    counters, plus server build/uptime/runtime info
//	GET  /healthz       shard loop liveness
//	GET  /shards        hosted shard descriptions
//	GET  /metrics       telemetry registry in Prometheus text format
//	GET  /metrics.json  the same registry as JSON with p50/p90/p99
//
// The build version reported by /stats is stamped at link time with
// `-ldflags "-X main.version=..."`.
//
// SIGINT/SIGTERM shut down gracefully: in-flight queries are answered
// with 503 and the HTTP server drains before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dirq "repro"
	"repro/internal/script"
	"repro/internal/serve"
)

// version is stamped at link time: go build -ldflags "-X main.version=v7".
var version = "dev"

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirqd: ")

	base := dirq.DefaultScenario()
	addr := flag.String("addr", ":8080", "HTTP listen address")
	shards := flag.Int("shards", 2, "number of independent simulation shards")
	nodes := flag.Int("nodes", base.NumNodes, "network size per shard, including the root")
	mode := flag.String("mode", "fixed", "threshold mode: fixed or atc")
	delta := flag.Float64("delta", base.FixedPct, "fixed threshold in percent of sensor span")
	rho := flag.Float64("rho", base.Rho, "ATC update-budget fraction of the flooding headroom")
	seed := flag.Uint64("seed", 1, "base seed; shard i uses seed+i")
	loss := flag.Float64("loss", 0, "packet loss probability")
	hetero := flag.Bool("hetero", false, "heterogeneous sensor complements")
	horizon := flag.Int64("horizon", 0, "epoch horizon per shard (0 = effectively unbounded)")
	step := flag.Int64("step", 25, "max epochs advanced per scheduler pass")
	settle := flag.Int64("settle", 0, "epochs between admission and answer (0 = tree depth cap + 2)")
	tick := flag.Duration("tick", 2*time.Millisecond, "idle pacing between simulation passes")
	traceN := flag.Int("trace", 256, "protocol-event ring buffer per shard (0 = off)")
	queue := flag.Int("queue", 0, "admission queue bound per shard (0 = default 256); a full queue sheds with 429")
	maxBatch := flag.Int("maxbatch", 0, "max queued queries admitted per scheduler pass (0 = the queue bound)")
	route := flag.String("route", "round-robin", "un-pinned query placement: round-robin or least-loaded")
	chaosPath := flag.String("chaos", "", "scenario-dynamics script applied to every shard while serving")
	flag.Parse()

	routing, err := serve.ParseRouting(*route)
	if err != nil {
		log.Fatal(err)
	}

	var chaos []script.Event
	if *chaosPath != "" {
		sc, err := script.Load(*chaosPath)
		if err != nil {
			log.Fatal(err)
		}
		if sc.Workload != (script.Workload{}) {
			log.Fatalf("%s: the script's workload section has no effect under -chaos (clients are the workload); remove it", *chaosPath)
		}
		chaos = sc.Events
	}

	if *shards < 1 {
		log.Fatalf("-shards %d < 1", *shards)
	}
	base.NumNodes = *nodes
	base.FixedPct = *delta
	base.Rho = *rho
	base.PacketLoss = *loss
	base.Heterogeneous = *hetero
	base.TraceCapacity = *traceN
	switch *mode {
	case "fixed":
		base.Mode = dirq.FixedDelta
	case "atc":
		base.Mode = dirq.ATC
	default:
		log.Fatalf("unknown -mode %q (want fixed or atc)", *mode)
	}
	base.Epochs = *horizon
	if base.Epochs <= 0 {
		base.Epochs = 1 << 40 // ~3.5e4 years of epochs at 1 kHz: unbounded in practice
	}

	cfgs := make([]serve.ShardConfig, *shards)
	for i := range cfgs {
		sc := base
		sc.Seed = *seed + uint64(i)
		cfgs[i] = serve.ShardConfig{
			ID:           fmt.Sprintf("s%d", i),
			Scenario:     sc,
			StepEpochs:   *step,
			SettleEpochs: *settle,
			Tick:         *tick,
			QueueDepth:   *queue,
			MaxBatch:     *maxBatch,
			Chaos:        chaos,
			Clock:        func() int64 { return time.Now().UnixNano() },
		}
	}
	mgr, err := serve.NewManager(cfgs)
	if err != nil {
		log.Fatal(err)
	}
	mgr.SetRouting(routing)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := mgr.Start(ctx); err != nil {
		log.Fatal(err)
	}

	handler := serve.NewHandler(mgr, serve.ServerInfo{Version: version, Now: time.Now})
	srv := serve.NewServer(*addr, handler)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("%s: %d shard(s) of %d nodes (mode %s), serving on %s (metrics at /metrics)",
		version, *shards, *nodes, base.Mode, *addr)

	select {
	case <-ctx.Done():
		log.Print("signal received, shutting down")
	case err := <-errc:
		log.Printf("HTTP server failed: %v", err)
		mgr.Stop()
		os.Exit(1)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("HTTP shutdown: %v", err)
	}
	mgr.Stop()
	for _, st := range mgr.Stats() {
		log.Printf("shard %s: epoch %d, %d queries served, cost vs flooding %.1f%%",
			st.ID, st.Epoch, st.QueriesServed, st.CostFraction*100)
	}
	log.Print("bye")
}
