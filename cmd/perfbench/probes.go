package main

import (
	"time"

	"repro/internal/lmac"
	"repro/internal/sim"
)

// Probe priorities. The engine runs a ticker before heap events of equal
// priority, so each probe fires after all work of lower priority within
// the epoch and before the work it fences:
//
//	-1  before core.Protocol.RunEpoch (ticker at lmac.PrioApp)
//	 1  after the epoch, before the workload's query injection (PrioApp+1)
//	 2  after injection, before the MAC frame (ticker at lmac.PrioMAC)
//	11  after the frame and its deliveries, before the metric sampling
//	    events (lmac.PrioMetrics)
//	21  after metric sampling: the end of the epoch
//
// Nothing in the simulation schedules at other priorities, so the four
// bands partition each epoch's work exactly.
const (
	prioEpoch   = lmac.PrioApp - 1
	prioInject  = lmac.PrioApp + 1
	prioFrame   = lmac.PrioApp + 2
	prioMetrics = lmac.PrioMAC + 1
	prioEnd     = lmac.PrioMetrics + 1
)

// probeCount is the number of tickers one bandProbe registers; the traced
// runs subtract them from the engine's event counts.
const probeCount = 5

// bandProbe accumulates the wall time of each epoch band. It is touched
// only from the goroutine driving its engine.
type bandProbe struct {
	mark    time.Time
	epochs  int64
	core    time.Duration // RunEpoch: field step, sweep, calendar, apply
	inject  time.Duration // workload draw, ground truth, InjectQuery, flood cost
	frame   time.Duration // TDMA frame, radio delivery, core receive handlers
	metrics time.Duration // scenario's per-bucket sampling
}

// attach registers the probe's tickers on e. It must run before the
// engine starts executing (the engine refuses tickers from inside a
// handler).
func (p *bandProbe) attach(e *sim.Engine) {
	e.AddTicker(prioEpoch, func() {
		p.mark = time.Now()
		p.epochs++
	})
	e.AddTicker(prioInject, func() { p.lap(&p.core) })
	e.AddTicker(prioFrame, func() { p.lap(&p.inject) })
	e.AddTicker(prioMetrics, func() { p.lap(&p.frame) })
	e.AddTicker(prioEnd, func() { p.lap(&p.metrics) })
}

// lap charges the time since the previous probe to band and restarts the
// clock.
func (p *bandProbe) lap(band *time.Duration) {
	now := time.Now()
	*band += now.Sub(p.mark)
	p.mark = now
}

// add folds another probe's totals into p.
func (p *bandProbe) add(q *bandProbe) {
	p.epochs += q.epochs
	p.core += q.core
	p.inject += q.inject
	p.frame += q.frame
	p.metrics += q.metrics
}

// total is the wall time the bands cover.
func (p *bandProbe) total() time.Duration {
	return p.core + p.inject + p.frame + p.metrics
}
