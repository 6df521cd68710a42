package sensordata

import (
	"math"
	"slices"

	"repro/internal/topology"
)

// This file implements the escape-time calendar that makes ActiveSweep
// O(active + due) per epoch instead of O(N·types).
//
// The idea: every refutation already computes a conservative bracket
// [vlo, vhi] around a node's possible reading and a margin to its window.
// The bracket can only widen as fast as the per-type "motion budget"
// escA — a monotone accumulator of the same per-epoch bounds the sweep
// predicate uses (plume motion + worst-case AR(1) noise delta + diurnal
// delta). A node refuted with margin m therefore cannot become active
// before escA has grown by m, so we schedule its next examination at the
// absolute threshold T = escA + m − safety and park it in a bucketed
// calendar. Each epoch the sweep examines only nodes whose threshold has
// arrived (plus anything explicitly dirtied), applying the *exact* same
// float expression the full scan used — so the active set, and therefore
// every downstream byte of protocol output, is unchanged.
//
// Soundness sketch: with no re-evaluation between the scheduling epoch s
// and a later epoch e, the predicate's clamped bracket endpoints move by
// at most ΔA = escA(e) − escA(s): the centre c moves by the day delta plus
// the node's noise delta (both ≤ their accumulated per-epoch bounds) and
// dev grows by the plume motion bound; clamping is a contraction
// (max(a−d, L) ≥ max(a, L) − d). Re-evaluations of a scheduled-quiet node
// only tighten the bracket around the true value, adding at most the 1e-9
// sweep slop per re-eval; the per-type safety term absorbs those slops
// plus float drift in the accumulator itself.

// escBuckets is the calendar ring size: thresholds further than
// escBuckets buckets ahead are clamped to the horizon, which only causes
// a harmlessly early re-examination every escBuckets buckets.
const escBuckets = 256

// escAllMask has every sensor type's bit set.
const escAllMask = uint8(1<<NumTypes) - 1

// escSafetyMargins is the per-type slack subtracted from a refutation's
// margin before scheduling: it covers accumulated float drift between the
// exact predicate arithmetic and the escA bound, plus the 1e-9 slop each
// re-evaluation can introduce. Margins at or below it mean "due next
// epoch".
var escSafetyMargins = func() [NumTypes]float64 {
	var m [NumTypes]float64
	for _, t := range allTypes {
		m[t] = 1e-5 * (1 + t.SpanWidth())
	}
	return m
}()

// escCalendar is one sensor type's bucketed deadline ring. Entries are
// nodes linked intrusively (next/prev/bucketOf are node-indexed), so
// scheduling and draining never allocate.
type escCalendar struct {
	bw       float64 // A-space width of one bucket
	lastJ    int64   // highest absolute bucket index drained so far
	head     [escBuckets]int32
	next     []int32
	prev     []int32
	bucketOf []int32 // ring slot a node is linked in; -1 = unlinked
}

// push links node i into ring slot s (unlinking it first if needed).
func (c *escCalendar) push(i int, s int32) {
	if c.bucketOf[i] >= 0 {
		c.unlink(i)
	}
	h := c.head[s]
	c.next[i] = h
	c.prev[i] = -1
	if h >= 0 {
		c.prev[h] = int32(i)
	}
	c.head[s] = int32(i)
	c.bucketOf[i] = s
}

// unlink removes node i from whatever slot it is linked in, if any.
func (c *escCalendar) unlink(i int) {
	s := c.bucketOf[i]
	if s < 0 {
		return
	}
	if p := c.prev[i]; p >= 0 {
		c.next[p] = c.next[i]
	} else {
		c.head[s] = c.next[i]
	}
	if n := c.next[i]; n >= 0 {
		c.prev[n] = c.prev[i]
	}
	c.bucketOf[i] = -1
}

// escInit sizes and resets the calendar state for a freshly built
// generator: everything starts due, so the first sweep examines every
// node once (exactly what the pre-calendar full scan did).
func (g *Generator) escInit() {
	n := len(g.positions)
	g.nextT = make([]float64, int(NumTypes)*n)
	g.dueNodes = make([]int32, 0, n)
	g.prevDue = make([]int32, 0, n)
	g.prevMask = make([]uint8, 0, n)
	g.dueMask = make([]uint8, n)
	g.dueStamp = make([]int64, n)
	for i := range g.dueStamp {
		g.dueStamp[i] = -1
	}
	g.escEpoch = -1
	g.escAllDue = true
	for _, t := range AllTypes() {
		f := g.fields[t]
		f.lastDay = f.dayAt(0)
		cal := &g.esc[t]
		cal.next = make([]int32, n)
		cal.prev = make([]int32, n)
		cal.bucketOf = make([]int32, n)
		for i := 0; i < n; i++ {
			cal.next[i], cal.prev[i], cal.bucketOf[i] = -1, -1, -1
		}
		for s := range cal.head {
			cal.head[s] = -1
		}
		cal.bw = g.escBW(t)
	}
}

// escInvalidate flushes the whole calendar: every (node, type) becomes
// due at the next sweep and the bucket widths are re-derived from the
// (possibly changed) field parameters. Called on any event that can
// rewrite windows or field dynamics out from under recorded margins.
func (g *Generator) escInvalidate() {
	g.escAllDue = true
	g.escEpoch = -1 // re-drain even if a sweep already ran this epoch
	g.forced = g.forced[:0]
	for _, t := range AllTypes() {
		f := g.fields[t]
		// Re-anchor the diurnal delta baseline under the current params so
		// the first post-change step accumulates the true day movement.
		f.lastDay = f.dayAt(g.epoch)
		cal := &g.esc[t]
		for s := range cal.head {
			cal.head[s] = -1
		}
		for i := range cal.bucketOf {
			cal.bucketOf[i] = -1
		}
		cal.bw = g.escBW(t)
		cal.lastJ = int64(f.escA / cal.bw)
	}
}

// escBW estimates one type's typical per-epoch escA growth — the bucket
// resolution. Only scheduling granularity depends on it, never
// correctness, so a static analytic estimate is fine.
func (g *Generator) escBW(t Type) float64 {
	f := g.fields[t]
	p := f.params
	est := 0.0
	// Expected per-plume motion bound: mean displacement of a 2D Gaussian
	// step is DriftStep·sqrt(pi/2), times the steepest-slope factor.
	const meanChi2 = 1.2533141373155003
	for _, pl := range f.plumes {
		amp := math.Abs(pl.amp)
		b := amp
		if pl.sigma > 0 {
			if s := meanChi2 * p.DriftStep * maxPlumeSlope / pl.sigma * amp; s < b {
				b = s
			}
		}
		est += b
	}
	n := len(g.positions)
	if n < 2 {
		n = 2
	}
	// Worst-of-N AR(1) innovation per epoch ~ sigma·sqrt(2 ln N).
	est += p.NoiseSigma * (1 + math.Sqrt(2*math.Log(float64(n))))
	if p.PeriodEpoch > 0 {
		est += p.DiurnalAmp * 2 * math.Pi / float64(p.PeriodEpoch)
	}
	if est < 1e-12 {
		est = 1e-12
	}
	return est
}

// MarkWindowDirty schedules a node for re-examination (all types) at the
// next sweep, regardless of any recorded refutation margin. Callers must
// invoke it whenever they rewrite a node's sweep windows outside the
// sweep→sample→refresh cycle (joining, parking, reconfiguration); windows
// of nodes the previous sweep reported active may change freely.
func (g *Generator) MarkWindowDirty(id topology.NodeID) {
	if g.escAllDue {
		return
	}
	g.forced = append(g.forced, int32(id))
}

// InvalidateWindows forces every (node, type) pair to be re-examined at
// the next sweep without discarding evaluation snapshots. Use it after a
// bulk window rewrite (e.g. a global retune).
func (g *Generator) InvalidateWindows() {
	g.escInvalidate()
}

// escMarkDue adds the given type bits of node i to this epoch's due set.
func (g *Generator) escMarkDue(i int, bits uint8, epoch int64) {
	if g.dueStamp[i] != epoch {
		g.dueStamp[i] = epoch
		g.dueMask[i] = 0
		g.dueNodes = append(g.dueNodes, int32(i))
	}
	g.dueMask[i] |= bits
}

// escDrain computes the current epoch's due set: the previous due set is
// routed into calendar buckets (or kept due) per the thresholds the exams
// recorded, dirtied nodes are forced due, and every bucket whose deadline
// the motion accumulator has passed is drained. Runs once per epoch — the
// first sweep triggers it; later sweeps of the epoch only read.
func (g *Generator) escDrain() {
	if g.escEpoch == g.epoch {
		return
	}
	g.escEpoch = g.epoch
	n := len(g.positions)
	epoch := g.epoch
	g.dueNodes = g.dueNodes[:0]
	if g.escAllDue {
		g.escAllDue = false
		g.forced = g.forced[:0]
		for i := 0; i < n; i++ {
			g.dueStamp[i] = epoch
			g.dueMask[i] = escAllMask
			g.dueNodes = append(g.dueNodes, int32(i))
		}
		nan := math.NaN()
		for k := range g.nextT {
			g.nextT[k] = nan
		}
		g.prevDue = append(g.prevDue[:0], g.dueNodes...)
		g.prevMask = g.prevMask[:0]
		for range g.dueNodes {
			g.prevMask = append(g.prevMask, escAllMask)
		}
		return
	}
	// Dirtied nodes: due now for every type, and out of the buckets so a
	// later placement can never double-link them.
	for _, id := range g.forced {
		i := int(id)
		for _, t := range AllTypes() {
			g.esc[t].unlink(i)
		}
		g.escMarkDue(i, escAllMask, epoch)
	}
	g.forced = g.forced[:0]
	// Placement: route the previous due set per the recorded thresholds.
	// NaN means the exam never ran (caller swept a subset of types) — stay
	// due; +Inf means the window is unreachable — parked until dirtied.
	for p, id := range g.prevDue {
		i := int(id)
		pm := g.prevMask[p]
		for _, t := range AllTypes() {
			bit := uint8(1) << uint(t)
			if pm&bit == 0 {
				continue
			}
			if g.dueStamp[i] == epoch && g.dueMask[i]&bit != 0 {
				continue // already forced due this epoch
			}
			T := g.nextT[int(t)*n+i]
			if math.IsInf(T, 1) {
				continue
			}
			if math.IsNaN(T) {
				g.escMarkDue(i, bit, epoch)
				continue
			}
			cal := &g.esc[t]
			j := int64(T / cal.bw)
			if j <= cal.lastJ {
				g.escMarkDue(i, bit, epoch)
				continue
			}
			if j >= cal.lastJ+escBuckets {
				j = cal.lastJ + escBuckets - 1
			}
			cal.push(i, int32(j%escBuckets))
		}
	}
	// Advance each type's calendar to its accumulator and drain every
	// bucket whose deadline has arrived.
	for _, t := range AllTypes() {
		cal := &g.esc[t]
		bit := uint8(1) << uint(t)
		j1 := int64(g.fields[t].escA / cal.bw)
		if j1 <= cal.lastJ {
			continue
		}
		lo := cal.lastJ + 1
		if j1-cal.lastJ > escBuckets {
			lo = j1 - escBuckets + 1
		}
		for j := lo; j <= j1; j++ {
			slot := int32(j % escBuckets)
			for id := cal.head[slot]; id >= 0; {
				nxt := cal.next[id]
				cal.bucketOf[id] = -1
				g.escMarkDue(int(id), bit, epoch)
				id = nxt
			}
			cal.head[slot] = -1
		}
		cal.lastJ = j1
	}
	slices.Sort(g.dueNodes)
	// Mark every due (node, type) unexamined; exams overwrite the mark
	// with the next threshold, and anything still NaN next drain stays
	// due.
	nan := math.NaN()
	for _, id := range g.dueNodes {
		i := int(id)
		m := g.dueMask[i]
		for _, t := range AllTypes() {
			if m&(1<<uint(t)) != 0 {
				g.nextT[int(t)*n+i] = nan
			}
		}
	}
	g.prevDue = append(g.prevDue[:0], g.dueNodes...)
	g.prevMask = g.prevMask[:0]
	for _, id := range g.dueNodes {
		g.prevMask = append(g.prevMask, g.dueMask[id])
	}
}
