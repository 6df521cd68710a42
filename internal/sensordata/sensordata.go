package sensordata

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Type identifies one of the four sensor types in the evaluation.
type Type int

// The four sensor types.
const (
	Temperature Type = iota
	Humidity
	Light
	SoilMoisture
	NumTypes
)

// String returns the sensor type name.
func (t Type) String() string {
	switch t {
	case Temperature:
		return "temperature"
	case Humidity:
		return "humidity"
	case Light:
		return "light"
	case SoilMoisture:
		return "soil-moisture"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// allTypes backs AllTypes so the hot per-epoch loops can enumerate types
// without allocating.
var allTypes = []Type{Temperature, Humidity, Light, SoilMoisture}

// AllTypes returns the four sensor types in order. The returned slice is
// shared and must not be modified.
func AllTypes() []Type {
	return allTypes
}

// Span returns the physical value range of the sensor type. The DirQ
// threshold δ is expressed as a percentage of this span.
func (t Type) Span() (min, max float64) {
	switch t {
	case Temperature:
		return -10, 40 // °C
	case Humidity:
		return 0, 100 // %RH
	case Light:
		return 0, 1000 // lux (scaled)
	case SoilMoisture:
		return 0, 60 // volumetric %
	default:
		return 0, 1
	}
}

// SpanWidth returns max - min of the type's physical range.
func (t Type) SpanWidth() float64 {
	lo, hi := t.Span()
	return hi - lo
}

// FieldParams tunes the synthetic field for one sensor type.
type FieldParams struct {
	Base        float64 // resting field level
	DiurnalAmp  float64 // amplitude of the day/night sinusoid
	PeriodEpoch int     // epochs per simulated day
	Plumes      int     // number of moving Gaussian plumes
	PlumeAmp    float64 // peak plume amplitude
	PlumeSigma  float64 // plume spatial stddev (same units as positions)
	DriftStep   float64 // plume centre random-walk step per epoch
	NoiseSigma  float64 // per-node AR(1) innovation stddev
	NoisePhi    float64 // AR(1) coefficient in [0,1)
	// BiasSigma is the stddev of each node's static microclimate offset
	// (shade, aspect, soil composition). It creates the persistent
	// node-to-node value diversity range queries discriminate on, without
	// adding temporal volatility.
	BiasSigma float64
}

// DefaultParams returns field parameters that keep each type's values well
// inside its physical span while exhibiting clear spatial and temporal
// structure.
func DefaultParams(t Type) FieldParams {
	switch t {
	case Temperature:
		return FieldParams{Base: 15, DiurnalAmp: 2.5, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 10, PlumeSigma: 20, DriftStep: 0.15, NoiseSigma: 0.025, NoisePhi: 0.9,
			BiasSigma: 6}
	case Humidity:
		return FieldParams{Base: 55, DiurnalAmp: 4, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 16, PlumeSigma: 25, DriftStep: 0.15, NoiseSigma: 0.06, NoisePhi: 0.9,
			BiasSigma: 12}
	case Light:
		return FieldParams{Base: 420, DiurnalAmp: 120, PeriodEpoch: 1000, Plumes: 3,
			PlumeAmp: 180, PlumeSigma: 18, DriftStep: 0.25, NoiseSigma: 0.6, NoisePhi: 0.85,
			BiasSigma: 110}
	case SoilMoisture:
		return FieldParams{Base: 28, DiurnalAmp: 1.5, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 10, PlumeSigma: 20, DriftStep: 0.08, NoiseSigma: 0.02, NoisePhi: 0.95,
			BiasSigma: 7}
	default:
		return FieldParams{Base: 0.5, DiurnalAmp: 0.1, PeriodEpoch: 1000, Plumes: 1,
			PlumeAmp: 0.2, PlumeSigma: 20, DriftStep: 0.3, NoiseSigma: 0.01, NoisePhi: 0.9}
	}
}

// plume is one moving Gaussian hotspot.
type plume struct {
	x, y  float64
	amp   float64
	sigma float64
}

// typeField is the per-sensor-type field state.
type typeField struct {
	params FieldParams
	plumes []plume
	phase  float64 // random diurnal phase offset
	noise  []float64
	bias   []float64 // static per-node microclimate offsets
	rng    *sim.RNG
	width  float64
	height float64

	// Lazy-evaluation state: the diurnal term cached per epoch, and the
	// running sum of conservative per-epoch bounds on how much the plume
	// component of *any* node's value can have moved (see Step).
	dayEpoch int64 // epoch dayVal is valid for; -1 = stale
	dayVal   float64
	cumBound float64

	// Escape-calendar state (see escape.go): escA is the monotone
	// accumulator bounding how much ANY node's value can have moved in
	// total (plume motion + worst-case noise delta + diurnal delta);
	// lastDay is the previous epoch's diurnal term, the baseline for the
	// diurnal delta.
	escA    float64
	lastDay float64
}

// dayAt computes the type's diurnal term for an epoch from scratch.
func (f *typeField) dayAt(epoch int64) float64 {
	if f.params.PeriodEpoch <= 0 {
		return 0
	}
	return f.params.DiurnalAmp *
		math.Sin(2*math.Pi*float64(epoch)/float64(f.params.PeriodEpoch)+f.phase)
}

// day returns the type's diurnal term for the given epoch, cached so the
// per-node paths pay one sin per type per epoch at most.
func (f *typeField) day(epoch int64) float64 {
	if f.dayEpoch != epoch {
		f.dayEpoch = epoch
		f.dayVal = f.dayAt(epoch)
	}
	return f.dayVal
}

// Generator produces the dataset epoch by epoch. It is deterministic given
// its seed stream and must be advanced strictly sequentially with Step.
//
// Values are evaluated lazily: Step advances the field *state* (plume
// positions, per-node AR(1) noise — consuming exactly the same RNG draws
// as always, so determinism is untouched) while the expensive per-node
// field evaluation happens only when a value is actually read. Together
// with ActiveSweep this makes a quiescent network's per-epoch cost
// independent of the plume math: nodes whose reading provably cannot have
// left their hysteresis window are never evaluated at all.
type Generator struct {
	positions []topology.Position
	fields    [NumTypes]*typeField
	epoch     int64
	values    [][NumTypes]float64 // last evaluated value per node per type

	// Per (type, node) lazy-evaluation records, indexed t*N + i.
	stamp     []int64   // epoch values[i][t] was evaluated at
	snapPlume []float64 // plume-sum component recorded at that evaluation
	snapCum   []float64 // cumBound at that evaluation; -Inf = no usable snapshot
	evals     uint64    // total per-(node, type) field evaluations

	// Escape-calendar state (see escape.go). nextT[t*N+i] is the escA
	// threshold at which (node i, type t) must be re-examined: NaN = due
	// but not yet examined, +Inf = never (until dirtied). The due set is
	// recomputed once per epoch by escDrain and shared by every sweep of
	// that epoch.
	nextT     []float64
	esc       [NumTypes]escCalendar
	escEpoch  int64 // epoch the due set below is valid for
	escAllDue bool  // next drain marks everything due
	forced    []int32
	dueNodes  []int32 // this epoch's due set, ascending
	dueStamp  []int64 // per node: epoch it was last marked due
	dueMask   []uint8 // per node: due type bits (valid when stamp matches)
	prevDue   []int32 // previous drain's due set (compact)
	prevMask  []uint8 // previous drain's due bits, parallel to prevDue

	tel Telemetry
}

// Telemetry is the generator's instrument set. All fields may be nil (the
// instruments are nil-safe); the counters mirror bookkeeping the generator
// already does and never influence field evolution or RNG draws.
type Telemetry struct {
	// Evals counts per-(node, type) field evaluations — the expensive
	// plume math the lazy layer tries to avoid.
	Evals *telemetry.Counter
	// SweepHits counts nodes ActiveSweep could NOT prove quiet (appended
	// to the worklist).
	SweepHits *telemetry.Counter
	// SweepRefutes counts nodes ActiveSweep examined and proved quiet.
	// With the escape calendar, nodes whose deadline has not arrived are
	// skipped without being examined or counted, so on a quiescent epoch
	// this stays O(active set), not O(N).
	SweepRefutes *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the generator's
// instruments.
func (g *Generator) SetTelemetry(t Telemetry) { g.tel = t }

// NewGenerator builds a generator for the given node positions. The area
// bounds are inferred from the positions. The rng should be a dedicated
// stream (e.g. root.Stream("data")).
func NewGenerator(positions []topology.Position, rng *sim.RNG) *Generator {
	var w, h float64
	for _, p := range positions {
		if p.X > w {
			w = p.X
		}
		if p.Y > h {
			h = p.Y
		}
	}
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	g := &Generator{
		positions: append([]topology.Position(nil), positions...),
		values:    make([][NumTypes]float64, len(positions)),
		stamp:     make([]int64, len(positions)*int(NumTypes)),
		snapPlume: make([]float64, len(positions)*int(NumTypes)),
		snapCum:   make([]float64, len(positions)*int(NumTypes)),
	}
	for i := range g.stamp {
		g.stamp[i] = -1
		g.snapCum[i] = math.Inf(-1) // no snapshot yet: nothing provable
	}
	for _, t := range AllTypes() {
		p := DefaultParams(t)
		f := &typeField{
			params:   p,
			phase:    rng.StreamN("phase", int(t)).Float64() * 2 * math.Pi,
			noise:    make([]float64, len(positions)),
			bias:     make([]float64, len(positions)),
			rng:      rng.StreamN("field", int(t)),
			width:    w,
			height:   h,
			dayEpoch: -1,
		}
		// The microclimate bias is itself spatially structured: a static
		// landscape of Gaussian bumps plus a small independent component,
		// so nearby nodes stay "spatially related" (§7) while distant nodes
		// differ persistently.
		if p.BiasSigma > 0 {
			type bump struct{ x, y, amp, sigma float64 }
			var bumps []bump
			for i := 0; i < 4; i++ {
				sign := 1.0
				if f.rng.Bool(0.5) {
					sign = -1
				}
				bumps = append(bumps, bump{
					x: f.rng.Range(0, w), y: f.rng.Range(0, h),
					amp:   sign * p.BiasSigma * f.rng.Range(1.2, 2.2),
					sigma: f.rng.Range(0.15, 0.35) * (w + h) / 2,
				})
			}
			for i, pos := range positions {
				v := f.rng.NormFloat64() * p.BiasSigma * 0.3
				for _, b := range bumps {
					dx, dy := pos.X-b.x, pos.Y-b.y
					v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
				}
				f.bias[i] = v
			}
		}
		for i := 0; i < p.Plumes; i++ {
			f.plumes = append(f.plumes, plume{
				x:     f.rng.Range(0, w),
				y:     f.rng.Range(0, h),
				amp:   p.PlumeAmp * f.rng.Range(0.6, 1.4),
				sigma: p.PlumeSigma * f.rng.Range(0.8, 1.2),
			})
		}
		g.fields[t] = f
	}
	g.escInit()
	g.compute()
	return g
}

// SetParams overrides the field parameters of one sensor type; values
// reflect the change from the current epoch on. It may be called mid-run —
// the run stays deterministic as long as the call happens at the same
// epoch across runs (scripted dynamics rely on this). Changing Plumes
// mid-run alters the per-epoch RNG consumption from that point, which is
// still deterministic but shifts every later draw.
func (g *Generator) SetParams(t Type, p FieldParams) {
	g.fields[t].params = p
	g.invalidate()
}

// invalidate discards every cached evaluation and quiescence snapshot — a
// field parameter changed, so previously proven bounds no longer hold.
func (g *Generator) invalidate() {
	negInf := math.Inf(-1)
	for k := range g.stamp {
		g.stamp[k] = -1
		g.snapCum[k] = negInf
	}
	for _, t := range AllTypes() {
		g.fields[t].dayEpoch = -1
	}
	g.escInvalidate()
}

// Params returns the current field parameters of one sensor type.
func (g *Generator) Params(t Type) FieldParams {
	return g.fields[t].params
}

// ShiftBase adds delta (in the type's physical units) to the resting field
// level of one sensor type — a regime shift: the whole field jumps and
// settles at the new level. Values recompute immediately; like SetParams
// it is deterministic when applied at a fixed epoch.
func (g *Generator) ShiftBase(t Type, delta float64) {
	g.fields[t].params.Base += delta
	g.invalidate()
}

// ScaleDynamics multiplies the temporal volatility of one sensor type —
// plume drift and AR(1) innovation amplitude — by factor. Factors above 1
// model accelerating drift (a storm front, failing sensors); below 1, a
// calming field. The RNG draw count per epoch is unchanged, so the other
// types' streams stay aligned.
func (g *Generator) ScaleDynamics(t Type, factor float64) {
	p := &g.fields[t].params
	p.DriftStep *= factor
	p.NoiseSigma *= factor
	g.invalidate()
}

// Epoch returns the current epoch (starting at 0).
func (g *Generator) Epoch() int64 { return g.epoch }

// NumNodes returns the number of nodes covered by the dataset.
func (g *Generator) NumNodes() int { return len(g.positions) }

// Value returns the current reading of a node for a sensor type, clamped
// to the type's physical span, evaluating the field for that node lazily.
func (g *Generator) Value(id topology.NodeID, t Type) float64 {
	i := int(id)
	if g.stamp[int(t)*len(g.positions)+i] != g.epoch {
		g.eval(i, t)
	}
	return g.values[i][t]
}

// Values returns the current readings of all nodes for one type, indexed by
// NodeID. The returned slice is freshly allocated.
func (g *Generator) Values(t Type) []float64 {
	out := make([]float64, len(g.values))
	for i := range g.values {
		out[i] = g.Value(topology.NodeID(i), t)
	}
	return out
}

// Evals returns the total number of per-(node, type) field evaluations
// performed so far — the work quiescence gating exists to avoid. Tests use
// it to prove that quiet windows cost nothing.
func (g *Generator) Evals() uint64 { return g.evals }

// maxPlumeSlope is the magnitude of a unit-amplitude Gaussian's steepest
// slope, attained one sigma from the centre: exp(-1/2)/sigma.
const maxPlumeSlope = 0.6065306597126334

// Step advances the dataset by one epoch: plume centres drift, the diurnal
// phase advances, and per-node AR(1) noise evolves. Values are NOT
// recomputed here; each type's cumulative plume-motion bound grows by how
// much this epoch's drift can possibly have changed any node's plume sum,
// which is what lets ActiveSweep refute hysteresis escapes without
// evaluating the field.
func (g *Generator) Step() {
	g.epoch++
	for _, t := range AllTypes() {
		f := g.fields[t]
		p := f.params
		motion := 0.0
		for i := range f.plumes {
			pl := &f.plumes[i]
			ox, oy := pl.x, pl.y
			pl.x += f.rng.NormFloat64() * p.DriftStep
			pl.y += f.rng.NormFloat64() * p.DriftStep
			// Reflect at the area boundary so plumes stay in play.
			pl.x = reflect(pl.x, f.width)
			pl.y = reflect(pl.y, f.height)
			// Conservative bound on this plume's contribution change at any
			// position: displacement times the Gaussian's steepest slope,
			// capped at the full amplitude. Reflection is a contraction, so
			// the realized displacement is what matters.
			amp := math.Abs(pl.amp)
			b := amp
			if pl.sigma > 0 {
				dx, dy := pl.x-ox, pl.y-oy
				if s := math.Sqrt(dx*dx+dy*dy) * maxPlumeSlope / pl.sigma * amp; s < b {
					b = s
				}
			}
			motion += b
		}
		maxNoiseDelta := 0.0
		for i := range f.noise {
			old := f.noise[i]
			nv := p.NoisePhi*old + f.rng.NormFloat64()*p.NoiseSigma
			f.noise[i] = nv
			if d := math.Abs(nv - old); d > maxNoiseDelta {
				maxNoiseDelta = d
			}
		}
		f.cumBound += motion
		// Grow the escape accumulator by this epoch's total motion budget and
		// eagerly seed the diurnal cache (same deterministic value the lazy
		// fill would compute).
		nd := f.dayAt(g.epoch)
		f.escA += motion + maxNoiseDelta + math.Abs(nd-f.lastDay)
		f.lastDay = nd
		f.dayEpoch = g.epoch
		f.dayVal = nd
	}
}

// reflect folds v back into [0, limit].
func reflect(v, limit float64) float64 {
	for v < 0 || v > limit {
		if v < 0 {
			v = -v
		}
		if v > limit {
			v = 2*limit - v
		}
	}
	return v
}

// eval computes one node's value for one type at the current epoch — the
// exact arithmetic the former eager per-epoch sweep used — and records the
// quiescence snapshot (plume component and cumulative-bound watermark).
func (g *Generator) eval(i int, t Type) {
	f := g.fields[t]
	day := f.day(g.epoch)
	lo, hi := t.Span()
	pos := g.positions[i]
	base := f.params.Base + day + f.noise[i] + f.bias[i]
	v := base
	for _, pl := range f.plumes {
		dx, dy := pos.X-pl.x, pos.Y-pl.y
		v += pl.amp * math.Exp(-(dx*dx+dy*dy)/(2*pl.sigma*pl.sigma))
	}
	k := int(t)*len(g.positions) + i
	g.snapPlume[k] = v - base
	g.snapCum[k] = f.cumBound
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	g.values[i][t] = v
	g.stamp[k] = g.epoch
	g.evals++
	g.tel.Evals.Inc()
}

// compute eagerly evaluates every node for every type (generator
// construction; everything after is lazy).
func (g *Generator) compute() {
	for _, t := range AllTypes() {
		for i := range g.positions {
			g.eval(i, t)
		}
	}
}

// ActiveSweep appends to dst the IDs of nodes whose current-epoch reading
// for type t cannot be *proven* to lie inside the caller's per-node window
// [lo[i], hi[i]] — for the DirQ protocol, the node's own hysteresis tuple.
// The proof is conservative and O(1) per node: the diurnal, noise and bias
// terms are exact (the generator evolves them every epoch anyway), only
// the plume sum is bracketed by the cumulative motion bound accumulated
// since the node's last evaluation, and the bracket is clamped to the
// physical span exactly like real readings. Sentinel windows compose
// naturally: (+Inf, -Inf) is always swept out (evaluate every epoch),
// (-Inf, +Inf) never is (unmounted or dead nodes).
//
// A node missing from the result is guaranteed to read a value inside its
// window this epoch, so skipping its hysteresis check is behaviour-
// preserving, not an approximation.
//
// The sweep consumes the escape calendar (see escape.go): only nodes
// whose re-examination deadline has arrived are examined, with the exact
// predicate the full scan used, so the result is byte-identical while the
// per-epoch cost is O(active + due). This imposes a window-stability
// contract: between sweeps, callers may rewrite windows only for nodes
// the previous sweep reported active (the usual sweep→sample→refresh
// cycle), or must announce the rewrite with MarkWindowDirty /
// InvalidateWindows.
func (g *Generator) ActiveSweep(t Type, lo, hi []float64, dst []int32) []int32 {
	g.escDrain()
	f := g.fields[t]
	n := len(g.positions)
	base := f.params.Base + f.day(g.epoch)
	// Tiny absolute margin so float rounding in the reconstruction can
	// never flip a knife-edge case to a false "quiet".
	cum := f.cumBound + 1e-9
	spanLo, spanHi := t.Span()
	noise, bias := f.noise, f.bias
	snapP := g.snapPlume[int(t)*n : int(t)*n+n]
	snapC := g.snapCum[int(t)*n : int(t)*n+n]
	nextT := g.nextT[int(t)*n : int(t)*n+n]
	A := f.escA
	safety := escSafetyMargins[t]
	bit := uint8(1) << uint(t)
	start := len(dst)
	examined := 0
	for _, id := range g.dueNodes {
		if g.dueMask[id]&bit == 0 {
			continue
		}
		examined++
		i := int(id)
		dev := cum - snapC[i]
		c := base + noise[i] + bias[i] + snapP[i]
		vlo, vhi := c-dev, c+dev
		if vlo < spanLo {
			vlo = spanLo
		}
		if vhi > spanHi {
			vhi = spanHi
		}
		if vlo < lo[i] || vhi > hi[i] {
			dst = append(dst, int32(i))
			nextT[i] = A // active: re-examine next epoch
		} else {
			m := vlo - lo[i]
			if d := hi[i] - vhi; d < m {
				m = d
			}
			// m is +Inf for unreachable windows: parked until dirtied.
			T := A + m - safety
			if !(T > A) {
				T = A
			}
			nextT[i] = T
		}
	}
	hits := len(dst) - start
	g.tel.SweepHits.Add(int64(hits))
	g.tel.SweepRefutes.Add(int64(examined - hits))
	return dst
}

// Volatility is an EWMA estimator of a signal's mean absolute per-epoch
// change — the "rate of variation of the measured physical parameter" that
// drives the ATC (§6). The zero value is ready to use with DefaultAlpha.
type Volatility struct {
	alpha   float64
	mean    float64
	last    float64
	started bool
}

// DefaultAlpha is the EWMA smoothing factor used when none is set.
const DefaultAlpha = 0.05

// NewVolatility returns an estimator with the given smoothing factor in
// (0, 1].
func NewVolatility(alpha float64) *Volatility {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("sensordata: EWMA alpha %v outside (0,1]", alpha))
	}
	return &Volatility{alpha: alpha}
}

// Observe feeds the next sample of the signal.
func (v *Volatility) Observe(x float64) {
	if v.alpha == 0 {
		v.alpha = DefaultAlpha
	}
	if !v.started {
		v.started = true
		v.last = x
		return
	}
	d := math.Abs(x - v.last)
	v.last = x
	v.mean = (1-v.alpha)*v.mean + v.alpha*d
}

// MeanAbsDelta returns the smoothed mean absolute per-sample change.
func (v *Volatility) MeanAbsDelta() float64 { return v.mean }

// TypeSet is the set of sensor types mounted on one node.
type TypeSet uint8

// Has reports whether the set contains t.
func (s TypeSet) Has(t Type) bool { return s&(1<<uint(t)) != 0 }

// With returns the set extended with t.
func (s TypeSet) With(t Type) TypeSet { return s | (1 << uint(t)) }

// Without returns the set with t removed.
func (s TypeSet) Without(t Type) TypeSet { return s &^ (1 << uint(t)) }

// typeSetMembers caches the member list of every possible TypeSet, so
// Types — called per node per epoch on the hot simulation path — never
// allocates.
var typeSetMembers = func() [1 << NumTypes][]Type {
	var table [1 << NumTypes][]Type
	for s := range table {
		var members []Type
		for _, t := range allTypes {
			if TypeSet(s).Has(t) {
				members = append(members, t)
			}
		}
		table[s] = members
	}
	return table
}()

// Types lists the members in order. The returned slice is shared and must
// not be modified.
func (s TypeSet) Types() []Type {
	return typeSetMembers[s&(1<<NumTypes-1)]
}

// Len returns the number of types in the set.
func (s TypeSet) Len() int {
	n := 0
	for _, t := range AllTypes() {
		if s.Has(t) {
			n++
		}
	}
	return n
}

// AllTypeSet returns the set containing every sensor type.
func AllTypeSet() TypeSet {
	var s TypeSet
	for _, t := range AllTypes() {
		s = s.With(t)
	}
	return s
}

// AssignTypes gives every node (except the root, which is a pure sink) a
// random non-empty subset of sensor types: each type is mounted with
// probability p. This produces the heterogeneous deployments of §4.1/Fig. 4.
func AssignTypes(n int, p float64, rng *sim.RNG) []TypeSet {
	sets := make([]TypeSet, n)
	for i := 1; i < n; i++ {
		var s TypeSet
		for _, t := range AllTypes() {
			if rng.Bool(p) {
				s = s.With(t)
			}
		}
		if s == 0 {
			s = s.With(AllTypes()[rng.Intn(int(NumTypes))])
		}
		sets[i] = s
	}
	return sets
}

// AssignAllTypes mounts every sensor type on every node except the root —
// the homogeneous configuration used by the headline experiments.
func AssignAllTypes(n int) []TypeSet {
	sets := make([]TypeSet, n)
	for i := 1; i < n; i++ {
		sets[i] = AllTypeSet()
	}
	return sets
}
