package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/lmac"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// BudgetFunc computes the per-node hourly Update Message budget the root
// attaches to its EHr broadcast. The ATC package provides the real
// implementation; a nil func sends a zero budget (fixed-δ runs ignore it).
type BudgetFunc func(queriesPerHr int) float64

// ControllerFactory builds the threshold controller for one node.
type ControllerFactory func(id topology.NodeID) Controller

// SampleGate lets an energy-saving policy decide, per epoch, whether a
// node physically samples a sensor (the §8 extension: predictive sampling
// to cut acquisition cost). ShouldSample receives the node's current own
// tuple so the gate can tell whether a skipped reading could possibly have
// triggered a table change; OnSample feeds every real measurement back.
type SampleGate interface {
	ShouldSample(id topology.NodeID, t sensordata.Type, own Tuple, hasOwn bool) bool
	OnSample(id topology.NodeID, t sensordata.Type, v float64)
}

// Config parameterizes a Protocol instance.
type Config struct {
	// EpochsPerHour maps the paper's hourly estimate cycle onto epochs.
	EpochsPerHour int
	// MaxFanout and MaxDepth are the spanning-tree caps (the paper's k and
	// d), reused when re-attaching orphans after node deaths.
	MaxFanout int
	MaxDepth  int
	// Controllers builds each node's threshold controller.
	Controllers ControllerFactory
	// Budget computes the per-node update budget broadcast with EHr.
	Budget BudgetFunc
	// Sampler optionally gates physical sensor acquisitions (nil = sample
	// every epoch, the paper's §7 behaviour).
	Sampler SampleGate
	// Trace optionally receives protocol events (nil = no tracing).
	Trace func(TraceEvent)
	// PredictorAlpha smooths the root's hourly query-count forecast.
	PredictorAlpha float64
	// DisableGating forces the pre-gating epoch loop: every live node
	// evaluates every mounted sensor every epoch, regardless of controller
	// capabilities. The gated loop is proven equivalent, so this exists
	// only as the "naive" reference for tests and scale benchmarks.
	DisableGating bool
	// Telemetry optionally instruments the protocol. The zero value
	// disables all counters (every instrument is nil-safe); nothing here
	// reads back into protocol decisions.
	Telemetry Telemetry
}

// Telemetry is the protocol's instrument set. All fields may be nil.
type Telemetry struct {
	// Epochs counts RunEpoch invocations.
	Epochs *telemetry.Counter
	// ActiveNodes counts nodes processed across all epochs (the worklist
	// under gating; every live deployed node under the naive loop).
	ActiveNodes *telemetry.Counter
	// ActiveSetSize is the per-epoch distribution of worklist sizes.
	ActiveSetSize *telemetry.Histogram
	// TuplesSent counts Update Messages transmitted by all nodes.
	TuplesSent *telemetry.Counter
	// Retunes counts controllers that accepted a RetuneAll change.
	Retunes *telemetry.Counter
}

// DefaultConfig returns the paper-default parameters: 100 epochs per hour,
// k=8, d=10, fixed δ=5 %.
func DefaultConfig() Config {
	return Config{
		EpochsPerHour:  100,
		MaxFanout:      8,
		MaxDepth:       10,
		Controllers:    func(topology.NodeID) Controller { return &FixedController{Pct: 5} },
		PredictorAlpha: 0.3,
	}
}

// QueryRecord tracks one query's dissemination outcome against its
// ground truth at injection time.
type QueryRecord struct {
	Query      query.Query
	Truth      query.GroundTruth
	InjectedAt sim.Time
	Received   map[topology.NodeID]bool
	Sources    map[topology.NodeID]bool
}

// Protocol runs DirQ over a network: it owns the per-node state machines,
// binds them to the MAC, drives sensor acquisition each epoch, distributes
// hourly estimates, injects queries at the root, and repairs the tree on
// cross-layer death/join notifications.
type Protocol struct {
	engine  *sim.Engine
	mac     *lmac.MAC
	channel *radio.Channel
	tree    *topology.Tree
	gen     *sensordata.Generator
	mounted []sensordata.TypeSet
	cfg     Config

	nodes     []*Node
	records   map[int64]*QueryRecord
	order     []int64 // record insertion order
	predictor *query.Predictor

	estimateSeq int64
	emitted     []EstimateMsg
	deadSeen    map[topology.NodeID]bool
	orphaned    map[topology.NodeID]bool
	started     bool

	// updPool recycles Update Message boxes across all nodes: sender takes,
	// single unicast receiver returns.
	updPool updateMsgPool

	// hot is the flat per-node state driving the activity-gated epoch loop.
	hot hotState
}

// New wires a Protocol over an existing engine, MAC, tree and dataset.
func New(engine *sim.Engine, mac *lmac.MAC, channel *radio.Channel,
	tree *topology.Tree, gen *sensordata.Generator,
	mounted []sensordata.TypeSet, cfg Config) (*Protocol, error) {

	if cfg.EpochsPerHour < 1 {
		return nil, fmt.Errorf("core: EpochsPerHour %d < 1", cfg.EpochsPerHour)
	}
	if cfg.MaxFanout < 1 || cfg.MaxDepth < 1 {
		return nil, fmt.Errorf("core: invalid tree caps fanout=%d depth=%d", cfg.MaxFanout, cfg.MaxDepth)
	}
	if cfg.Controllers == nil {
		return nil, fmt.Errorf("core: Controllers factory is required")
	}
	if len(mounted) != gen.NumNodes() {
		return nil, fmt.Errorf("core: %d type sets for %d nodes", len(mounted), gen.NumNodes())
	}
	alpha := cfg.PredictorAlpha
	if alpha == 0 {
		alpha = 0.3
	}
	pred, err := query.NewPredictor(alpha)
	if err != nil {
		return nil, err
	}
	p := &Protocol{
		engine: engine, mac: mac, channel: channel, tree: tree, gen: gen,
		mounted: mounted, cfg: cfg,
		records: map[int64]*QueryRecord{}, predictor: pred,
		deadSeen: map[topology.NodeID]bool{}, orphaned: map[topology.NodeID]bool{},
	}
	// Node state is built in one pass over two backing arrays (all Node
	// structs, then all mounted Volatility estimators) instead of per-node
	// heap objects — at 100k nodes this is the difference between a
	// handful of allocations and half a million.
	p.nodes = make([]*Node, gen.NumNodes())
	backing := make([]Node, gen.NumNodes())
	nvol := 0
	for i := range backing {
		nvol += mounted[i].Len()
	}
	vols := make([]sensordata.Volatility, nvol) // zero value = DefaultAlpha
	vc := 0
	for i := range p.nodes {
		id := topology.NodeID(i)
		nd := &backing[i]
		nd.id = id
		nd.mounted = mounted[i]
		nd.ctrl = cfg.Controllers(id)
		nd.transport = mac
		nd.observer = p
		nd.lastEstimateSeq = -1
		for _, t := range mounted[i].Types() {
			nd.vol[t] = &vols[vc]
			vc++
		}
		nd.SetTrace(cfg.Trace)
		nd.msgPool = &p.updPool
		nd.telUpdates = cfg.Telemetry.TuplesSent
		p.nodes[i] = nd
	}
	// Tree wiring: parents and child lists.
	for _, id := range tree.Nodes() {
		if par, ok := tree.Parent(id); ok {
			p.nodes[id].SetParent(par, true)
			p.nodes[par].AddChild(id)
		}
	}
	// Hot-state wiring: gate capabilities, sweep windows, participation.
	p.hot.init(len(p.nodes), cfg.DisableGating)
	for i := range p.nodes {
		p.configureNode(i)
		if tree.Contains(topology.NodeID(i)) {
			p.hot.deployed[i] = true
		} else {
			p.hot.parkNode(i)
			p.gen.MarkWindowDirty(topology.NodeID(i))
		}
	}
	// MAC wiring: deliveries and cross-layer notifications.
	for i := range p.nodes {
		mac.Listen(topology.NodeID(i), p.nodes[i].HandleMessage)
	}
	mac.OnNeighborDead(p.onNeighborDead)
	mac.OnNeighborNew(func(at, fresh topology.NodeID) {})
	mac.Init()
	return p, nil
}

// Node returns the state machine of one node.
func (p *Protocol) Node(id topology.NodeID) *Node { return p.nodes[id] }

// Tree returns the current communication tree.
func (p *Protocol) Tree() *topology.Tree { return p.tree }

// OrphanCount returns the number of nodes currently orphaned — an O(1)
// alternative to len(Orphans()) for per-epoch health checks.
func (p *Protocol) OrphanCount() int { return len(p.orphaned) }

// Orphans returns nodes that lost their tree attachment and could not be
// re-attached, in ascending order.
func (p *Protocol) Orphans() []topology.NodeID {
	var out []topology.NodeID
	for id := range p.orphaned {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QueryReceived implements QueryObserver.
func (p *Protocol) QueryReceived(id topology.NodeID, queryID int64) {
	if r, ok := p.records[queryID]; ok {
		r.Received[id] = true
	}
}

// QuerySource implements QueryObserver.
func (p *Protocol) QuerySource(id topology.NodeID, queryID int64) {
	if r, ok := p.records[queryID]; ok {
		r.Sources[id] = true
	}
}

// Start registers the per-epoch application loop (sensor acquisition and
// hourly estimates) as an engine ticker, so the epoch drive costs no event-
// queue traffic. Call once, before running the engine; the MAC must be
// started separately.
func (p *Protocol) Start() {
	if p.started {
		panic("core: Protocol.Start called twice")
	}
	p.started = true
	p.engine.AddTicker(lmac.PrioApp, p.RunEpoch)
}

// RunEpoch performs one epoch of application work: every live node samples
// each of its mounted sensor types ("Each sensor acquires a reading every
// time unit", §7) and, on hour boundaries, the root emits its estimate.
// The data generator must have been advanced (or be at) the current epoch.
//
// The loop is activity-gated: a conservative per-type sweep (see
// sensordata.ActiveSweep) builds the epoch's worklist of nodes whose
// readings could possibly escape their hysteresis window; everyone else is
// provably unobservable this epoch — no field evaluation, no hysteresis
// check, no update decision — so per-epoch cost tracks activity rather
// than network size. Nodes whose controller consumes real volatility (the
// ATC), runs under a sample gate, or has no own tuple yet ride permanent
// always-active windows and take the exact classic path, which keeps every
// mode's outputs byte-identical to the ungated loop.
func (p *Protocol) RunEpoch() {
	now := p.engine.Now()
	if now > 0 {
		p.gen.Step()
	}
	p.cfg.Telemetry.Epochs.Inc()
	h := &p.hot
	if h.disabled {
		// The honest naive reference: the classic full sweep, with no
		// worklist bookkeeping at all, so -naive timing comparisons measure
		// the true pre-gating loop.
		p.runEpochNaive()
		if p.cfg.EpochsPerHour > 0 && now%sim.Time(p.cfg.EpochsPerHour) == 0 && now > 0 {
			p.emitEstimate()
		}
		return
	}
	// Build the worklist, node-major ascending so processing order — and
	// with it trace order and each node's MAC queue content — matches the
	// classic full sweep exactly.
	gen := int64(now) + 1
	active := h.active[:0]
	for _, t := range sensordata.AllTypes() {
		h.scratch = p.gen.ActiveSweep(t, h.lo[t], h.hi[t], h.scratch[:0])
		for _, i := range h.scratch {
			if h.stamp[i] != gen {
				h.stamp[i] = gen
				h.mask[i] = 0
				active = append(active, i)
			}
			h.mask[i] |= 1 << uint(t)
		}
	}
	h.active = active
	slices.Sort(active)
	p.cfg.Telemetry.ActiveSetSize.Observe(float64(len(active)))
	p.cfg.Telemetry.ActiveNodes.Add(int64(len(active)))

	for _, ai := range active {
		i := int(ai)
		id := topology.NodeID(i)
		if !p.channel.Alive(id) || !h.deployed[i] {
			continue
		}
		node := p.nodes[i]
		if h.gate[i] {
			mask := h.mask[i]
			for _, t := range node.Mounted().Types() {
				if mask&(1<<uint(t)) == 0 {
					continue
				}
				node.OnReading(t, p.gen.Value(id, t))
				p.refreshWindow(i, t)
			}
			continue // controller tick, if any, happens via tickList below
		}
		p.sampleNodeClassic(i) // ungated node: the classic per-node step
	}

	// Epoch clocks of gated controllers that still count epochs (the
	// static-index freeze schedule) keep ticking even on quiet epochs.
	for _, ti := range h.tickList {
		i := int(ti)
		id := topology.NodeID(i)
		if !p.channel.Alive(id) || !h.deployed[i] {
			continue
		}
		p.nodes[i].TickEpoch()
	}

	if p.cfg.EpochsPerHour > 0 && now%sim.Time(p.cfg.EpochsPerHour) == 0 && now > 0 {
		p.emitEstimate()
	}
}

// runEpochNaive is the pre-gating epoch body: every live deployed node
// samples every mounted type, every epoch, with no worklist bookkeeping.
func (p *Protocol) runEpochNaive() {
	processed := 0
	for i := range p.nodes {
		id := topology.NodeID(i)
		if !p.channel.Alive(id) {
			continue
		}
		if !p.tree.Contains(id) && !p.orphaned[id] {
			continue // not yet deployed
		}
		p.sampleNodeClassic(i)
		processed++
	}
	p.cfg.Telemetry.ActiveSetSize.Observe(float64(processed))
	p.cfg.Telemetry.ActiveNodes.Add(int64(processed))
}

// sampleNodeClassic is one node's classic epoch step — every mounted type
// read (through the optional sample gate), then the controller fed the
// node's volatility. Used for ungated nodes in the gated loop and for the
// whole network in the naive reference loop.
func (p *Protocol) sampleNodeClassic(i int) {
	id := topology.NodeID(i)
	node := p.nodes[i]
	for _, t := range node.Mounted().Types() {
		if p.cfg.Sampler != nil {
			var own Tuple
			hasOwn := false
			if rt := node.Table(t); rt != nil {
				own, hasOwn = rt.Own()
			}
			if !p.cfg.Sampler.ShouldSample(id, t, own, hasOwn) {
				continue
			}
			v := p.gen.Value(id, t)
			p.cfg.Sampler.OnSample(id, t, v)
			node.OnReading(t, v)
			continue
		}
		node.OnReading(t, p.gen.Value(id, t))
	}
	node.EndEpoch()
}

// emitEstimate closes the root's accounting hour and multicasts the next
// hour's forecast and budget down the tree.
func (p *Protocol) emitEstimate() {
	p.predictor.EndHour()
	eHr := p.predictor.PredictNextHour()
	budget := 0.0
	if p.cfg.Budget != nil {
		budget = p.cfg.Budget(eHr)
	}
	p.estimateSeq++
	msg := EstimateMsg{Seq: p.estimateSeq, QueriesPerHr: eHr, BudgetPerNode: budget}
	p.emitted = append(p.emitted, msg)
	if p.cfg.Trace != nil {
		p.cfg.Trace(TraceEvent{Kind: TraceEstimate, Node: p.tree.Root(), Peer: -1, QueryID: msg.Seq})
	}
	p.nodes[p.tree.Root()].ForwardEstimate(msg)
}

// EstimatesEmitted returns every hourly estimate the root has broadcast,
// in order — the EHr time series.
func (p *Protocol) EstimatesEmitted() []EstimateMsg {
	return append([]EstimateMsg(nil), p.emitted...)
}

// InjectQuery starts directed dissemination of q at the root and registers
// its ground truth for accuracy accounting. The returned record fills in as
// the query propagates (one tree level per TDMA opportunity).
func (p *Protocol) InjectQuery(q query.Query, truth query.GroundTruth) *QueryRecord {
	r := &QueryRecord{
		Query: q, Truth: truth, InjectedAt: p.engine.Now(),
		Received: map[topology.NodeID]bool{},
		Sources:  map[topology.NodeID]bool{},
	}
	p.records[q.ID] = r
	p.order = append(p.order, q.ID)
	p.predictor.Observe()
	p.nodes[p.tree.Root()].RouteQuery(QueryMsg{Q: q}, false)
	return r
}

// Records returns all query records in injection order.
func (p *Protocol) Records() []*QueryRecord {
	out := make([]*QueryRecord, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.records[id])
	}
	return out
}

// onNeighborDead is the §4.2 cross-layer entry point: the first
// notification about a dead node triggers tree surgery — the dead node's
// rows are purged from its parent's tables (propagating range shrinkage
// upward) and its subtree re-attaches to live neighbors where possible.
func (p *Protocol) onNeighborDead(at, dead topology.NodeID) {
	if p.deadSeen[dead] {
		return
	}
	if !p.tree.Contains(dead) {
		p.deadSeen[dead] = true
		p.hot.parkNode(int(dead)) // dead orphan: out of the epoch loop
		p.gen.MarkWindowDirty(dead)
		return
	}
	p.deadSeen[dead] = true
	p.hot.parkNode(int(dead))
	p.gen.MarkWindowDirty(dead)
	p.hot.deployed[dead] = false

	par2 := topology.NodeID(-1)
	if par, ok := p.tree.Parent(dead); ok {
		p.nodes[par].RemoveChild(dead)
		par2 = par
	}
	if p.cfg.Trace != nil {
		p.cfg.Trace(TraceEvent{Kind: TraceDeath, Node: dead, Peer: par2})
	}
	removed, err := p.tree.Detach(dead)
	if err != nil {
		return
	}
	p.nodes[dead].SetParent(0, false)
	p.nodes[dead].ResetTreeLinks()
	for _, o := range removed[1:] {
		p.nodes[o].SetParent(0, false)
		p.nodes[o].ResetTreeLinks()
		p.orphaned[o] = true
	}
	p.reattachOrphans()
}

// JoinNode powers up a node that was not yet part of the network (§4.2 node
// addition and §2's "addition of new sensor types after deployment"): it
// joins the MAC, attaches to the shallowest eligible live neighbor and
// reports its ranges to its new parent.
func (p *Protocol) JoinNode(id topology.NodeID, mounted sensordata.TypeSet) error {
	if p.tree.Contains(id) {
		return fmt.Errorf("core: node %d is already in the tree", id)
	}
	p.mounted[id] = mounted
	p.nodes[id] = NewNode(id, mounted, p.cfg.Controllers(id), p.mac, p)
	p.nodes[id].SetTrace(p.cfg.Trace)
	p.nodes[id].msgPool = &p.updPool
	p.mac.Listen(id, p.nodes[id].HandleMessage)
	p.mac.Join(id)
	delete(p.deadSeen, id)
	p.orphaned[id] = true
	p.configureNode(int(id))
	p.hot.deployed[id] = true
	p.reattachOrphans()
	if p.orphaned[id] {
		return fmt.Errorf("core: node %d has no eligible live neighbor to attach to", id)
	}
	if p.cfg.Trace != nil {
		if par, ok := p.tree.Parent(id); ok {
			p.cfg.Trace(TraceEvent{Kind: TraceJoin, Node: id, Peer: par})
		}
	}
	return nil
}

// reattachOrphans repeatedly attaches orphaned nodes to the shallowest
// eligible live tree neighbor (radio link, depth and fan-out caps), then
// has them re-report their range tables to their new parents. This models
// the distributed re-join each orphan performs using its MAC neighbor list.
func (p *Protocol) reattachOrphans() {
	for progress := true; progress; {
		progress = false
		ids := p.Orphans()
		for _, id := range ids {
			if !p.channel.Alive(id) {
				continue
			}
			best := topology.NodeID(-1)
			bestDepth := p.cfg.MaxDepth + 1
			for _, nb := range p.channel.Graph().Neighbors(id) {
				if !p.channel.Alive(nb) || !p.tree.Contains(nb) {
					continue
				}
				d := p.tree.Depth(nb)
				if d >= p.cfg.MaxDepth || len(p.tree.Children(nb)) >= p.cfg.MaxFanout {
					continue
				}
				if d < bestDepth || (d == bestDepth && nb < best) {
					best, bestDepth = nb, d
				}
			}
			if best < 0 {
				continue
			}
			if err := p.tree.Attach(best, id); err != nil {
				continue
			}
			delete(p.orphaned, id)
			p.nodes[id].SetParent(best, true)
			p.nodes[best].AddChild(id)
			p.nodes[id].ResendAll()
			if p.cfg.Trace != nil {
				p.cfg.Trace(TraceEvent{Kind: TraceReattach, Node: id, Peer: best})
			}
			progress = true
		}
	}
}

// KillNode powers a node off through the MAC. Neighbors detect the death
// after the MAC's dead threshold and the cross-layer path repairs the tree.
func (p *Protocol) KillNode(id topology.NodeID) {
	p.mac.Kill(id)
}

// RetuneAll retargets the threshold of every live non-root node whose
// controller is Retunable (fixed-δ controllers take pct verbatim, the ATC
// re-caps its band) and returns how many controllers accepted the change.
func (p *Protocol) RetuneAll(pct float64) int {
	n := 0
	for i := range p.nodes {
		id := topology.NodeID(i)
		if id == p.tree.Root() || !p.channel.Alive(id) {
			continue
		}
		if rt, ok := p.nodes[i].Controller().(Retunable); ok {
			rt.Retune(pct)
			n++
		}
	}
	if n > 0 {
		// A retune may rewrite tuples (and thus sweep windows) wholesale;
		// force the escape calendar to re-examine everything once.
		p.gen.InvalidateWindows()
	}
	p.cfg.Telemetry.Retunes.Add(int64(n))
	return n
}

// EstimateSeq returns the number of estimate broadcasts emitted so far.
func (p *Protocol) EstimateSeq() int64 { return p.estimateSeq }

// Predictor exposes the root's query-count predictor.
func (p *Protocol) Predictor() *query.Predictor { return p.predictor }
