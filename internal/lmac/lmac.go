package lmac

import (
	"fmt"
	"sort"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// PrioApp and PrioMAC order same-epoch simulation events: application logic
// (sensor acquisition, query injection) runs before the MAC frame, which
// runs before end-of-epoch bookkeeping.
const (
	PrioApp     = 0
	PrioMAC     = 10
	PrioMetrics = 20
)

// DefaultDeadThreshold is the number of consecutive missed frames after
// which a neighbor is declared dead.
const DefaultDeadThreshold = 4

// queuedMsg is one pending data transmission.
type queuedMsg struct {
	to        topology.NodeID // -1 for broadcast/multicast
	targets   []topology.NodeID
	class     radio.Class
	msg       any
	broadcast bool
}

// nodeState is the per-node MAC state. Neighbor liveness lives in the
// MAC's flat edge-parallel lastHeard array, not here.
type nodeState struct {
	id         topology.NodeID
	slot       int
	registered bool
	queue      []queuedMsg
	// spare is the queue buffer flushed last frame, kept for reuse: queue
	// and spare ping-pong so steady-state traffic never reallocates.
	spare []queuedMsg
}

// unheard is the lastHeard sentinel for "this neighbor is not in the
// node's MAC table".
const unheard = int64(-1) << 62

// MAC is the link layer for the whole network. A single object manages all
// nodes' MAC state; per-node behaviour remains strictly local (each node
// only reads its own queue and neighbor table).
type MAC struct {
	engine  *sim.Engine
	channel *radio.Channel
	nodes   []nodeState
	slots   int
	frame   int64
	started bool

	deadThreshold int64

	// order lists every node sorted by (slot, id). Slots are assigned once
	// at construction, so the frame iteration order is static; RunFrame
	// skips unregistered/dead nodes while iterating.
	order []topology.NodeID
	// orderPos inverts order: the frame position owned by each node.
	orderPos []int32
	// targetFree pools multicast address lists: Multicast copies the
	// caller's targets into a pooled slice, and the flush returns it after
	// transmission.
	targetFree [][]topology.NodeID
	// deadScratch/deadPosScratch are reused by the per-frame liveness
	// sweep (dead neighbor IDs and their edge positions).
	deadScratch    []topology.NodeID
	deadPosScratch []int32

	// Flat neighbor-table index. The channel graph is static for the
	// MAC's lifetime, so per-(node, neighbor) liveness stamps live in one
	// edge-parallel array instead of a map per node: entry adjOff[i]+k is
	// node i's stamp for its k-th (sorted) radio neighbor adjFlat[...],
	// and revEdge maps each directed edge to its reverse so a beacon
	// updates every receiver's table with one indexed store.
	adjOff    []int32
	adjFlat   []topology.NodeID
	revEdge   []int32
	lastHeard []int64

	// Quiescent-frame machinery. While the membership is steady (no kill,
	// join or power flip in flight) a frame only needs to visit nodes with
	// queued traffic: beacons carry no payload and their only effect —
	// advancing every live pair's last-heard stamp — is virtualized and
	// re-materialized on demand. Membership changes open a "turbulence"
	// window of full frames long enough for every death to be detected
	// through the original beacon bookkeeping, after which frames go quiet
	// again. A silent frame (no queued traffic anywhere) short-circuits to
	// a frame-counter increment.
	quiesce        bool  // fast path enabled (default true)
	turbulentUntil int64 // frames below this run the full beacon sweep
	stale          bool  // lastHeard tables lag behind the frame counter
	dirtyHeap      []int32
	dirtyNext      []int32
	inDirty        []bool
	inFrame        bool
	framePos       int32

	receivers []func(from topology.NodeID, msg any)
	onDead    func(at topology.NodeID, dead topology.NodeID)
	onNew     func(at topology.NodeID, fresh topology.NodeID)

	tel Telemetry
}

// Telemetry is the MAC's instrument set. All fields may be nil (the
// instruments are nil-safe); nothing here feeds back into scheduling, so
// an instrumented MAC runs the identical frame sequence.
type Telemetry struct {
	// FramesFull counts frames that ran the full beacon + liveness sweep
	// (turbulence windows, or quiescence disabled).
	FramesFull *telemetry.Counter
	// FramesQuiet counts quiescent frames that visited only dirty nodes.
	FramesQuiet *telemetry.Counter
	// FramesSilent counts quiescent frames with no queued traffic at all
	// (the short-circuit to a frame-counter increment).
	FramesSilent *telemetry.Counter
	// MessagesFlushed counts queued data messages handed to the channel.
	MessagesFlushed *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the MAC's
// instruments.
func (m *MAC) SetTelemetry(t Telemetry) { m.tel = t }

// New builds a MAC over the channel's graph and assigns the TDMA schedule.
// All nodes that are alive on the channel are registered immediately.
func New(engine *sim.Engine, channel *radio.Channel) (*MAC, error) {
	g := channel.Graph()
	m := &MAC{
		engine:        engine,
		channel:       channel,
		nodes:         make([]nodeState, g.Len()),
		receivers:     make([]func(topology.NodeID, any), g.Len()),
		deadThreshold: DefaultDeadThreshold,
	}
	slots, err := AssignSlots(g)
	if err != nil {
		return nil, err
	}
	maxSlot := 0
	for i := range m.nodes {
		m.nodes[i] = nodeState{
			id:   topology.NodeID(i),
			slot: slots[i],
		}
		if slots[i] > maxSlot {
			maxSlot = slots[i]
		}
	}
	m.slots = maxSlot + 1
	// Flat neighbor-table index over the (static) channel graph.
	n := g.Len()
	m.adjOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		m.adjOff[i+1] = m.adjOff[i] + int32(g.Degree(topology.NodeID(i)))
	}
	m.adjFlat = make([]topology.NodeID, m.adjOff[n])
	m.revEdge = make([]int32, m.adjOff[n])
	m.lastHeard = make([]int64, m.adjOff[n])
	for i := 0; i < n; i++ {
		copy(m.adjFlat[m.adjOff[i]:m.adjOff[i+1]], g.Neighbors(topology.NodeID(i)))
	}
	for i := 0; i < n; i++ {
		row := m.adjFlat[m.adjOff[i]:m.adjOff[i+1]]
		for k, nb := range row {
			nbRow := m.adjFlat[m.adjOff[nb]:m.adjOff[nb+1]]
			p := sort.Search(len(nbRow), func(j int) bool { return nbRow[j] >= topology.NodeID(i) })
			m.revEdge[int(m.adjOff[i])+k] = m.adjOff[nb] + int32(p)
		}
	}
	for e := range m.lastHeard {
		m.lastHeard[e] = unheard
	}
	m.order = make([]topology.NodeID, len(m.nodes))
	for i := range m.order {
		m.order[i] = topology.NodeID(i)
	}
	sort.Slice(m.order, func(i, j int) bool {
		a, b := &m.nodes[m.order[i]], &m.nodes[m.order[j]]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		return a.id < b.id
	})
	m.orderPos = make([]int32, len(m.nodes))
	for pos, id := range m.order {
		m.orderPos[id] = int32(pos)
	}
	m.inDirty = make([]bool, len(m.nodes))
	m.quiesce = true
	for i := range m.nodes {
		if channel.Alive(topology.NodeID(i)) {
			m.register(topology.NodeID(i))
		}
	}
	channel.OnAliveChange(m.onAliveChange)
	return m, nil
}

// SetQuiescence toggles the steady-state fast path (on by default).
// Disabling it forces the full beacon sweep every frame — the pre-gating
// behaviour, kept as the "naive" reference for equivalence tests and the
// scale benchmarks.
func (m *MAC) SetQuiescence(enabled bool) { m.quiesce = enabled }

// onAliveChange is wired to the channel: any power flip first materializes
// the virtualized liveness stamps (while the old power state is still in
// force) and then opens a turbulence window of full frames, so deaths are
// detected — and joins announced — exactly as the original per-frame
// beacon bookkeeping would have.
func (m *MAC) onAliveChange(topology.NodeID, bool) {
	m.materialize()
	until := m.frame + m.deadThreshold + 2
	if until > m.turbulentUntil {
		m.turbulentUntil = until
	}
}

// materialize brings every lastHeard table up to date with the quiescent
// invariant: all mutually live registered neighbors heard each other in
// the previous frame. A no-op unless quiet frames have run since the last
// full one.
func (m *MAC) materialize() {
	if !m.stale {
		return
	}
	m.stale = false
	for i := range m.nodes {
		st := &m.nodes[i]
		if !st.registered || !m.channel.Alive(st.id) {
			continue
		}
		off := m.adjOff[i]
		row := m.adjFlat[off:m.adjOff[i+1]]
		for k, nb := range row {
			if m.nodes[nb].registered && m.channel.Alive(nb) {
				m.lastHeard[int(off)+k] = m.frame - 1
			}
		}
	}
}

// markDirty records that a node has traffic queued for its next slot.
func (m *MAC) markDirty(id topology.NodeID) {
	if m.inDirty[id] {
		return
	}
	m.inDirty[id] = true
	pos := m.orderPos[id]
	if m.inFrame && pos > m.framePos {
		m.dirtyPush(pos)
	} else {
		m.dirtyNext = append(m.dirtyNext, pos)
	}
}

// dirtyPush adds a frame position to the current frame's min-heap.
func (m *MAC) dirtyPush(pos int32) {
	h := append(m.dirtyHeap, pos)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= pos {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = pos
	m.dirtyHeap = h
}

// dirtyPop removes and returns the smallest queued frame position.
func (m *MAC) dirtyPop() int32 {
	h := m.dirtyHeap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	m.dirtyHeap = h[:n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[c] >= last {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// getTargets returns a pooled slice holding a copy of targets.
func (m *MAC) getTargets(targets []topology.NodeID) []topology.NodeID {
	var buf []topology.NodeID
	if n := len(m.targetFree); n > 0 {
		buf = m.targetFree[n-1][:0]
		m.targetFree = m.targetFree[:n-1]
	}
	return append(buf, targets...)
}

// putTargets returns a slice obtained from getTargets to the pool.
func (m *MAC) putTargets(buf []topology.NodeID) {
	m.targetFree = append(m.targetFree, buf)
}

// register marks a node as MAC-active and primes its neighbor table with
// its currently-live radio neighbors (LMAC learns these during its join
// phase; we start post-convergence, as the paper's simulations do).
func (m *MAC) register(id topology.NodeID) {
	st := &m.nodes[id]
	st.registered = true
	off := m.adjOff[id]
	row := m.adjFlat[off:m.adjOff[id+1]]
	for k, nb := range row {
		if m.channel.Alive(nb) {
			// Primed as "heard just before this frame": a neighbor that
			// stays silent in the current frame has missed one frame.
			m.lastHeard[int(off)+k] = m.frame - 1
		} else {
			m.lastHeard[int(off)+k] = unheard
		}
	}
}

// Slots returns the frame length in slots.
func (m *MAC) Slots() int { return m.slots }

// Slot returns the slot owned by a node.
func (m *MAC) Slot(id topology.NodeID) int { return m.nodes[id].slot }

// Frame returns the number of completed frames.
func (m *MAC) Frame() int64 { return m.frame }

// SetDeadThreshold overrides the missed-frame count before a neighbor is
// declared dead.
func (m *MAC) SetDeadThreshold(frames int64) {
	if frames < 1 {
		panic("lmac: dead threshold must be >= 1")
	}
	m.deadThreshold = frames
}

// Listen registers the upper-layer receive handler for a node.
func (m *MAC) Listen(id topology.NodeID, fn func(from topology.NodeID, msg any)) {
	m.receivers[id] = fn
}

// OnNeighborDead registers the cross-layer callback fired at a node when one
// of its neighbors is detected dead (§4.2: "When LMAC detects that a
// neighboring node has died, it sends a notification to DirQ").
func (m *MAC) OnNeighborDead(fn func(at, dead topology.NodeID)) { m.onDead = fn }

// OnNeighborNew registers the callback fired at a node when a new neighbor
// is heard for the first time.
func (m *MAC) OnNeighborNew(fn func(at, fresh topology.NodeID)) { m.onNew = fn }

// Neighbors returns the sorted live-neighbor view of a node's MAC table.
func (m *MAC) Neighbors(id topology.NodeID) []topology.NodeID {
	m.materialize()
	off := m.adjOff[id]
	row := m.adjFlat[off:m.adjOff[id+1]]
	out := make([]topology.NodeID, 0, len(row))
	for k, nb := range row { // row is sorted, so out is too
		if m.lastHeard[int(off)+k] != unheard {
			out = append(out, nb)
		}
	}
	return out
}

// Unicast queues a data message for transmission to a radio neighbor in the
// sender's next slot.
func (m *MAC) Unicast(from, to topology.NodeID, class radio.Class, msg any) {
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{to: to, class: class, msg: msg})
	m.markDirty(from)
}

// Broadcast queues a data message for transmission to all radio neighbors
// in the sender's next slot.
func (m *MAC) Broadcast(from topology.NodeID, class radio.Class, msg any) {
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{to: -1, broadcast: true, class: class, msg: msg})
	m.markDirty(from)
}

// Multicast queues a data message addressed to a specific set of radio
// neighbors; it is sent as one transmission in the sender's next slot.
func (m *MAC) Multicast(from topology.NodeID, targets []topology.NodeID, class radio.Class, msg any) {
	if len(targets) == 0 {
		return
	}
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{
		to: -1, targets: m.getTargets(targets),
		class: class, msg: msg,
	})
	m.markDirty(from)
}

// QueueLen reports the number of messages pending at a node.
func (m *MAC) QueueLen(id topology.NodeID) int { return len(m.nodes[id].queue) }

// Start registers frame processing as an engine ticker firing at every
// tick from the engine's current time on. Call once.
func (m *MAC) Start() {
	if m.started {
		panic("lmac: Start called twice")
	}
	m.started = true
	m.engine.AddTicker(PrioMAC, m.RunFrame)
}

// RunFrame executes one complete TDMA frame. While membership is turbulent
// (a kill, join or power flip within the last dead-threshold frames) every
// registered live node, in slot order, beacons and flushes its queue, then
// liveness tables are swept and death/new-neighbor notifications fire.
// Otherwise only nodes with queued traffic are visited — beacons are
// virtual and a silent frame short-circuits entirely.
func (m *MAC) RunFrame() {
	if m.quiesce && m.frame >= m.turbulentUntil {
		m.runQuietFrame()
		return
	}
	m.runFullFrame()
}

// flush transmits a node's queue as it stood at the start of its slot;
// messages enqueued by the node's own deliveries wait for the next slot
// (they land in the swapped-in spare buffer).
func (m *MAC) flush(id topology.NodeID, st *nodeState) {
	pending := st.queue
	st.queue = st.spare[:0]
	m.tel.MessagesFlushed.Add(int64(len(pending)))
	for _, qm := range pending {
		switch {
		case qm.broadcast:
			m.channel.Broadcast(id, qm.class, qm.msg)
		case qm.targets != nil:
			m.channel.Multicast(id, qm.targets, qm.class, qm.msg)
		default:
			m.channel.Unicast(id, qm.to, qm.class, qm.msg)
		}
	}
	// Recycle: address lists go back to the pool, message references
	// are dropped, and the flushed buffer becomes next frame's spare.
	for i := range pending {
		if pending[i].targets != nil {
			m.putTargets(pending[i].targets)
		}
		pending[i] = queuedMsg{}
	}
	st.spare = pending[:0]
}

// runQuietFrame is the steady-membership frame: visit only dirty nodes, in
// the same (slot, id) order the full frame walks, and skip the beacon and
// liveness machinery altogether.
func (m *MAC) runQuietFrame() {
	if len(m.dirtyNext) > 0 {
		for _, pos := range m.dirtyNext {
			m.dirtyPush(pos)
		}
		m.dirtyNext = m.dirtyNext[:0]
	}
	if len(m.dirtyHeap) > 0 {
		m.tel.FramesQuiet.Inc()
		m.inFrame = true
		m.framePos = -1
		for len(m.dirtyHeap) > 0 {
			pos := m.dirtyPop()
			m.framePos = pos
			id := m.order[pos]
			m.inDirty[id] = false
			st := &m.nodes[id]
			if !st.registered || !m.channel.Alive(id) || len(st.queue) == 0 {
				continue // stale entry: killed, or already flushed by a full frame
			}
			m.flush(id, st)
		}
		m.inFrame = false
	} else {
		m.tel.FramesSilent.Inc()
	}
	m.stale = true
	m.frame++
}

// runFullFrame is the original frame: beacon sweep, queue flush, liveness
// sweep. It runs during turbulence windows and when quiescence is disabled.
func (m *MAC) runFullFrame() {
	m.tel.FramesFull.Inc()
	m.materialize()
	// Slot order is static (slots are assigned once), so the frame walks
	// the precomputed (slot, id) order and filters liveness inline.
	for _, id := range m.order {
		st := &m.nodes[id]
		if !st.registered || !m.channel.Alive(id) {
			continue // never joined, or died earlier within this very frame
		}
		// Beacon: every live radio neighbor hears us (un-metered control).
		// revEdge locates our entry in each receiver's table directly.
		off := m.adjOff[id]
		row := m.adjFlat[off:m.adjOff[id+1]]
		for k, nb := range row {
			if !m.channel.Alive(nb) || !m.nodes[nb].registered {
				continue
			}
			w := m.revEdge[int(off)+k]
			if m.lastHeard[w] == unheard && m.onNew != nil {
				m.lastHeard[w] = m.frame
				m.onNew(nb, id)
			} else {
				m.lastHeard[w] = m.frame
			}
		}
		if len(st.queue) > 0 {
			m.flush(id, st)
		}
	}

	// Post-frame liveness sweep. Adjacency rows are sorted, so deaths are
	// collected — and onDead notifications fire — in ascending neighbor
	// order, which keeps same-frame tree surgery deterministic.
	for i := range m.nodes {
		st := &m.nodes[i]
		if !st.registered || !m.channel.Alive(topology.NodeID(i)) {
			continue
		}
		dead := m.deadScratch[:0]
		deadPos := m.deadPosScratch[:0]
		off := m.adjOff[i]
		row := m.adjFlat[off:m.adjOff[i+1]]
		for k, nb := range row {
			last := m.lastHeard[int(off)+k]
			if last != unheard && m.frame-last >= m.deadThreshold {
				dead = append(dead, nb)
				deadPos = append(deadPos, off+int32(k))
			}
		}
		for k, nb := range dead {
			m.lastHeard[deadPos[k]] = unheard
			if m.onDead != nil {
				m.onDead(topology.NodeID(i), nb)
			}
		}
		m.deadScratch = dead[:0]
		m.deadPosScratch = deadPos[:0]
	}
	m.frame++
}

// installListener wires the channel's receiver for a node to the MAC's
// upper-layer handler table.
func (m *MAC) installListener(id topology.NodeID) {
	m.channel.Listen(id, func(from topology.NodeID, msg any) {
		if r := m.receivers[id]; r != nil {
			r(from, msg)
		}
	})
}

// Kill powers a node off: it stops beaconing and transmitting immediately.
// Neighbors will detect the death after the dead-threshold elapses.
func (m *MAC) Kill(id topology.NodeID) {
	if id == topology.Root {
		panic("lmac: killing the root/sink is not modelled")
	}
	m.channel.SetAlive(id, false)
	m.nodes[id].queue = nil
	m.nodes[id].registered = false
}

// Join powers on a (previously dead or never-started) node. Its slot was
// pre-assigned by the global schedule; its neighbors will fire
// OnNeighborNew when they first hear its beacon.
func (m *MAC) Join(id topology.NodeID) {
	m.channel.SetAlive(id, true)
	// Announce even when the power flag did not flip (a node that was
	// powered but never registered): the join must still leave the quiet
	// path so neighbors hear the first beacon.
	m.onAliveChange(id, true)
	m.register(id)
	m.installListener(id)
}

// AssignSlots computes a TDMA schedule in which no two nodes within two hops
// of each other share a slot — the LMAC property that makes slots
// collision-free at every receiver. Nodes pick the lowest free slot in
// BFS-from-root order, mirroring LMAC's gateway-outward wave of slot
// adoption. It returns the slot per node.
func AssignSlots(g *topology.Graph) ([]int, error) {
	n := g.Len()
	slots := make([]int, n)
	for i := range slots {
		slots[i] = -1
	}
	if n == 0 {
		return slots, nil
	}
	order := g.ReachableFrom(topology.Root)
	if len(order) != n {
		return nil, fmt.Errorf("lmac: graph is not connected (%d of %d reachable)", len(order), n)
	}
	// Generation-stamped "used" marks replace a per-node map: one shared
	// slice, reset by bumping the generation counter.
	usedStamp := make([]int32, 64)
	gen := int32(0)
	mark := func(s int) {
		for s >= len(usedStamp) {
			usedStamp = append(usedStamp, 0)
		}
		usedStamp[s] = gen
	}
	for _, id := range order {
		gen++
		for _, nb := range g.Neighbors(id) {
			if slots[nb] >= 0 {
				mark(slots[nb])
			}
			for _, nb2 := range g.Neighbors(nb) {
				if nb2 != id && slots[nb2] >= 0 {
					mark(slots[nb2])
				}
			}
		}
		s := 0
		for s < len(usedStamp) && usedStamp[s] == gen {
			s++
		}
		slots[id] = s
	}
	return slots, nil
}

// VerifySlots checks the two-hop uniqueness property of a slot assignment.
func VerifySlots(g *topology.Graph, slots []int) error {
	for id := 0; id < g.Len(); id++ {
		for _, nb := range g.Neighbors(topology.NodeID(id)) {
			if slots[id] == slots[nb] {
				return fmt.Errorf("lmac: 1-hop slot clash between %d and %d (slot %d)", id, nb, slots[id])
			}
			for _, nb2 := range g.Neighbors(nb) {
				if int(nb2) != id && slots[id] == slots[nb2] {
					return fmt.Errorf("lmac: 2-hop slot clash between %d and %d (slot %d)", id, nb2, slots[id])
				}
			}
		}
	}
	return nil
}

// Init wires the channel listeners for all nodes. Call after constructing
// the MAC and registering upper-layer receivers.
func (m *MAC) Init() {
	for i := range m.nodes {
		m.installListener(topology.NodeID(i))
	}
}
