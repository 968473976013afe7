// Package node wires the substrates into a running multi-hop wireless
// network: per-node MAC instances over a shared TDMA schedule, per-node
// link-state routers, the wireless channel, per-node energy meters, and
// the dispatch of received segments to registered transport endpoints.
//
// The package is transport-agnostic: protocols deliver segments via the
// Transport interface and originate traffic through SendFrom, exactly
// the "shared substrate, different transport" comparison setup of §6.1.
// Which protocols exist is not known here — each protocol's
// transport.Factory installs any per-node machinery (MAC plugins) it
// needs as it builds the driver.
package node

import (
	"fmt"
	"math"
	"slices"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/obs"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/trace"
)

// Transport receives segments addressed to the node it is bound on.
type Transport interface {
	// Deliver hands the transport a segment whose Dest is this node.
	// from is the previous hop (not the end-to-end source).
	Deliver(seg mac.Segment, from packet.NodeID)
}

// FlowKeyed is implemented by segments that belong to a transport flow;
// all segments in this repository implement it. Delivery is dispatched on
// (Dest, FlowID).
type FlowKeyed interface {
	FlowID() packet.FlowID
}

// hopCounted is implemented by segments that carry a hop counter; the
// network uses it as a TTL backstop against transient routing loops under
// mobility. (JTP's principled loop defense is the energy budget, §2.1.1;
// the TTL exists for the baselines.)
type hopCounted interface {
	AddHop() int
}

// Config assembles a network.
type Config struct {
	// Topo provides node count and positions. The network takes
	// ownership; the mobility model may mutate it concurrently (in
	// simulated time).
	Topo *topology.Topology
	// Channel parameterizes link loss and radio range.
	Channel channel.Config
	// MAC parameterizes the TDMA layer.
	MAC mac.Config
	// Routing parameterizes view refresh (zero period = static).
	Routing routing.Config
	// Energy is the radio energy model.
	Energy energy.Model
	// Budgets, when non-empty, gives each node an initial energy budget
	// in joules (one entry per node; 0 = unlimited). A node that can no
	// longer afford a worst-case packet transmission or reception has a
	// dead battery: it stops transmitting, receiving and routing, like a
	// failed node. Spent energy therefore never exceeds the budget.
	Budgets []float64
	// MaxHops drops segments that traversed more than this many hops
	// (loop backstop). Zero defaults to 4×N.
	MaxHops int
}

// maxEventBytes bounds a single segment's airtime for budget headroom
// checks: data header + payload + worst-case feedback blocks, rounded
// far up. Overestimating only retires a node marginally early.
const maxEventBytes = 2048

// Counters aggregates node-level drop accounting.
type Counters struct {
	NoRoute    uint64 // no next hop in the current view
	TTLDrops   uint64 // hop-count backstop fired
	NoEndpoint uint64 // segment for an unregistered flow
}

// Node is one network element.
type Node struct {
	ID     packet.NodeID
	Meter  energy.Meter
	MAC    *mac.MAC
	Router *routing.Router

	endpoints map[packet.FlowID]Transport // allocated on the first Bind
	count     Counters
	net       *Network
}

// Network owns the engine-coupled state of one simulated network.
type Network struct {
	eng     *sim.Engine
	cfg     Config
	topo    *topology.Topology
	chann   *channel.Channel
	nodes   []*Node
	sched   *mac.Scheduler
	started bool
	// down marks failed nodes; downCount tracks how many, so the
	// adjacency fast paths know when no liveness filtering is needed.
	down      []bool
	downCount int
	// budgets mirrors Config.Budgets; maxEvent is the worst-case energy
	// of one link event, the headroom required to stay operational.
	budgets  []float64
	maxEvent float64

	// snap is the epoch-cached link-state substrate: a spatial-hash grid
	// over positions plus per-node neighbor rows, O(V+E) memory, brought
	// current lazily once per topology position epoch — by patching only
	// the moved rows when the epoch advanced by exactly one, else by a
	// full grid rebuild. See ensureSnap.
	snap linkSnapshot
	// obs handles for the incremental link-state path (nil-safe no-ops
	// until Observe attaches a registry): rows patched across all patch
	// epochs, number of incremental patch epochs, and full rebuilds.
	obsRowsPatched  *obs.Counter
	obsPatchEpochs  *obs.Counter
	obsSnapRebuilds *obs.Counter
	// linkVer is the link-state version for routing.VersionedDirectory:
	// it advances when the snapshot is rebuilt, when a node fails or
	// revives, and when the budget-exhaustion bitmap changes.
	linkVer uint64
	// deadBits is the budget-exhaustion bitmap as of the last Version
	// call (budget-constrained runs only); Version diffs it to detect
	// battery deaths (and meter resets) between refreshes.
	deadBits []uint64
	// nbrScratch backs the filtered Neighbors result while any node is
	// down or battery-dead (allocated then); valid until the next
	// Neighbors call.
	nbrScratch []packet.NodeID
	// views is the network-wide adjacency-snapshot cache all routers
	// compute their views from.
	views *routing.Cache

	// pool is the network's packet free-list: transports draw from it
	// and terminal consumers recycle into it (see packet.Pool for the
	// ownership rules). New always creates it.
	pool *packet.Pool

	// Tracer, when non-nil, records packet-lifecycle events (origination,
	// forwarding, delivery, drops) for debugging and analysis.
	Tracer *trace.Tracer
}

// traceSeg records one event for a segment if tracing is enabled.
func (nw *Network) traceSeg(at packet.NodeID, kind trace.Kind, seg mac.Segment, detail string) {
	if nw.Tracer == nil {
		return
	}
	e := trace.Event{T: nw.eng.Now().Seconds(), Node: at, Kind: kind, Detail: detail}
	if fk, ok := seg.(FlowKeyed); ok {
		e.Flow = fk.FlowID()
	}
	if p, ok := seg.(*packet.Packet); ok {
		e.Seq = p.Seq
	}
	nw.Tracer.Add(e)
}

// New builds the network: nodes, MACs, routers, channel, scheduler.
// Call Start before injecting traffic.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Topo == nil || cfg.Topo.N() == 0 {
		panic("node: Config.Topo must have at least one node")
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 4 * cfg.Topo.N()
	}
	if cfg.MaxHops < 8 {
		cfg.MaxHops = 8
	}
	if len(cfg.Budgets) > 0 && len(cfg.Budgets) != cfg.Topo.N() {
		panic(fmt.Sprintf("node: Config.Budgets has %d entries for %d nodes", len(cfg.Budgets), cfg.Topo.N()))
	}
	nw := &Network{
		eng:      eng,
		cfg:      cfg,
		topo:     cfg.Topo,
		chann:    channel.New(eng, cfg.Channel),
		budgets:  cfg.Budgets,
		maxEvent: cfg.Energy.TxCost(maxEventBytes),
		pool:     new(packet.Pool),
	}
	n := cfg.Topo.N()
	nw.down = make([]bool, n)
	nw.views = routing.NewCache(nw)
	macs := make([]*mac.MAC, n)
	nw.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		nd := &Node{ID: id, net: nw}
		nd.MAC = mac.New(eng, id, cfg.MAC, cfg.Energy, &nd.Meter, nw)
		nd.Router = routing.New(eng, id, nw.views, cfg.Routing)
		nd.MAC.Drops = func(fr *mac.Frame, reason mac.DropReason) {
			nw.traceSeg(id, trace.Drop, fr.Seg, reason.String())
		}
		macs[i] = nd.MAC
		nw.nodes[i] = nd
	}
	nw.sched = mac.NewScheduler(eng, cfg.MAC.SlotDuration, macs)
	return nw
}

// Clear returns the network to the state New left it in, over topo and
// budgets, for another run on its engine (which the caller clears or
// resets too). topo must have the network's node count, and budgets
// none or one entry per node. Node liveness, the link snapshot, link
// states, routing views, MAC queues, counters and estimators, energy
// meters, endpoint bindings and telemetry handles all reset; the MAC
// plugins stay installed and are cleared with their MACs, and
// free-lists, buffers and the packet pool stay warm.
func (nw *Network) Clear(topo *topology.Topology, budgets []float64) {
	n := len(nw.nodes)
	if topo.N() != n || (len(budgets) != 0 && len(budgets) != n) {
		panic(fmt.Sprintf("node: Clear over %d nodes and %d budgets for a %d-node network", topo.N(), len(budgets), n))
	}
	nw.cfg.Topo, nw.cfg.Budgets = topo, budgets
	nw.topo, nw.budgets = topo, budgets
	nw.chann.Clear()
	nw.started = false
	clear(nw.down)
	nw.downCount = 0
	nw.snap.built = false
	nw.obsRowsPatched, nw.obsPatchEpochs, nw.obsSnapRebuilds = nil, nil, nil
	nw.linkVer = 0
	clear(nw.deadBits)
	for _, nd := range nw.nodes {
		nd.Meter = energy.Meter{}
		nd.MAC.Clear()
		nd.Router.Clear()
		clear(nd.endpoints)
		nd.count = Counters{}
	}
	nw.views.Clear() // after the routers have unpinned their snapshots
	nw.sched.Clear()
	nw.pool.Clear() // last: the plugins' caches return their clones first
	nw.Tracer = nil
}

// Engine returns the simulation engine the network runs on.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// PacketPool returns the network's packet free-list, shared by every
// transport attached to the network.
func (nw *Network) PacketPool() *packet.Pool { return nw.pool }

// Observe attaches MAC-layer telemetry to reg: one shared handle bundle
// incremented by every node's MAC (see mac.Obs), plus the network's
// link-state patch instruments (linkstate_rows_patched /
// linkstate_patch_epochs / linkstate_full_rebuilds — how much of the
// mobility load the incremental path absorbed vs full grid rebuilds).
// A nil registry attaches the disabled bundle and nil handles,
// detaching any previous ones.
func (nw *Network) Observe(reg *obs.Registry) {
	bundle := mac.NewObs(reg)
	for _, nd := range nw.nodes {
		nd.MAC.Observe(bundle)
	}
	nw.obsRowsPatched = reg.Counter("linkstate_rows_patched")
	nw.obsPatchEpochs = reg.Counter("linkstate_patch_epochs")
	nw.obsSnapRebuilds = reg.Counter("linkstate_full_rebuilds")
}

// LinkVersion returns the raw link-state version counter: the number of
// snapshot rebuilds, liveness flips and manual up/down transitions seen
// so far. Unlike Version it never forces a rebuild, so it is safe for
// end-of-run telemetry collection.
func (nw *Network) LinkVersion() uint64 { return nw.linkVer }

// Topology returns the (live) topology.
func (nw *Network) Topology() *topology.Topology { return nw.topo }

// Views returns the shared routing snapshot cache (telemetry, tests and
// diagnostics).
func (nw *Network) Views() *routing.Cache { return nw.views }

// Node returns node id's element.
func (nw *Network) Node(id packet.NodeID) *Node { return nw.nodes[int(id)] }

// Nodes returns all nodes in id order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// N returns the node count (routing.Directory).
func (nw *Network) N() int { return nw.topo.N() }

// linkSnapshot is the per-epoch link-state cache: a spatial-hash grid
// (cell side = radio range) bucketing node positions, and per-node
// neighbor rows derived from it. Memory is O(V+E) — there is no n×n
// structure anywhere — and the snapshot is brought current either by a
// full O(V+E) rebuild (first use) or, when the topology is exactly one
// epoch ahead, by patching only the rows of nodes that actually moved:
// O(moved·deg) per mobility batch. It depends only on positions and the
// radio range, so it is valid for exactly one topology position epoch;
// liveness (failures, battery deaths) is layered on top at query time
// because it can change mid-epoch.
type linkSnapshot struct {
	built bool
	epoch uint64 // topology.Epoch the snapshot was built at
	n     int
	grid  *topology.SpatialGrid
	// rows holds each node's geometric neighbor list in ascending id
	// order. Rows are patched in place as nodes move, so they reach a
	// steady-state capacity and stop allocating.
	rows [][]packet.NodeID
	cand []packet.NodeID // scratch: gatherRow's candidates and result
	// The patch path's Verlet skin (see patchRow): travel sums each patch
	// fold's largest displacement. A rebuild clears skinReady and the
	// next patch resets every skin, so static networks never pay for it.
	skinReady bool
	travel    float64
	skin      []rowSkin
	gathers   uint64 // rows the patch path re-gathered (tests)
}

// rowSkin is one node's skin, recorded when the patch path gathers its row.
type rowSkin struct {
	last    geom.Point      // position at the last patch fold
	at, far float64         // travel then; least |d − R| outside near, border included
	near    []packet.NodeID // candidates with |d − R| < skinWidth
}

// skinMargin covers rounding: travel rounds up at every fold, and every
// other term, each below 10⁶ m, is off by less than 10⁻⁹ m.
const skinWidth, skinMargin = 4.0, 1e-6

// row returns a's geometric neighbor list.
func (s *linkSnapshot) row(a packet.NodeID) []packet.NodeID {
	return s.rows[int(a)]
}

// ensureSnap brings the link snapshot to the topology's current position
// epoch. When the topology is exactly one epoch ahead it patches only
// the rows of the nodes in the fold's delta (and their neighbors'
// mirrored entries); otherwise it rebuilds from scratch. The link-state
// version advances only when some row's neighbor SET actually changed —
// a batch of within-range drift that kept every neighbor set bumps
// nothing, so routers' held views stay valid and no BFS re-runs.
func (nw *Network) ensureSnap() {
	epoch := nw.topo.Epoch()
	if nw.snap.built && nw.snap.epoch == epoch {
		return
	}
	if nw.snap.built && epoch == nw.snap.epoch+1 {
		nw.patchSnap(epoch, nw.topo.LastDelta())
		return
	}
	nw.rebuildSnap(epoch)
}

// rebuildSnap recomputes the grid and every neighbor row from the
// current positions: one grid pass plus one 9-cell candidate gather per
// node, O(V+E). Buffers are reused, so a rebuild at steady size
// allocates nothing. Every rebuild advances the link-state version.
func (nw *Network) rebuildSnap(epoch uint64) {
	s := &nw.snap
	n := nw.topo.N()
	s.n = n
	if s.grid == nil {
		s.grid = topology.NewSpatialGrid(nw.topo, nw.chann.Range())
	} else {
		s.grid.Rebuild(nw.topo)
	}
	if cap(s.rows) < n {
		s.rows = make([][]packet.NodeID, n)
	} else {
		s.rows = s.rows[:n]
	}
	for i := 0; i < n; i++ {
		s.rows[i] = append(s.rows[i][:0], nw.gatherRow(packet.NodeID(i), nil)...)
	}
	s.skinReady = false
	s.built = true
	s.epoch = epoch
	nw.linkVer++
	nw.obsSnapRebuilds.Inc()
}

// gatherRow derives node m's neighbor set from the grid into the scratch
// buffer: gather the 3×3 cell candidates, keep the in-range ones, sort
// ascending. The membership predicate (squared distance against the
// squared range) is exactly the one an all-pairs pass uses, so rows are
// element-identical to the brute-force O(n²) derivation. A non-nil sk
// receives m's skin. The result is valid until the next gatherRow.
func (nw *Network) gatherRow(m packet.NodeID, sk *rowSkin) []packet.NodeID {
	s := &nw.snap
	pos := nw.topo.Pos
	pm := pos[int(m)]
	cand := s.grid.AppendCandidates(s.cand[:0], m)
	if sk != nil {
		sk.at, sk.far, sk.near = s.travel, s.grid.BorderDist(m), sk.near[:0]
	}
	r := nw.chann.Range()
	k := 0
	for _, j := range cand {
		d2 := pm.Dist2(pos[int(j)])
		if sk != nil && j != m {
			if g := math.Abs(math.Sqrt(d2) - r); g < skinWidth {
				sk.near = append(sk.near, j)
			} else {
				sk.far = min(sk.far, g)
			}
		}
		if j != m && nw.chann.InRange(d2) {
			cand[k] = j
			k++
		}
	}
	cand = cand[:k]
	slices.Sort(cand)
	s.cand = cand
	return cand
}

// patchSnap brings the snapshot one epoch forward by re-deriving only
// the moved nodes' rows. Every changed edge has a moved endpoint, so
// re-bucketing the movers, bringing their rows current, and mirroring
// the inserts and removes into their neighbors' rows restores exactly
// the state a full rebuild would produce — at O(moved·deg) instead of
// O(V+E). The link-state version bumps only if some neighbor
// set changed; pure within-range drift leaves every held routing
// view valid.
func (nw *Network) patchSnap(epoch uint64, moved []packet.NodeID) {
	s := &nw.snap
	pos := nw.topo.Pos
	if !s.skinReady { // far = 0: every mover gathers, so travel restarts
		s.skin = slices.Grow(s.skin[:0], s.n)[:s.n]
		for i := range s.skin {
			s.skin[i] = rowSkin{last: pos[i], near: s.skin[i].near[:0]}
		}
		s.travel, s.skinReady = 0, true
	}
	// Re-bucket first: rows are derived from the grid, and a candidate
	// gather must see every mover at its new cell.
	step2 := 0.0
	for _, id := range moved {
		s.grid.Move(id)
		sk := &s.skin[int(id)]
		step2 = max(step2, pos[int(id)].Dist2(sk.last))
		sk.last = pos[int(id)]
	}
	s.travel = math.Nextafter(s.travel+math.Sqrt(step2), math.Inf(1))
	changed := false
	for _, id := range moved {
		if nw.patchRow(id) {
			changed = true
		}
	}
	s.epoch = epoch
	if changed {
		nw.linkVer++
	}
	nw.obsRowsPatched.Add(uint64(len(moved)))
	nw.obsPatchEpochs.Inc()
}

// patchRow brings node m's row current after a move and mirrors the edge
// differences into the affected neighbors' rows. Reports whether any
// neighbor set changed (m's or a neighbor's — they change together).
//
// No node has moved more than D = travel − at since m's row was gathered,
// so while 2D < far no pair of m's outside near can have crossed the
// range, and re-testing the near pairs alone is exact.
func (nw *Network) patchRow(m packet.NodeID) bool {
	s := &nw.snap
	sk := &s.skin[int(m)]
	if 2*(s.travel-sk.at) < sk.far-skinMargin {
		return nw.retestNear(m, sk.near)
	}
	s.gathers++
	cand := nw.gatherRow(m, sk)

	// Merge-walk old vs new: removed neighbors lose their mirrored entry,
	// added ones gain it, and a neighbor in both sets costs nothing. m's
	// own row is rewritten only when its set changed.
	old := s.rows[int(m)]
	changed := false
	i, j := 0, 0
	for i < len(old) || j < len(cand) {
		switch {
		case j == len(cand) || (i < len(old) && old[i] < cand[j]):
			s.removeEdge(old[i], m)
			changed = true
			i++
		case i == len(old) || cand[j] < old[i]:
			s.insertEdge(cand[j], m)
			changed = true
			j++
		default:
			i++
			j++
		}
	}
	if changed {
		s.rows[int(m)] = append(old[:0], cand...)
	}
	return changed
}

// retestNear splices each of m's near pairs that crossed the range into
// both rows; a pair another mover's patch already spliced reads as unchanged.
func (nw *Network) retestNear(m packet.NodeID, near []packet.NodeID) bool {
	s := &nw.snap
	pos := nw.topo.Pos
	pm := pos[int(m)]
	changed := false
	for _, j := range near {
		in := nw.chann.InRange(pm.Dist2(pos[int(j)]))
		if in == (s.findNbr(m, j) >= 0) {
			continue
		}
		if in {
			s.insertEdge(m, j)
			s.insertEdge(j, m)
		} else {
			s.removeEdge(m, j)
			s.removeEdge(j, m)
		}
		changed = true
	}
	return changed
}

// findNbr returns the index of b in a's sorted neighbor row, or -1.
// Linear scan with a sortedness early-exit: geometric rows hold a few
// dozen uint16 ids (one or two cache lines), where the scan's perfectly
// predicted loop beats binary search's data-dependent branches — findNbr
// is the patch path's hottest leaf at the 65k bench tier.
func (s *linkSnapshot) findNbr(a, b packet.NodeID) int {
	for i, id := range s.rows[int(a)] {
		if id >= b {
			if id == b {
				return i
			}
			return -1
		}
	}
	return -1
}

// insertEdge adds b to a's sorted row.
func (s *linkSnapshot) insertEdge(a, b packet.NodeID) {
	row := s.rows[int(a)]
	i, _ := slices.BinarySearch(row, b)
	s.rows[int(a)] = slices.Insert(row, i, b)
}

// removeEdge deletes b from a's sorted row.
func (s *linkSnapshot) removeEdge(a, b packet.NodeID) {
	if i := s.findNbr(a, b); i >= 0 {
		s.rows[int(a)] = slices.Delete(s.rows[int(a)], i, i+1)
	}
}

// aliveNow reports whether a node currently has a working radio: not
// failed and battery not exhausted. Evaluated live (not from the
// snapshot) because budget exhaustion can happen mid-epoch.
func (nw *Network) aliveNow(id packet.NodeID) bool {
	return !nw.down[int(id)] && !nw.BudgetExhausted(id)
}

// Linked reports current radio-range adjacency (routing.Directory).
// A failed or battery-dead node has no links. The range answer is one
// squared-distance comparison on current positions — O(1), no n×n
// structure; ensureSnap keeps the snapshot advancing one epoch at a
// time so the incremental patch path stays engaged.
func (nw *Network) Linked(a, b packet.NodeID) bool {
	if a == b || !nw.aliveNow(a) || !nw.aliveNow(b) {
		return false
	}
	nw.ensureSnap()
	pos := nw.topo.Pos
	return nw.chann.InRange(pos[int(a)].Dist2(pos[int(b)]))
}

// Neighbors returns u's current neighbors in ascending id order
// (routing.NeighborDirectory) — exactly the ids for which Linked(u, ·)
// is true. While every node is alive it is the snapshot's neighbor row,
// zero-copy; with failed or battery-dead nodes present it filters into
// a scratch buffer that stays valid until the next Neighbors call.
func (nw *Network) Neighbors(u packet.NodeID) []packet.NodeID {
	nw.ensureSnap()
	if !nw.aliveNow(u) {
		return nil
	}
	row := nw.snap.row(u)
	if nw.downCount == 0 && len(nw.budgets) == 0 {
		return row
	}
	buf := nw.nbrScratch[:0]
	for _, v := range row {
		if nw.aliveNow(v) {
			buf = append(buf, v)
		}
	}
	nw.nbrScratch = buf
	return buf
}

// Version returns the link-state version (routing.VersionedDirectory):
// it changes whenever some Linked answer may have changed — positions
// moved (snapshot rebuild), a node failed or revived (SetDown), or the
// budget-exhaustion bitmap moved (scanned here, O(n), only for
// budget-constrained networks). Two equal versions guarantee identical
// adjacency, which is what lets routers share one captured snapshot.
func (nw *Network) Version() uint64 {
	nw.ensureSnap()
	if len(nw.budgets) > 0 {
		nw.refreshDeadBits()
	}
	return nw.linkVer
}

// refreshDeadBits rescans budget exhaustion into a bitmap and advances
// the link-state version when it differs from the last scan (battery
// deaths since the previous Version call).
func (nw *Network) refreshDeadBits() {
	n := nw.topo.N()
	words := (n + 63) / 64
	if cap(nw.deadBits) < words {
		nw.deadBits = append(nw.deadBits[:0], make([]uint64, words)...)
	}
	dead := nw.deadBits[:words]
	changed := false
	for wi := 0; wi < words; wi++ {
		var w uint64
		hi := (wi + 1) * 64
		if hi > n {
			hi = n
		}
		for i := wi * 64; i < hi; i++ {
			if nw.BudgetExhausted(packet.NodeID(i)) {
				w |= 1 << (uint(i) % 64)
			}
		}
		if dead[wi] != w {
			dead[wi] = w
			changed = true
		}
	}
	nw.deadBits = dead
	if changed {
		nw.linkVer++
	}
}

// BudgetExhausted reports whether a node's battery can no longer afford
// a worst-case link event. The headroom check runs before every
// transmission and reception, so a budgeted node's spent energy never
// exceeds its initial budget.
func (nw *Network) BudgetExhausted(id packet.NodeID) bool {
	if len(nw.budgets) == 0 {
		return false
	}
	b := nw.budgets[int(id)]
	return b > 0 && nw.nodes[int(id)].Meter.Total()+nw.maxEvent > b
}

// ExhaustedNodes counts nodes whose energy budget is exhausted.
func (nw *Network) ExhaustedNodes() int {
	dead := 0
	for _, nd := range nw.nodes {
		if nw.BudgetExhausted(nd.ID) {
			dead++
		}
	}
	return dead
}

// SetDown fails or revives a node. A failed node stops receiving,
// transmitting and routing; routers notice at their next view refresh —
// the "intermediate node failure" case of §2 for which occasional
// end-to-end retransmissions remain necessary. Failing a node clears its
// MAC queue (its backlog dies with it). The simulation does not
// automatically revive nodes.
func (nw *Network) SetDown(id packet.NodeID, down bool) {
	if nw.down[int(id)] != down {
		nw.down[int(id)] = down
		if down {
			nw.downCount++
		} else {
			nw.downCount--
		}
		// Liveness changed: held routing views are out of date.
		nw.linkVer++
	}
	if down {
		nw.nodes[int(id)].MAC.ClearQueue()
	}
}

// TransmitOK draws a loss trial on a live link (mac.Env).
func (nw *Network) TransmitOK(from, to packet.NodeID) bool {
	return nw.chann.TransmitOK(from, to)
}

// Reachable reports current radio-range reachability (mac.Env).
func (nw *Network) Reachable(from, to packet.NodeID) bool {
	return nw.Linked(from, to)
}

// TransmitsAllowed reports whether a node's radio is operational
// (mac.Env); a failed or battery-dead node's owned slots do nothing.
func (nw *Network) TransmitsAllowed(id packet.NodeID) bool {
	return nw.aliveNow(id)
}

// DeliverUp completes a successful hop: runs the receiving MAC (energy,
// plugins), then either delivers to a local endpoint or forwards along
// the route (mac.Env).
func (nw *Network) DeliverUp(at packet.NodeID, fr *mac.Frame) {
	nd := nw.nodes[int(at)]
	nd.MAC.Receive(fr)
	seg := fr.Seg
	if seg.Dest() == at {
		nw.traceSeg(at, trace.Deliver, seg, "")
		nd.deliver(seg, fr.From)
		return
	}
	if hc, ok := seg.(hopCounted); ok {
		if hc.AddHop() > nw.cfg.MaxHops {
			nd.count.TTLDrops++
			nw.traceSeg(at, trace.Drop, seg, "ttl")
			return
		}
	}
	nw.traceSeg(at, trace.Forwarded, seg, "")
	nd.forward(seg)
}

// deliver dispatches a segment to the endpoint registered for its flow.
func (n *Node) deliver(seg mac.Segment, from packet.NodeID) {
	fk, ok := seg.(FlowKeyed)
	if !ok {
		n.count.NoEndpoint++
		return
	}
	tr, ok := n.endpoints[fk.FlowID()]
	if !ok {
		n.count.NoEndpoint++
		return
	}
	tr.Deliver(seg, from)
}

// forward queues a transit segment toward its destination.
func (n *Node) forward(seg mac.Segment) {
	nh, ok := n.Router.NextHop(seg.Dest())
	if !ok || nh == n.ID {
		n.count.NoRoute++
		return
	}
	n.MAC.Enqueue(seg, nh)
}

// Bind registers a transport endpoint for a flow on a node. Delivery is
// keyed on (node, flow); both ends of a connection bind the same flow id.
func (nw *Network) Bind(id packet.NodeID, flow packet.FlowID, tr Transport) {
	nd := nw.nodes[int(id)]
	if nd.endpoints == nil {
		nd.endpoints = make(map[packet.FlowID]Transport)
	}
	nd.endpoints[flow] = tr
}

// Unbind removes a flow endpoint.
func (nw *Network) Unbind(id packet.NodeID, flow packet.FlowID) {
	delete(nw.nodes[int(id)].endpoints, flow)
}

// SendFrom originates a segment at src, routing it toward its
// destination. It reports false when no route exists or the local queue
// is full. Loopback (dst == src) delivers immediately.
func (nw *Network) SendFrom(src packet.NodeID, seg mac.Segment) bool {
	nd := nw.nodes[int(src)]
	dst := seg.Dest()
	if dst == src {
		nd.deliver(seg, src)
		return true
	}
	nh, ok := nd.Router.NextHop(dst)
	if !ok || nh == src {
		nd.count.NoRoute++
		return false
	}
	if nw.Tracer != nil { // don't format next-hop labels on the warm path
		nw.traceSeg(src, trace.Enqueue, seg, "to "+nh.String())
	}
	return nd.MAC.Enqueue(seg, nh)
}

// SendFromFront originates a segment at src with queue priority; iJTP
// cache retransmissions use it so recovered packets overtake new data.
func (nw *Network) SendFromFront(src packet.NodeID, seg mac.Segment) bool {
	nd := nw.nodes[int(src)]
	nh, ok := nd.Router.NextHop(seg.Dest())
	if !ok || nh == src {
		nd.count.NoRoute++
		return false
	}
	return nd.MAC.EnqueueFront(seg, nh)
}

// Start launches routing and the TDMA schedule.
func (nw *Network) Start() {
	if nw.started {
		return
	}
	nw.started = true
	for _, nd := range nw.nodes {
		nd.Router.Start()
	}
	nw.sched.Start()
}

// TotalEnergy sums all node meters in joules.
func (nw *Network) TotalEnergy() float64 {
	sum := 0.0
	for _, nd := range nw.nodes {
		sum += nd.Meter.Total()
	}
	return sum
}

// PerNodeEnergy returns each node's consumption in joules, by id.
func (nw *Network) PerNodeEnergy() []float64 {
	out := make([]float64, len(nw.nodes))
	for i, nd := range nw.nodes {
		out[i] = nd.Meter.Total()
	}
	return out
}

// QueueDrops sums MAC queue overflow drops across nodes (Fig 7(b)).
func (nw *Network) QueueDrops() uint64 {
	var sum uint64
	for _, nd := range nw.nodes {
		sum += nd.MAC.QueueDrops()
	}
	return sum
}

// Counters sums node-level drop counters.
func (nw *Network) Counters() Counters {
	var c Counters
	for _, nd := range nw.nodes {
		c.NoRoute += nd.count.NoRoute
		c.TTLDrops += nd.count.TTLDrops
		c.NoEndpoint += nd.count.NoEndpoint
	}
	return c
}

// String summarizes the network.
func (nw *Network) String() string {
	return fmt.Sprintf("network(n=%d, slot=%v)", nw.N(), nw.cfg.MAC.SlotDuration)
}
