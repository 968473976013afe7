// Package routing implements the link-state routing substrate JTP rides
// on (paper §2: JAVeLEN "uses an energy conserving link-state routing
// algorithm [29], that provides each node with a local, possibly
// inaccurate, view of the network's topology").
//
// Each node keeps its own View — a snapshot of the connectivity graph with
// shortest-path next hops and hop counts — refreshed on an independent
// jittered timer. Under mobility, views go stale between refreshes,
// reproducing the paper's "topological views at the nodes are typically
// not accurate": iJTP's per-hop loss-tolerance computation (§3) and its
// re-encoding of the tolerance field are what keep the end-to-end
// reliability target intact despite that inaccuracy.
//
// A refresh only pins the adjacency of the current link-state version;
// shortest paths are computed over it the first time a packet consults
// the view, so a refresh nobody consults costs O(1) (see Cache).
//
// The full flooding protocol of [29] is not simulated; its *effect* — a
// periodically refreshed, possibly stale local view — is. Routing control
// traffic is excluded from the energy accounting exactly as the paper
// excludes "energy consumed for network maintenance by the lower layers"
// (§6.1).
package routing

import (
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// Directory is the oracle the routers snapshot their views from: node
// positions and radio range. The node package implements it over the
// topology and channel.
type Directory interface {
	// N returns the number of nodes.
	N() int
	// Linked reports whether two nodes are currently within radio range.
	Linked(a, b packet.NodeID) bool
}

// NeighborDirectory is an optional Directory extension for directories
// that can enumerate a node's current neighbors directly (the node
// package's epoch-cached adjacency snapshot). Capturing the adjacency
// from neighbor lists is O(V+E); without the extension the capture
// probes all n candidates per node, O(V²).
type NeighborDirectory interface {
	Directory
	// Neighbors returns u's current neighbors in strictly ascending id
	// order — the same set for which Linked(u, ·) is true right now. The
	// returned slice is only valid until the next Neighbors call or
	// directory state change and must not be mutated or retained.
	Neighbors(u packet.NodeID) []packet.NodeID
}

// VersionedDirectory is an optional Directory extension for directories
// that can report a link-state version: a counter that changes whenever
// some Linked answer may have changed (positions moved, a node failed or
// revived, an energy budget ran out or was reset). Two reads returning
// the same version guarantee the adjacency did not change in between,
// which is what lets every router refreshing at one version share one
// captured adjacency snapshot.
type VersionedDirectory interface {
	Directory
	// Version returns the current link-state version. Implementations
	// may refresh internal caches (adjacency snapshot, liveness bitmap)
	// during the call.
	Version() uint64
}

// View is one node's snapshot of the topology: next hops and hop counts
// for every destination.
type View struct {
	// UpdatedAt is the virtual time of the snapshot.
	UpdatedAt sim.Time
	next      []packet.NodeID // next[dst], self for dst==self
	// hops[dst], -1 unreachable. int32 (max path length is bounded by the
	// uint16 node-id space) so the per-BFS -1 fill moves half the memory
	// an []int would — measurable at the 65536-node bench tier.
	hops []int32
}

// NextHop returns the next hop toward dst and whether dst is reachable.
func (v *View) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	if v == nil || int(dst) >= len(v.hops) || v.hops[dst] < 0 {
		return 0, false
	}
	return v.next[dst], true
}

// Hops returns the number of links to dst (0 for self), or -1 if
// unreachable in this view.
func (v *View) Hops(dst packet.NodeID) int {
	if v == nil || int(dst) >= len(v.hops) {
		return -1
	}
	return int(v.hops[dst])
}

// adjacency is the connectivity graph of one link-state version in CSR
// form: node u's neighbors, ascending, are nbr[off[u]:off[u+1]].
type adjacency struct {
	version uint64
	refs    int // routers (and running Fills) holding it pinned
	off     []int32
	nbr     []packet.NodeID
}

// bfs computes shortest paths from src into v (nil allocates), visiting
// neighbors in ascending id order for determinism; cap(queue) ≥ n.
func (a *adjacency) bfs(v *View, queue []packet.NodeID, src packet.NodeID, at sim.Time) *View {
	n := len(a.off) - 1
	if v == nil {
		v = &View{}
	}
	v.UpdatedAt = at
	if cap(v.next) < n {
		v.next, v.hops = make([]packet.NodeID, n), make([]int32, n)
	}
	v.next, v.hops = v.next[:n], v.hops[:n]
	for i := range v.hops {
		v.hops[i] = -1
	}
	v.hops[src], v.next[src] = 0, src
	queue = append(queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		h, first := v.hops[u]+1, v.next[u]
		for _, id := range a.nbr[a.off[u]:a.off[int(u)+1]] { // u+1 would wrap at the uint16 id ceiling
			if v.hops[id] >= 0 {
				continue
			}
			v.hops[id] = h
			if u == src {
				first = id // first hop on the path is the neighbor itself
			}
			v.next[id] = first
			queue = append(queue, id)
		}
	}
	return v
}

// Stats is the cache's accounting, all exact counts. Every refresh is a
// fill and ends as exactly one of: a hit (the held view was computed at
// that version), a compute (a packet consulted it), unconsulted, or — at
// most one per router — still pending when the run ends.
type Stats struct {
	Fills       uint64 // refreshes plus direct Fill calls
	Computes    uint64 // BFS executions
	Hits        uint64 // refreshes served by restamping the held view
	Unconsulted uint64 // refreshes never consulted
	Captures    uint64 // adjacency snapshots captured from the directory
	Recycled    uint64 // snapshots released to the free list
	// SnapshotsHWM is the most snapshots retained at once (the current
	// version's plus every older one still pinned): the memory bound.
	SnapshotsHWM uint64
}

// Cache holds the adjacency snapshots all routers of one network compute
// their views from. A router's refresh does not run a BFS: it pins the
// snapshot of the directory's current link-state version and remembers
// when; the BFS runs over the pinned snapshot when the view is first
// consulted. Ownership rules:
//
//   - The cache owns every snapshot. One is captured — a single walk of
//     the directory's neighbor lists — on the first pin of a version,
//     right after the Version call that reported it, so it is exactly
//     that version's adjacency; later pins share it by reference count.
//     Once unpinned and superseded, its arrays go to the free list and
//     the next capture overwrites them.
//   - Routers own their views. Every BFS at one version reads the same
//     adjacency, so a view computed late is element-identical to one
//     computed at the refresh, whose time it is stamped with; a router
//     holding a stale view (the paper's semantics) never sees a capture.
//   - Sharing is keyed on VersionedDirectory.Version. A directory without
//     version reporting gets a new snapshot per refresh.
type Cache struct {
	dir   Directory
	vdir  VersionedDirectory // nil: no sharing across refreshes
	ndir  NeighborDirectory  // nil: capture probes Linked
	reads uint64             // version stand-in while vdir is nil
	// cur is the snapshot of the newest version seen, kept while that
	// version lasts even with no pins so the next refresh shares it.
	cur   *adjacency
	free  []*adjacency
	queue []packet.NodeID // BFS queue
	stats Stats
}

// NewCache returns a snapshot cache over dir.
func NewCache(dir Directory) *Cache {
	c := &Cache{dir: dir}
	c.vdir, _ = dir.(VersionedDirectory)
	c.ndir, _ = dir.(NeighborDirectory)
	return c
}

// Stats returns the cache's accounting so far.
func (c *Cache) Stats() Stats {
	return c.stats
}

// version reads the directory's link-state version. An unversioned
// directory gets a new one per read, so no two refreshes share anything.
func (c *Cache) version() uint64 {
	if c.vdir == nil {
		c.reads++
		return c.reads
	}
	return c.vdir.Version()
}

// pin returns the snapshot of version ver — which the directory reported
// just now — with one more reference, capturing it if this is the
// version's first pin.
func (c *Cache) pin(ver uint64) *adjacency {
	if old := c.cur; old == nil || old.version != ver {
		if old != nil && old.refs == 0 {
			c.recycle(old)
		}
		c.cur = c.capture(ver)
	}
	c.cur.refs++
	return c.cur
}

// unpin drops one reference; a snapshot nobody pins any more is recycled
// unless it is still the current version's.
func (c *Cache) unpin(a *adjacency) {
	a.refs--
	if a.refs == 0 && a != c.cur {
		c.recycle(a)
	}
}

func (c *Cache) recycle(a *adjacency) {
	c.free = append(c.free, a)
	c.stats.Recycled++
}

// capture copies the directory's current adjacency into a recycled (or
// new) snapshot. Both flavours enumerate each node's neighbors in
// ascending id order — exactly the deterministic visit order BFS needs.
func (c *Cache) capture(ver uint64) *adjacency {
	var a *adjacency
	if k := len(c.free); k > 0 {
		a, c.free = c.free[k-1], c.free[:k-1]
	} else {
		a = &adjacency{}
	}
	n := c.dir.N()
	a.version = ver
	a.off = append(a.off[:0], 0)
	a.nbr = a.nbr[:0]
	for u := 0; u < n; u++ {
		if c.ndir != nil {
			a.nbr = append(a.nbr, c.ndir.Neighbors(packet.NodeID(u))...)
		} else {
			for w := 0; w < n; w++ {
				if w != u && c.dir.Linked(packet.NodeID(u), packet.NodeID(w)) {
					a.nbr = append(a.nbr, packet.NodeID(w))
				}
			}
		}
		a.off = append(a.off, int32(len(a.nbr)))
	}
	if cap(c.queue) < n {
		c.queue = make([]packet.NodeID, 0, n)
	}
	c.stats.Captures++
	if live := c.stats.Captures - c.stats.Recycled; live > c.stats.SnapshotsHWM {
		c.stats.SnapshotsHWM = live
	}
	return a
}

// compute runs the BFS from src over pinned snapshot a and unpins it.
func (c *Cache) compute(v *View, a *adjacency, src packet.NodeID, at sim.Time) *View {
	v = a.bfs(v, c.queue, src, at)
	c.stats.Computes++
	c.unpin(a)
	return v
}

// Fill computes the current view from src into v (nil allocates, buffers
// are reused) immediately — pin, BFS, unpin — stamped with at.
func (c *Cache) Fill(v *View, src packet.NodeID, at sim.Time) *View {
	c.stats.Fills++
	return c.compute(v, c.pin(c.version()), src, at)
}

// Config parameterizes the routing layer.
type Config struct {
	// UpdatePeriod is how often each node refreshes its view. Zero means
	// static routing: views are adopted once at Start.
	UpdatePeriod sim.Duration
	// UpdateJitter desynchronizes the refresh timers.
	UpdateJitter sim.Duration
}

// Defaults returns 1 s refresh with 200 ms jitter (mobile scenarios);
// static scenarios pass UpdatePeriod 0.
func Defaults() Config {
	return Config{UpdatePeriod: sim.Second, UpdateJitter: 200 * sim.Millisecond}
}

// Router is one node's routing instance.
type Router struct {
	id    packet.NodeID
	cache *Cache
	eng   *sim.Engine
	cfg   Config
	// view is the last computed view, at link-state version viewVer; spare
	// is the double buffer the next compute writes into (readers may hold
	// view only until then).
	view, spare *View
	viewVer     uint64
	// pend, when non-nil, is the snapshot pinned by a refresh (at pendAt)
	// that no packet has consulted yet; it supersedes view.
	pend   *adjacency
	pendAt sim.Time
	tick   *sim.Ticker
}

// New returns a router for node id over the cache's directory. All
// routers of one network share one cache.
func New(eng *sim.Engine, id packet.NodeID, c *Cache, cfg Config) *Router {
	return &Router{id: id, cache: c, eng: eng, cfg: cfg}
}

// Start adopts the initial view and, for a positive update period,
// begins periodic refresh.
func (r *Router) Start() {
	r.Refresh()
	if r.cfg.UpdatePeriod > 0 {
		r.tick = r.eng.NewJitteredTicker(r.cfg.UpdatePeriod, r.cfg.UpdateJitter, r.Refresh)
	}
}

// Stop halts periodic refresh and releases a refresh no packet has
// consulted yet; the router keeps answering from its last computed view.
func (r *Router) Stop() {
	if r.tick != nil {
		r.tick.Stop()
	}
	r.drop()
}

// drop releases a pending, never consulted refresh.
func (r *Router) drop() {
	if r.pend != nil {
		r.cache.stats.Unconsulted++
		r.cache.unpin(r.pend)
		r.pend = nil
	}
}

// Refresh adopts the directory's current link state now: later consults
// see the view a BFS at this instant would produce, stamped with this
// instant. The directory's version is read here, on the timer's schedule,
// but no BFS runs: a held view computed at this version is restamped,
// otherwise the version's snapshot is pinned for the first consult.
func (r *Router) Refresh() {
	now := r.eng.Now()
	c := r.cache
	c.stats.Fills++
	r.drop()
	ver := c.version()
	if r.view != nil && r.viewVer == ver {
		c.stats.Hits++
		r.view.UpdatedAt = now
		return
	}
	r.pend, r.pendAt = c.pin(ver), now
}

// settle computes the pending refresh a consult is about to read.
func (r *Router) settle() {
	next := r.cache.compute(r.spare, r.pend, r.id, r.pendAt)
	r.spare, r.view, r.viewVer = r.view, next, r.pend.version
	r.pend = nil
}

// NextHop returns the next hop toward dst according to this node's
// current (possibly stale) view.
func (r *Router) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	if dst == r.id {
		return r.id, true
	}
	if r.pend != nil {
		r.settle()
	}
	return r.view.NextHop(dst)
}

// HopsTo returns this node's estimate of the remaining path length to
// dst — the H_i of §3 — or -1 if dst is unreachable in the current view.
func (r *Router) HopsTo(dst packet.NodeID) int {
	if r.pend != nil {
		r.settle()
	}
	return r.view.Hops(dst)
}

// View returns the current view (for tests and tracing), computing it if
// the last refresh is still pending. Views are double-buffered, not
// immutable: the returned pointer is restamped by a refresh at an
// unchanged version and rewritten in place by the second-next compute, so
// callers comparing routes across refreshes must copy what they need.
func (r *Router) View() *View {
	if r.pend != nil {
		r.settle()
	}
	return r.view
}
