// Package routing implements the link-state routing substrate JTP rides
// on (paper §2: JAVeLEN "uses an energy conserving link-state routing
// algorithm [29], that provides each node with a local, possibly
// inaccurate, view of the network's topology").
//
// Each node holds its own view — the connectivity graph of the link-state
// version it last adopted — refreshed on an independent jittered timer.
// Under mobility, views go stale between refreshes, reproducing the
// paper's "topological views at the nodes are typically not accurate":
// iJTP's per-hop loss-tolerance computation (§3) and its re-encoding of
// the tolerance field are what keep the end-to-end reliability target
// intact despite that inaccuracy.
//
// A refresh only pins the adjacency snapshot of the current version.
// Routes are read from trees rooted at destinations and grown on that
// snapshot when a packet asks: every router that adopted one version
// shares one tree per destination, grown only as far as the farthest
// router that has asked, so a refresh nobody consults costs O(1) and a
// router pays nothing for the destinations it never carries (see Cache).
//
// The full flooding protocol of [29] is not simulated; its *effect* — a
// periodically refreshed, possibly stale local view — is. Routing control
// traffic is excluded from the energy accounting exactly as the paper
// excludes "energy consumed for network maintenance by the lower layers"
// (§6.1).
package routing

import (
	"slices"

	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// Directory is the oracle the routers snapshot their views from: node
// positions and radio range. The node package implements it over the
// topology and channel.
//
// Linked must be symmetric: Linked(a, b) == Linked(b, a) at every
// instant. Routers read a route from a tree grown from its destination,
// which equals the shortest path from the router only when every link
// can be walked both ways.
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

// View is the full-view oracle: next hops and hop counts from one source
// to every destination, computed by Cache.Fill. Routers do not use it;
// probes and tests check them against it.
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
// form — node u's neighbors, ascending, are nbr[off[u]:off[u+1]] — with
// the destination trees grown on it.
type adjacency struct {
	version uint64
	refs    int // routers (and running Fills) holding it pinned
	off     []int32
	nbr     []packet.NodeID
	// treeAt[dst] is 1 + the index in trees of the tree rooted at dst, 0
	// while no router has asked for dst. trees[:live] are in use; the
	// rest are arrays kept for the next trees started.
	treeAt []int32
	trees  []tree
	live   int
}

// row returns u's neighbors in ascending id order.
func (a *adjacency) row(u packet.NodeID) []packet.NodeID {
	return a.nbr[a.off[u]:a.off[int(u)+1]] // u+1 would wrap at the uint16 id ceiling
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
		for _, id := range a.row(u) {
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

// tree is a breadth-first search rooted at one destination, stopped
// wherever the last router that asked was found and resumable from there.
type tree struct {
	// dist[u] is u's hop count to root, -1 while u is undiscovered.
	dist []int32
	// queue holds the discovered nodes in discovery order; queue[next:]
	// are not expanded yet.
	queue []packet.NodeID
	next  int
}

// reach grows t over a until id is discovered or root's component is
// exhausted (id unreachable). BFS discovers every node of level L−1
// before any of level L, so once id is found at level L every neighbor
// of id on a shortest path to root already holds its distance L−1.
func (t *tree) reach(a *adjacency, id packet.NodeID) {
	for t.dist[id] < 0 && t.next < len(t.queue) {
		u := t.queue[t.next]
		t.next++
		h := t.dist[u] + 1
		for _, w := range a.row(u) {
			if t.dist[w] < 0 {
				t.dist[w] = h
				t.queue = append(t.queue, w)
			}
		}
	}
}

// start begins the tree rooted at dst, in recycled arrays when there
// are some, and counts it in st.Computes.
func (a *adjacency) start(dst packet.NodeID, st *Stats) *tree {
	n := len(a.treeAt)
	if a.live == len(a.trees) {
		a.trees = append(a.trees, tree{})
	}
	t := &a.trees[a.live]
	a.live++
	a.treeAt[dst] = int32(a.live)
	if cap(t.dist) < n {
		t.dist, t.queue = make([]int32, n), make([]packet.NodeID, 0, n)
	}
	t.dist = t.dist[:n]
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.dist[dst], t.next = 0, 0
	t.queue = append(t.queue[:0], dst)
	st.Computes++
	return t
}

// Stats is the cache's accounting, all exact counts. Every refresh is a
// fill and ends as exactly one of: a hit (the router already held that
// version's snapshot), consulted (a packet read it), unconsulted (a
// refresh at another version came first), or pending (adopted and not
// read yet, at most one per router).
type Stats struct {
	Fills       uint64 // refreshes
	Hits        uint64 // refreshes at the version the router already held
	Consulted   uint64 // refreshes a packet read
	Unconsulted uint64 // refreshes superseded before any packet read them
	// Computes counts trees started: one per destination asked for per
	// snapshot, plus one full source tree per Fill.
	Computes uint64
	Captures uint64 // adjacency snapshots captured from the directory
	Recycled uint64 // snapshots released to the free list
	// SnapshotsHWM is the most snapshots retained at once (the current
	// version's plus every older one still pinned): the memory bound.
	SnapshotsHWM uint64
}

// Cache holds the adjacency snapshots all routers of one network route
// over. A router's refresh pins the snapshot of the directory's current
// link-state version; a router's consult grows, on that snapshot, the
// tree rooted at the destination asked for. Ownership rules:
//
//   - The cache owns every snapshot. One is captured — a single walk of
//     the directory's neighbor lists — on the first pin of a version,
//     right after the Version call that reported it, so it is exactly
//     that version's adjacency; later pins share it by reference count.
//     A router keeps its pin until it refreshes at another version. Once
//     unpinned and superseded, a snapshot goes to the free list with its
//     tree arrays, and the next capture overwrites them.
//   - Snapshots own their trees, at most one per destination, shared by
//     every router pinning that version. Every consult at one version
//     reads the same adjacency, so a route read late is the route of the
//     refresh; a router holding a stale snapshot (the paper's semantics)
//     never sees a capture.
//   - Sharing is keyed on VersionedDirectory.Version. A directory without
//     version reporting gets a new snapshot per refresh.
//
// Memory is O(versions·(V+E) + trees·N): the distinct versions routers
// hold, and the destinations asked for on each.
type Cache struct {
	dir   Directory
	vdir  VersionedDirectory // nil: no sharing across refreshes
	ndir  NeighborDirectory  // nil: capture probes Linked
	reads uint64             // version stand-in while vdir is nil
	// cur is the snapshot of the newest version seen, kept while that
	// version lasts even with no pins so the next refresh shares it.
	cur   *adjacency
	free  []*adjacency
	queue []packet.NodeID // Fill's BFS queue
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

// Clear forgets every snapshot and zeroes the accounting, keeping the
// snapshots' arrays on the free list for the next captures. Every
// router over the cache must have been cleared first, so nothing is
// pinned; the next refresh captures afresh, as on a new cache.
func (c *Cache) Clear() {
	if c.cur != nil {
		c.free = append(c.free, c.cur)
		c.cur = nil
	}
	c.reads = 0
	c.stats = Stats{}
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
// new) snapshot with no trees. Both flavours enumerate each node's
// neighbors in ascending id order — exactly the deterministic visit
// order the searches need.
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
	a.treeAt, a.live = slices.Grow(a.treeAt[:0], n)[:n], 0
	clear(a.treeAt)
	c.stats.Captures++
	if live := c.stats.Captures - c.stats.Recycled; live > c.stats.SnapshotsHWM {
		c.stats.SnapshotsHWM = live
	}
	return a
}

// Fill computes the current full view from src into v (nil allocates,
// buffers are reused) immediately — pin, BFS, unpin — stamped with at.
// It is the oracle routers are checked against, and the cold-path probe.
func (c *Cache) Fill(v *View, src packet.NodeID, at sim.Time) *View {
	a := c.pin(c.version())
	if n := len(a.off) - 1; cap(c.queue) < n {
		c.queue = make([]packet.NodeID, 0, n)
	}
	v = a.bfs(v, c.queue, src, at)
	c.stats.Computes++
	c.unpin(a)
	return v
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
	// snap is the snapshot of the version adopted at the last refresh,
	// pinned until a refresh at another version; consulted says whether a
	// packet has read it since.
	snap      *adjacency
	consulted bool
}

// New returns a router for node id over the cache's directory. All
// routers of one network share one cache.
func New(eng *sim.Engine, id packet.NodeID, c *Cache, cfg Config) *Router {
	return &Router{id: id, cache: c, eng: eng, cfg: cfg}
}

// Clear releases the router's view, leaving it as New did: nothing
// adopted until Start.
func (r *Router) Clear() {
	if r.snap != nil {
		r.cache.unpin(r.snap)
	}
	r.snap, r.consulted = nil, false
}

// Start adopts the initial view and, for a positive update period,
// begins periodic refresh.
func (r *Router) Start() {
	r.Refresh()
	if r.cfg.UpdatePeriod > 0 {
		r.eng.NewJitteredTicker(r.cfg.UpdatePeriod, r.cfg.UpdateJitter, r.Refresh)
	}
}

// Refresh adopts the directory's current link-state version now: later
// consults see the routes a search at this instant would find. The
// version is read here, on the timer's schedule, but nothing is searched:
// a router already holding this version keeps it, otherwise it releases
// its old snapshot and pins this version's.
func (r *Router) Refresh() {
	c := r.cache
	c.stats.Fills++
	ver := c.version()
	if r.snap != nil && r.snap.version == ver {
		c.stats.Hits++
		return
	}
	if r.snap != nil {
		if !r.consulted {
			c.stats.Unconsulted++
		}
		c.unpin(r.snap) // first, so a sole holder's arrays serve the capture
	}
	r.snap, r.consulted = c.pin(ver), false
}

// consult marks the adopted refresh read and returns dst's tree over its
// snapshot, grown until it holds this router's distance to dst; nil if
// no view is adopted yet or dst is out of range.
func (r *Router) consult(dst packet.NodeID) *tree {
	a := r.snap
	if a == nil || int(dst) >= len(a.treeAt) {
		return nil
	}
	if !r.consulted {
		r.consulted = true
		r.cache.stats.Consulted++
	}
	var t *tree
	if i := a.treeAt[dst]; i > 0 {
		t = &a.trees[i-1]
	} else {
		t = a.start(dst, &r.cache.stats)
	}
	if t.dist[r.id] < 0 {
		t.reach(a, r.id)
	}
	return t
}

// NextHop returns the next hop toward dst according to this node's
// current (possibly stale) view: the smallest-id neighbor one hop closer
// to dst — the hop a search from this node visiting neighbors in
// ascending id order would pick.
func (r *Router) NextHop(dst packet.NodeID) (packet.NodeID, bool) {
	if dst == r.id {
		return r.id, true
	}
	t := r.consult(dst)
	if t == nil || t.dist[r.id] < 0 {
		return 0, false
	}
	h := t.dist[r.id] - 1
	for _, w := range r.snap.row(r.id) {
		if t.dist[w] == h {
			return w, true
		}
	}
	panic("routing: asymmetric adjacency: no neighbor on the path found from the destination")
}

// HopsTo returns this node's estimate of the remaining path length to
// dst — the H_i of §3 — or -1 if dst is unreachable in the current view.
func (r *Router) HopsTo(dst packet.NodeID) int {
	t := r.consult(dst)
	if t == nil {
		return -1
	}
	return int(t.dist[r.id])
}
