package routing

import (
	"math/rand"
	"testing"

	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// gridDir is an adjustable directory for tests: an explicit adjacency
// matrix.
type gridDir struct {
	n   int
	adj map[[2]packet.NodeID]bool
}

func newDir(n int) *gridDir {
	return &gridDir{n: n, adj: map[[2]packet.NodeID]bool{}}
}

func (d *gridDir) link(a, b packet.NodeID) {
	d.adj[[2]packet.NodeID{a, b}] = true
	d.adj[[2]packet.NodeID{b, a}] = true
}

func (d *gridDir) unlink(a, b packet.NodeID) {
	delete(d.adj, [2]packet.NodeID{a, b})
	delete(d.adj, [2]packet.NodeID{b, a})
}

func (d *gridDir) N() int { return d.n }
func (d *gridDir) Linked(a, b packet.NodeID) bool {
	return d.adj[[2]packet.NodeID{a, b}]
}

func chain(n int) *gridDir {
	d := newDir(n)
	for i := 0; i < n-1; i++ {
		d.link(packet.NodeID(i), packet.NodeID(i+1))
	}
	return d
}

func TestChainNextHops(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(5)
	r := New(eng, 0, NewCache(d), Config{})
	r.Start()
	nh, ok := r.NextHop(4)
	if !ok || nh != 1 {
		t.Fatalf("next hop to 4 = %v ok=%v", nh, ok)
	}
	if h := r.HopsTo(4); h != 4 {
		t.Fatalf("hops to 4 = %d", h)
	}
	if h := r.HopsTo(0); h != 0 {
		t.Fatalf("hops to self = %d", h)
	}
	nh, ok = r.NextHop(0)
	if !ok || nh != 0 {
		t.Fatal("self next hop")
	}
}

func TestMidChainRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(7)
	r := New(eng, 3, NewCache(d), Config{})
	r.Start()
	if nh, _ := r.NextHop(0); nh != 2 {
		t.Fatalf("left next hop = %v", nh)
	}
	if nh, _ := r.NextHop(6); nh != 4 {
		t.Fatalf("right next hop = %v", nh)
	}
	if h := r.HopsTo(6); h != 3 {
		t.Fatalf("hops = %d", h)
	}
}

func TestUnreachable(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	d.unlink(1, 2)
	r := New(eng, 0, NewCache(d), Config{})
	r.Start()
	if _, ok := r.NextHop(3); ok {
		t.Fatal("partitioned destination should be unreachable")
	}
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("hops to unreachable = %d", h)
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3, plus direct 0-3.
	eng := sim.NewEngine(1)
	d := newDir(4)
	d.link(0, 1)
	d.link(1, 3)
	d.link(0, 2)
	d.link(2, 3)
	d.link(0, 3)
	r := New(eng, 0, NewCache(d), Config{})
	r.Start()
	if nh, _ := r.NextHop(3); nh != 3 {
		t.Fatalf("direct link ignored: next hop %v", nh)
	}
	if h := r.HopsTo(3); h != 1 {
		t.Fatalf("hops = %d", h)
	}
}

func TestStaleViewUntilRefresh(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	r := New(eng, 0, NewCache(d), Config{}) // static: no periodic refresh
	r.Start()
	d.unlink(2, 3) // topology changes under the router
	if h := r.HopsTo(3); h != 3 {
		t.Fatalf("static view should be stale, hops=%d", h)
	}
	r.Refresh()
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("refresh should see the partition, hops=%d", h)
	}
}

func TestPeriodicRefresh(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(4)
	r := New(eng, 0, NewCache(d), Config{UpdatePeriod: sim.Second, UpdateJitter: 100 * sim.Millisecond})
	r.Start()
	d.unlink(2, 3)
	eng.RunFor(3 * sim.Second)
	if h := r.HopsTo(3); h != -1 {
		t.Fatalf("periodic refresh missed the change, hops=%d", h)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-length paths: via 1 or via 2; BFS visits neighbors in id
	// order, so via-1 must win, and repeatedly.
	eng := sim.NewEngine(1)
	d := newDir(4)
	d.link(0, 1)
	d.link(0, 2)
	d.link(1, 3)
	d.link(2, 3)
	for i := 0; i < 5; i++ {
		r := New(eng, 0, NewCache(d), Config{})
		r.Start()
		if nh, _ := r.NextHop(3); nh != 1 {
			t.Fatalf("tie break not deterministic: %v", nh)
		}
	}
}

func TestViewSnapshotAccessors(t *testing.T) {
	v := NewCache(chain(3)).Fill(nil, 0, 7)
	if v == nil || v.Hops(2) != 2 || v.UpdatedAt != 7 {
		t.Fatal("view accessor broken")
	}
	if nh, ok := v.NextHop(2); !ok || nh != 1 {
		t.Fatalf("view next hop to 2 = %v,%v", nh, ok)
	}
	var nilView *View
	if _, ok := nilView.NextHop(1); ok {
		t.Fatal("nil view should route nowhere")
	}
	if nilView.Hops(1) != -1 {
		t.Fatal("nil view hops should be -1")
	}
}

// verDir wraps gridDir with explicit link-state versioning and sorted
// neighbor enumeration — a miniature of the node package's epoch
// snapshot directory.
type verDir struct {
	*gridDir
	ver uint64
	nbr []packet.NodeID
}

func (d *verDir) Version() uint64 { return d.ver }

func (d *verDir) Neighbors(u packet.NodeID) []packet.NodeID {
	d.nbr = d.nbr[:0]
	for w := 0; w < d.n; w++ {
		id := packet.NodeID(w)
		if id != u && d.Linked(u, id) {
			d.nbr = append(d.nbr, id)
		}
	}
	return d.nbr
}

// lineDir is an n-node chain with computed neighbor lists, cheap enough
// to instantiate at the NodeID addressing ceiling.
type lineDir struct {
	n   int
	buf [2]packet.NodeID
}

func (d *lineDir) N() int          { return d.n }
func (d *lineDir) Version() uint64 { return 1 }
func (d *lineDir) Linked(a, b packet.NodeID) bool {
	return int(a)-int(b) == 1 || int(b)-int(a) == 1
}

func (d *lineDir) Neighbors(u packet.NodeID) []packet.NodeID {
	nbr := d.buf[:0]
	if u > 0 {
		nbr = append(nbr, u-1)
	}
	if int(u)+1 < d.n {
		nbr = append(nbr, u+1)
	}
	return nbr
}

// TestFullNodeIDSpace runs the BFS at 65536 nodes, where the last id is
// the uint16 maximum and any id+1 computed in NodeID arithmetic wraps.
func TestFullNodeIDSpace(t *testing.T) {
	const n = 1 << 16
	c := NewCache(&lineDir{n: n})
	v := c.Fill(nil, 0, 0)
	if h := v.Hops(n - 1); h != n-1 {
		t.Fatalf("hops across the full chain = %d, want %d", h, n-1)
	}
	v = c.Fill(v, n-1, 0)
	if nh, ok := v.NextHop(0); !ok || nh != n-2 || v.Hops(0) != n-1 {
		t.Fatalf("from the last id: next=%v,%v hops=%d", nh, ok, v.Hops(0))
	}
}

// live is the number of snapshots the cache currently retains.
func (c *Cache) live() uint64 { return c.stats.Captures - c.stats.Recycled }

// plainDir hides every optional extension of a directory, forcing the
// O(V²) Linked-probing capture.
type plainDir struct{ d Directory }

func (p plainDir) N() int                         { return p.d.N() }
func (p plainDir) Linked(a, b packet.NodeID) bool { return p.d.Linked(a, b) }

// requireAccounting checks that every refresh routers made over c ended
// as exactly one of hit, consulted, unconsulted or pending, where pending
// is a router holding a snapshot no packet has read yet.
func requireAccounting(t *testing.T, c *Cache, rs ...*Router) {
	t.Helper()
	var pending uint64
	for _, r := range rs {
		if r.snap != nil && !r.consulted {
			pending++
		}
	}
	if st := c.Stats(); st.Hits+st.Consulted+st.Unconsulted+pending != st.Fills {
		t.Fatalf("refresh accounting: %+v with %d pending, want hits+consulted+unconsulted+pending = fills", st, pending)
	}
}

// requireRouterMatchesView compares a router's answers with a full view
// over all destinations.
func requireRouterMatchesView(t *testing.T, tag string, n int, r *Router, want *View) {
	t.Helper()
	for w := 0; w < n; w++ {
		dst := packet.NodeID(w)
		gh, wh := r.HopsTo(dst), want.Hops(dst)
		gn, gok := r.NextHop(dst)
		wn, wok := want.NextHop(dst)
		if gh != wh || gok != wok || (gok && gn != wn) {
			t.Fatalf("%s: router %v dst %v: got hops=%d next=%v,%v want hops=%d next=%v,%v",
				tag, r.id, dst, gh, gn, gok, wh, wn, wok)
		}
	}
}

// requireViewsEqual compares two views element-wise over all
// destinations.
func requireViewsEqual(t *testing.T, tag string, n int, got, want *View) {
	t.Helper()
	for w := 0; w < n; w++ {
		dst := packet.NodeID(w)
		gh, wh := got.Hops(dst), want.Hops(dst)
		gn, gok := got.NextHop(dst)
		wn, wok := want.NextHop(dst)
		if gh != wh || gok != wok || (gok && gn != wn) {
			t.Fatalf("%s: dst %v: got hops=%d next=%v,%v want hops=%d next=%v,%v",
				tag, dst, gh, gn, gok, wh, wn, wok)
		}
	}
}

// TestNeighborBFSMatchesScanBFS drives both capture flavours over seeded
// random graphs: the snapshot walked from neighbor lists must produce
// element-identical views to the one probed from Linked, including
// tie-breaks.
func TestNeighborBFSMatchesScanBFS(t *testing.T) {
	eng := sim.NewEngine(1)
	for seed := int64(1); seed <= 5; seed++ {
		n := 16 + int(seed)
		d := &verDir{gridDir: newDir(n)}
		rnd := sim.NewEngine(seed).Rand()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rnd.Float64() < 0.2 {
					d.link(packet.NodeID(i), packet.NodeID(j))
				}
			}
		}
		fastC, refC := NewCache(d), NewCache(plainDir{d})
		for src := 0; src < n; src++ {
			fast := fastC.Fill(nil, packet.NodeID(src), eng.Now())
			ref := refC.Fill(nil, packet.NodeID(src), eng.Now())
			requireViewsEqual(t, "seed", n, fast, ref)
		}
		if fs, rs := fastC.Stats(), refC.Stats(); fs.Captures != 1 || rs.Captures != uint64(n) {
			t.Fatalf("captures: versioned %d (want 1), unversioned %d (want %d)", fs.Captures, rs.Captures, n)
		}
	}
}

// TestCacheMemoizesWithinVersion pins what one link-state version shares:
// the adjacency is captured once however many sources fill or refresh,
// each destination's tree is started once however many routers ask, a
// refresh at the version a router holds is a hit that keeps snapshot and
// trees, and a version bump costs one new capture and new trees.
func TestCacheMemoizesWithinVersion(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(6)}
	c := NewCache(d)
	v1 := c.Fill(nil, 0, eng.Now())
	c.Fill(nil, 3, eng.Now())
	if st := c.Stats(); st.Captures != 1 || st.Computes != 2 {
		t.Fatalf("two fills at one version: %+v, want 1 capture, 2 computes", st)
	}
	r := New(eng, 0, c, Config{})
	r.Start()
	requireRouterMatchesView(t, "router vs fill", d.N(), r, v1)
	if st := c.Stats(); st.Computes != 2+6 || st.Consulted != 1 {
		t.Fatalf("one router asking for six destinations: %+v, want six trees and one consulted refresh", st)
	}
	// Same version: the refresh is a hit and the trees stay.
	eng.RunFor(sim.Second)
	before := c.Stats()
	r.Refresh()
	requireRouterMatchesView(t, "after a hit", d.N(), r, v1)
	st := c.Stats()
	if st.Computes != before.Computes || st.Hits != before.Hits+1 || st.Captures != 1 {
		t.Fatalf("refresh at an unchanged version: %+v after %+v, want one more hit only", st, before)
	}
	// Another router at this version reads the same trees.
	r3 := New(eng, 3, c, Config{})
	r3.Start()
	if nh, ok := r3.NextHop(5); !ok || nh != 4 || r3.HopsTo(0) != 3 {
		t.Fatalf("r3: next hop to 5 = %v,%v, hops to 0 = %d", nh, ok, r3.HopsTo(0))
	}
	if c.Stats().Computes != before.Computes {
		t.Fatal("a second router at one version started its own trees")
	}
	// A version bump is one new capture, and the next consult grows a new
	// tree on it.
	d.unlink(4, 5)
	d.ver++
	r.Refresh()
	if h := r.HopsTo(5); h != -1 {
		t.Fatalf("the new version's tree missed the topology change, hops=%d", h)
	}
	if st := c.Stats(); st.Captures != 2 || st.Computes != before.Computes+1 {
		t.Fatalf("after version bump: %+v, want 2 captures and one more tree", st)
	}
	// r3 still holds the old version, and its trees.
	if h := r3.HopsTo(5); h != 2 {
		t.Fatalf("r3 lost its view of the old version, hops=%d", h)
	}
	// Views handed out by Fill are the caller's: nothing rewrote them.
	if v1.Hops(5) != 5 {
		t.Fatal("a later capture mutated a previously filled view")
	}
	requireAccounting(t, c, r, r3)
}

// TestTreeGrowsOnlyAsFarAsAsked pins the laziness: a destination's tree
// stops growing once the asking router is found, and resumes from there
// for a router farther away.
func TestTreeGrowsOnlyAsFarAsAsked(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(8)}
	c := NewCache(d)
	near, far := New(eng, 1, c, Config{}), New(eng, 6, c, Config{})
	near.Start()
	far.Start()
	if nh, ok := near.NextHop(0); !ok || nh != 0 {
		t.Fatalf("near: next hop %v,%v", nh, ok)
	}
	tr := &c.cur.trees[c.cur.treeAt[0]-1]
	if len(tr.queue) != 2 || tr.dist[2] != -1 {
		t.Fatalf("tree to 0 discovered %v for a router one hop away, want only 0 and 1", tr.queue)
	}
	if h := far.HopsTo(0); h != 6 || len(tr.queue) != 7 || c.Stats().Computes != 1 {
		t.Fatalf("far: hops=%d, tree discovered %v, %d trees", h, tr.queue, c.Stats().Computes)
	}
}

func TestCacheWithoutVersioningAlwaysRecomputes(t *testing.T) {
	eng := sim.NewEngine(1)
	d := chain(5) // no Version method
	c := NewCache(d)
	c.Fill(nil, 0, eng.Now())
	d.unlink(3, 4) // no version to bump — next fill must still see it
	v := c.Fill(nil, 0, eng.Now())
	if st := c.Stats(); st.Computes != 2 || st.Captures != 2 {
		t.Fatalf("%+v, want a capture and a compute on every fill without versioning", st)
	}
	if v.Hops(4) != -1 {
		t.Fatal("unversioned cache returned a stale view")
	}
	// A router never takes the restamp shortcut without versions.
	r := New(eng, 0, c, Config{})
	r.Start()
	r.HopsTo(4)
	d.link(3, 4)
	r.Refresh()
	if h := r.HopsTo(4); h != 4 {
		t.Fatalf("unversioned refresh kept a stale view, hops=%d", h)
	}
	if st := c.Stats(); st.Hits != 0 || st.SnapshotsHWM != 1 || c.live() != 1 {
		t.Fatalf("%+v live=%d, want no hits and one snapshot recycled over and over", st, c.live())
	}
}

// TestSharedCacheAcrossRouters is the contract of the node package's
// usage: routers share one cache, each adopting per its own timer, and
// a router that has not refreshed holds its stale view across later
// captures — whether or not it had consulted that view yet.
func TestSharedCacheAcrossRouters(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(5)}
	c := NewCache(d)
	r0 := New(eng, 0, c, Config{})
	r2 := New(eng, 2, c, Config{})
	r4 := New(eng, 4, c, Config{})
	for _, r := range []*Router{r0, r2, r4} {
		r.Start()
	}
	if nh, _ := r0.NextHop(4); nh != 1 {
		t.Fatalf("r0 next hop %v", nh)
	}
	if nh, _ := r2.NextHop(0); nh != 1 {
		t.Fatalf("r2 next hop %v", nh)
	}
	// Partition and bump; only r0 refreshes. r2 keeps its stale view —
	// the paper's staleness semantics survive the shared cache.
	d.unlink(2, 3)
	d.ver++
	eng.RunFor(sim.Second)
	r0.Refresh()
	if h := r0.HopsTo(4); h != -1 {
		t.Fatalf("r0 refresh missed the partition, hops=%d", h)
	}
	if h := r2.HopsTo(4); h != 2 {
		t.Fatalf("r2 should still hold its stale view, hops=%d", h)
	}
	// r4 never consulted its start-time view: its tree must grow over the
	// adjacency of its refresh, not today's.
	if nh, ok := r4.NextHop(0); !ok || nh != 3 || r4.HopsTo(0) != 4 {
		t.Fatalf("r4's deferred view saw a later topology: next=%v,%v hops=%d", nh, ok, r4.HopsTo(0))
	}
	if c.live() != 2 {
		t.Fatalf("live=%d, want the stale and the current snapshot", c.live())
	}
	r2.Refresh()
	if h := r2.HopsTo(4); h != -1 {
		t.Fatal("r2 refresh should adopt the new snapshot")
	}
	requireAccounting(t, c, r0, r2, r4)
}

// TestCacheEvictsSupersededVersions pins the snapshot lifetime, the
// memory bound under mobility: a router keeps its snapshot pinned, read
// or not, until it refreshes at another version; a superseded snapshot
// lives exactly as long as some router still pins it; retained snapshots
// never exceed the distinct versions pinned (plus the current one); and
// a released snapshot's arrays, trees included, serve the next capture.
func TestCacheEvictsSupersededVersions(t *testing.T) {
	eng := sim.NewEngine(1)
	d := &verDir{gridDir: chain(8)}
	c := NewCache(d)
	var rs []*Router
	for src := 0; src < 4; src++ {
		r := New(eng, packet.NodeID(src), c, Config{})
		r.Start()
		rs = append(rs, r)
	}
	v0 := c.cur
	if st := c.Stats(); st.Captures != 1 || st.Recycled != 0 || v0.refs != 4 {
		t.Fatalf("four routers at one version: %+v refs=%d, want one shared snapshot", st, v0.refs)
	}
	// Router 0 reads version 0 and grows a tree on it.
	if h := rs[0].HopsTo(7); h != 7 {
		t.Fatalf("hops=%d", h)
	}
	// Three more versions; router i refreshes at version i, so each of
	// the four versions is pinned by exactly one router.
	for i := 1; i < 4; i++ {
		d.ver++
		rs[i].Refresh()
	}
	if st := c.Stats(); c.live() != 4 || st.SnapshotsHWM != 4 || st.Recycled != 0 || st.Unconsulted != 3 {
		t.Fatalf("live=%d %+v, want 4 pinned versions retained and 3 refreshes superseded unread", c.live(), st)
	}
	// Reading does not release: version 0 still answers for router 0.
	if h := rs[0].HopsTo(7); h != 7 || c.live() != 4 {
		t.Fatalf("hops=%d live=%d", h, c.live())
	}
	// A refresh at the current version releases version 0: superseded and
	// unpinned, it is recycled. A refresh at the version held is a hit.
	rs[0].Refresh()
	rs[3].Refresh()
	if st := c.Stats(); st.Recycled != 1 || c.live() != 3 || len(c.free) != 1 || c.free[0] != v0 || st.Hits != 1 {
		t.Fatalf("live=%d free=%d %+v, want version 0's snapshot recycled alone and one hit", c.live(), len(c.free), st)
	}
	// The next capture takes version 0's arrays straight back, with no
	// trees left on them, and serves correctly.
	d.unlink(6, 7)
	d.ver++
	rs[0].Refresh()
	if c.cur != v0 || v0.version != d.ver || v0.live != 0 || len(c.free) != 0 || c.Stats().Captures != 5 {
		t.Fatal("capture did not reuse the recycled snapshot")
	}
	if h := rs[0].HopsTo(7); h != -1 {
		t.Fatalf("recycled-snapshot tree wrong: hops(7)=%d", h)
	}
	// Versions 1 and 2 are pinned by routers 1 and 2, version 3 by router
	// 3, the current one by router 0.
	if c.live() != 4 || c.Stats().SnapshotsHWM != 4 {
		t.Fatalf("live=%d, want 4", c.live())
	}
	requireAccounting(t, c, rs...)
	for _, r := range rs {
		r.HopsTo(0)
	}
	if st := c.Stats(); st.Hits+st.Consulted+st.Unconsulted != st.Fills {
		t.Fatalf("every router read its view, yet %+v leaves refreshes pending", st)
	}
}

// TestTreesMatchFullViews is the equivalence property of destination
// trees. Over random undirected graphs — several components, isolated
// nodes, ids on both sides of 255/256 — every router's NextHop and HopsTo
// for every destination must equal the full view Fill computes from that
// router over the same snapshot. The pairs are asked in a random order,
// so how far a tree has grown when a router asks depends on who asked
// before; the answer must not.
func TestTreesMatchFullViews(t *testing.T) {
	eng := sim.NewEngine(1)
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		n := 250 + rnd.Intn(50)
		d := &verDir{gridDir: newDir(n)}
		parts := 1 + rnd.Intn(3)
		part := make([]int, n)
		for i := range part {
			part[i] = rnd.Intn(parts)
			if rnd.Float64() < 0.05 {
				part[i] = -1 - i // isolated: a part of its own
			}
		}
		p := 5 * float64(parts) / float64(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if part[i] == part[j] && rnd.Float64() < p {
					d.link(packet.NodeID(i), packet.NodeID(j))
				}
			}
		}
		c := NewCache(d)
		rs := make([]*Router, n)
		views := make([]*View, n)
		for i := range rs {
			rs[i] = New(eng, packet.NodeID(i), c, Config{})
			rs[i].Start()
			views[i] = c.Fill(nil, packet.NodeID(i), 0)
		}
		for _, k := range rnd.Perm(n * n) {
			r, dst, want := rs[k/n], packet.NodeID(k%n), views[k/n]
			nextFirst := rnd.Intn(2) == 0
			var gn packet.NodeID
			var gok bool
			if nextFirst {
				gn, gok = r.NextHop(dst)
			}
			gh := r.HopsTo(dst)
			if !nextFirst {
				gn, gok = r.NextHop(dst)
			}
			wn, wok := want.NextHop(dst)
			if wh := want.Hops(dst); gh != wh || gok != wok || (gok && gn != wn) {
				t.Fatalf("seed %d: router %d dst %v: got hops=%d next=%v,%v; full view hops=%d next=%v,%v",
					seed, k/n, dst, gh, gn, gok, wh, wn, wok)
			}
		}
		if st := c.Stats(); st.Captures != 1 || st.Computes != uint64(2*n) {
			t.Fatalf("seed %d: %+v, want one capture, n full views and one tree per destination", seed, st)
		}
		requireAccounting(t, c, rs...)
	}
}

var sinkHop packet.NodeID

// BenchmarkRouterNextHop is the consult fast path: the trees already
// reach the router, so a consult is a tree lookup and a scan of the
// router's neighbor row.
func BenchmarkRouterNextHop(b *testing.B) {
	eng := sim.NewEngine(1)
	r := New(eng, 0, NewCache(&verDir{gridDir: chain(64)}), Defaults())
	r.Start()
	r.NextHop(63)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHop, _ = r.NextHop(packet.NodeID(1 + i&31))
	}
}
