package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/mobility"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
)

// bruteDir reimplements the Linked oracle from first principles —
// positions, squared distances, failure and budget state — with no
// caching whatsoever. The epoch snapshot must agree with it exactly, at
// every instant, across topology families, mobility, failures and
// battery deaths.
type bruteDir struct{ nw *Network }

func (d bruteDir) N() int { return d.nw.N() }

func (d bruteDir) Linked(a, b packet.NodeID) bool {
	nw := d.nw
	if a == b || nw.down[a] || nw.down[b] || nw.BudgetExhausted(a) || nw.BudgetExhausted(b) {
		return false
	}
	tp := nw.Topology()
	d2 := tp.Position(a).Dist2(tp.Position(b))
	rng := nw.chann.Range()
	return d2 <= rng*rng
}

// bruteViews is the full view from every node, computed by a
// source-rooted BFS over the brute-force oracle right now.
func bruteViews(nw *Network) []*routing.View {
	c := routing.NewCache(bruteDir{nw})
	views := make([]*routing.View, nw.N())
	for i := range views {
		views[i] = c.Fill(nil, packet.NodeID(i), 0)
	}
	return views
}

// requireRouterMatchesView compares a router's NextHop and HopsTo for
// every destination against a full view.
func requireRouterMatchesView(t *testing.T, tag string, src packet.NodeID, r *routing.Router, want *routing.View, n int) {
	t.Helper()
	for j := 0; j < n; j++ {
		dst := packet.NodeID(j)
		gh, wh := r.HopsTo(dst), want.Hops(dst)
		gn, gok := r.NextHop(dst)
		wn, wok := want.NextHop(dst)
		if gh != wh || gok != wok || (gok && gn != wn) {
			t.Fatalf("%s: src %v dst %v: router hops=%d next=%v,%v; brute force hops=%d next=%v,%v",
				tag, src, dst, gh, gn, gok, wh, wn, wok)
		}
	}
}

// checkAgainstBrute compares the network's cached substrate — Linked,
// Neighbors, and every router's freshly adopted view — against the
// brute-force oracle.
func checkAgainstBrute(t *testing.T, tag string, nw *Network) {
	t.Helper()
	brute := bruteDir{nw}
	n := nw.N()
	for i := 0; i < n; i++ {
		a := packet.NodeID(i)
		var want []packet.NodeID
		for j := 0; j < n; j++ {
			b := packet.NodeID(j)
			bw := brute.Linked(a, b)
			if got := nw.Linked(a, b); got != bw {
				t.Fatalf("%s: Linked(%v,%v)=%v, brute force says %v", tag, a, b, got, bw)
			}
			if bw {
				want = append(want, b)
			}
		}
		got := nw.Neighbors(a)
		if len(got) != len(want) {
			t.Fatalf("%s: Neighbors(%v)=%v, want %v", tag, a, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: Neighbors(%v)=%v, want %v", tag, a, got, want)
			}
		}
	}
	// Every router refreshes now (epoch-cached path) and must match a
	// full source-rooted BFS over the brute-force oracle.
	views := bruteViews(nw)
	for i := 0; i < n; i++ {
		src := packet.NodeID(i)
		r := nw.Node(src).Router
		r.Refresh()
		requireRouterMatchesView(t, tag, src, r, views[i], n)
	}
}

// deferredViews is the refresh-now, consult-later half of the property
// suite: static probe routers pin the network's adjacency at one instant,
// next to reference views computed on the spot by BFS over the
// brute-force oracle.
type deferredViews struct {
	probes []*routing.Router
	refs   []*routing.View
}

// pinDeferred refreshes one probe per source over the network's shared
// snapshot cache and takes the brute-force reference views, now.
func pinDeferred(eng *sim.Engine, nw *Network) deferredViews {
	d := deferredViews{refs: bruteViews(nw)}
	for i := 0; i < nw.N(); i++ {
		probe := routing.New(eng, packet.NodeID(i), nw.Views(), routing.Config{})
		probe.Start()
		d.probes = append(d.probes, probe)
	}
	return d
}

// check consults the probes for the first time — however far link state
// has moved on since — and requires the routes of the refresh instant.
func (d deferredViews) check(t *testing.T, tag string) {
	t.Helper()
	for i, probe := range d.probes {
		requireRouterMatchesView(t, tag, packet.NodeID(i), probe, d.refs[i], len(d.probes))
	}
}

// TestEpochCachedViewsMatchUncachedBFS is the seeded property test of
// the epoch substrate: across topology families and mobility seeds —
// with node failures and draining energy budgets thrown in — the cached
// adjacency and the views computed from the shared snapshot cache must be
// element-identical to brute-force recomputation, both when consulted at
// the refresh and when first consulted a step later, after mobility,
// failures and battery deaths have moved the link-state version on. The
// reference is a source-rooted BFS over the brute-force oracle; the
// routers read destination-rooted trees.
func TestEpochCachedViewsMatchUncachedBFS(t *testing.T) {
	families := []struct {
		name  string
		build func(seed int64) *topology.Topology
	}{
		{"chain", func(int64) *topology.Topology { return topology.Linear(12, 80) }},
		{"grid", func(int64) *topology.Topology { return topology.GridN(16, 80) }},
		{"star", func(int64) *topology.Topology { return topology.Star(10, 90) }},
		{"rgg", func(seed int64) *topology.Topology {
			tp, ok := topology.Random(20, 100, rand.New(rand.NewSource(seed)), 200)
			if !ok {
				panic("rgg generation failed")
			}
			return tp
		}},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fam.name, func(t *testing.T) {
				eng := sim.NewEngine(seed)
				tp := fam.build(seed)
				n := tp.N()
				budgets := make([]float64, n)
				budgets[1] = 0.004 // dies once charged past the headroom
				nw := New(eng, Config{
					Topo:    tp,
					Channel: channel.Defaults(),
					MAC:     mac.Defaults(),
					Routing: routing.Defaults(),
					Energy:  energy.JAVeLEN(),
					Budgets: budgets,
				})
				mob := mobility.New(eng, tp, tp.Field, mobility.Defaults(5))
				nw.Start()
				mob.Start()
				checkAgainstBrute(t, fam.name+"/start", nw)
				bumped := 0
				for step := 0; step < 4; step++ {
					pinned, ver := pinDeferred(eng, nw), nw.Version()
					eng.RunFor(700 * sim.Millisecond)
					switch step {
					case 1:
						nw.SetDown(packet.NodeID(n-1), true)
					case 2:
						// Drain node 1's battery mid-epoch: the views
						// must drop it at the very next refresh.
						nw.Node(1).Meter.ChargeTx(1.0)
					case 3:
						nw.SetDown(packet.NodeID(n-1), false)
					}
					checkAgainstBrute(t, fam.name+"/step", nw)
					if nw.Version() != ver {
						bumped++
					}
					pinned.check(t, fam.name+"/deferred")
				}
				if bumped < 3 {
					t.Fatalf("only %d of 4 steps moved the link-state version; the deferred check needs bumps", bumped)
				}
				// Every probe was read; once every node's router reads
				// its last refresh too, no refresh is left pending, so
				// each was exactly one of hit, consulted or unconsulted.
				for i := 0; i < n; i++ {
					nw.Node(packet.NodeID(i)).Router.HopsTo(0)
				}
				if st := nw.Views().Stats(); st.Hits+st.Consulted+st.Unconsulted != st.Fills {
					t.Fatalf("refresh accounting does not close: %+v", st)
				}
			})
		}
	}
}

// requireSymmetric checks the precondition routing reads routes under:
// v is among u's neighbors exactly when u is among v's, for every pair.
func requireSymmetric(t *testing.T, tag string, nw *Network) {
	t.Helper()
	n := nw.N()
	linked := make([][]bool, n)
	for u := range linked {
		linked[u] = make([]bool, n)
		for _, v := range nw.Neighbors(packet.NodeID(u)) {
			linked[u][v] = true
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if linked[u][v] != linked[v][u] {
				t.Fatalf("%s: %d in Neighbors(%d) is %v, %d in Neighbors(%d) is %v",
					tag, v, u, linked[u][v], u, v, linked[v][u])
			}
		}
	}
}

// TestNeighborsSymmetric guards the routing.Directory precondition:
// routers read a route from a tree grown at its destination, which is the
// shortest path from the router only if every link can be walked both
// ways. Mobility steps, a failure and its revival, and a battery death in
// a budgeted run must all leave the neighbor relation symmetric.
func TestNeighborsSymmetric(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng := sim.NewEngine(seed)
		tp, ok := topology.Random(30, 100, rand.New(rand.NewSource(seed)), 200)
		if !ok {
			t.Fatal("rgg generation failed")
		}
		budgets := make([]float64, tp.N())
		budgets[2] = 0.004 // dies once charged past the headroom
		nw := New(eng, Config{
			Topo:    tp,
			Channel: channel.Defaults(),
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
			Budgets: budgets,
		})
		mob := mobility.New(eng, tp, tp.Field, mobility.Config{Speed: 10, MeanLegDistance: 47, MeanPause: 1, Step: 100 * sim.Millisecond})
		nw.Start()
		mob.Start()
		requireSymmetric(t, "start", nw)
		for step := 0; step < 8; step++ {
			eng.RunFor(500 * sim.Millisecond)
			switch step {
			case 2:
				nw.SetDown(5, true)
			case 4:
				nw.Node(2).Meter.ChargeTx(1.0)
			case 6:
				nw.SetDown(5, false)
			}
			requireSymmetric(t, "step", nw)
		}
		if !nw.BudgetExhausted(2) || len(nw.Neighbors(2)) != 0 {
			t.Fatalf("seed %d: node 2's battery death did not take it off the graph", seed)
		}
	}
}

// TestSnapshotsBoundedUnderMobility pins the memory bound of routers
// keeping their snapshot until they refresh at another version: the
// versions routers hold were all read within one maximal refresh
// interval, UpdatePeriod+UpdateJitter/2, and the link state moves at most
// once per mobility step, so at most ⌈(UpdatePeriod+UpdateJitter/2)/Step⌉
// + 2 snapshots are retained at once (the +2 covers the version current
// when the window opened and the cache's current one).
func TestSnapshotsBoundedUnderMobility(t *testing.T) {
	eng := sim.NewEngine(3)
	tp, ok := topology.Random(40, 100, rand.New(rand.NewSource(3)), 200)
	if !ok {
		t.Fatal("rgg generation failed")
	}
	cfg := routing.Defaults()
	mcfg := mobility.Config{Speed: 10, MeanLegDistance: 47, MeanPause: 1, Step: 100 * sim.Millisecond}
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: cfg,
		Energy:  energy.JAVeLEN(),
	})
	mobility.New(eng, tp, tp.Field, mcfg).Start()
	nw.Start()
	for i := 0; i < 300; i++ {
		eng.RunFor(100 * sim.Millisecond)
		// Consult some routers, so held snapshots carry trees.
		r := nw.Node(packet.NodeID(i % nw.N())).Router
		r.NextHop(packet.NodeID((i * 7) % nw.N()))
	}
	window := cfg.UpdatePeriod + cfg.UpdateJitter/2
	bound := uint64((window+mcfg.Step-1)/mcfg.Step) + 2
	st := nw.Views().Stats()
	if st.SnapshotsHWM > bound {
		t.Fatalf("%d snapshots retained at once, bound %d: %+v", st.SnapshotsHWM, bound, st)
	}
	if st.SnapshotsHWM < bound/2 {
		t.Fatalf("only %d snapshots retained at once; the case needs the link state moving every step: %+v", st.SnapshotsHWM, st)
	}
}

// TestAllocsRouterRefreshEpochCached pins the steady-state cost of a
// router refresh within an unchanged link-state epoch: a version check
// and a pin of the shared snapshot — zero allocations.
func TestAllocsRouterRefreshEpochCached(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.GridN(49, 80),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	eng.RunFor(2 * sim.Second) // every router refreshed at least once
	r := nw.Node(10).Router
	r.Refresh()
	if allocs := testing.AllocsPerRun(200, r.Refresh); allocs != 0 {
		t.Fatalf("Router.Refresh within an unchanged epoch allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsRouterTickMoveTickConsult pins the steady state of the
// deferred path under mobility — a refresh, a move that changes some
// neighbor set, a refresh that releases the old version and captures the
// new version's adjacency, and the consult that starts and grows a tree
// on it: snapshots recycled with their tree arrays, zero allocations.
func TestAllocsRouterTickMoveTickConsult(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(49, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	eng.RunFor(2 * sim.Second)
	r := nw.Node(10).Router
	id := packet.NodeID(24)
	base := tp.Position(id)
	far := false
	cycle := func() {
		r.Refresh()
		// 80 m lattice, 100 m range: 30 m along the diagonal brings one
		// diagonal neighbor (113 m away) into range and back out.
		far = !far
		p := base
		if far {
			p = geom.Point{X: base.X + 30, Y: base.Y + 30}
		}
		tp.SetPosition(id, p)
		r.Refresh()
		if _, ok := r.NextHop(id); !ok {
			t.Fatal("no route across the grid")
		}
	}
	before := nw.Views().Stats()
	for i := 0; i < 4; i++ {
		cycle() // warm the recycled snapshots and their trees
	}
	if st := nw.Views().Stats(); st.Captures != before.Captures+4 || st.Computes != before.Computes+4 {
		t.Fatalf("each cycle must capture once and start one tree: %+v after %+v", st, before)
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("tick, move, tick, consult allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsRouterConsult pins the per-packet cost of routing: a consult
// whose destination tree already reaches the router is a lookup and a
// scan of the router's neighbor row — zero allocations.
func TestAllocsRouterConsult(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.GridN(49, 80),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	eng.RunFor(2 * sim.Second)
	r := nw.Node(10).Router
	consult := func() {
		if _, ok := r.NextHop(48); !ok || r.HopsTo(0) < 1 {
			t.Fatal("no route across the grid")
		}
	}
	consult()
	if allocs := testing.AllocsPerRun(200, consult); allocs != 0 {
		t.Fatalf("a consult of grown trees allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsLinkPatchWithinCell pins the steady-state incremental patch:
// a node drifting within its grid cell, neighbor set unchanged, costs a
// grid key compare, a candidate gather from its cached neighborhood and a
// sort in reused buffers, and touches no row — zero allocations per
// move+query cycle.
func TestAllocsLinkPatchWithinCell(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(64, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	id := packet.NodeID(17)
	base := tp.Position(id)
	step := 0
	move := func() {
		step++
		// ≤0.5 m jiggle on an 80 m lattice inside 100 m cells: same cell,
		// same neighbor set.
		d := 0.25 * float64(step%3)
		tp.SetPosition(id, geom.Point{X: base.X + d, Y: base.Y + d})
		nw.Version()
	}
	nw.Version() // build the snapshot
	move()       // warm delta buffers and scratch
	if allocs := testing.AllocsPerRun(200, move); allocs != 0 {
		t.Fatalf("within-cell patch allocates %.1f/op, want 0", allocs)
	}
}

// TestAllocsLinkPatchCellCrossing pins the patch of a node crossing
// between two cells that are both already open: a re-bucket, a fresh
// resolve of its 3×3 neighborhood, and row splices that gain and lose
// neighbors in rows at their steady-state capacity — zero allocations
// per move+query cycle.
func TestAllocsLinkPatchCellCrossing(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(64, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	// Node 17 sits at (80,160) in cell (0,1) on the 80 m lattice; at
	// (110,160) it is in cell (1,1) with node 18, out of node 16's range
	// and in range of nodes 10 and 26.
	id := packet.NodeID(17)
	base := tp.Position(id)
	far := false
	move := func() {
		far = !far
		p := base
		if far {
			p.X += 30
		}
		tp.SetPosition(id, p)
		nw.Version()
	}
	v := nw.Version() // build the snapshot
	for i := 0; i < 4; i++ {
		move() // warm delta buffers, scratch and row capacities
		nv := nw.Version()
		if nv == v {
			t.Fatalf("move %d kept every neighbor set; the case needs edges to change", i)
		}
		v = nv
		if linked := slices.Contains(nw.Neighbors(id), 16); linked == far {
			t.Fatalf("move %d: node 16 linked=%v with node 17 far=%v", i, linked, far)
		}
	}
	if allocs := testing.AllocsPerRun(200, move); allocs != 0 {
		t.Fatalf("cell-crossing patch allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkLinkPatchMobile measures the link-state patch under the
// paper's mobility: a 96-node random field, random-waypoint walkers at
// 1 and 5 m/s (100 s mean pause), one 100 ms mobility step and one
// Version per op, so each op patches the rows of the nodes that moved.
func BenchmarkLinkPatchMobile(b *testing.B) {
	for _, speed := range []float64{1, 5} {
		b.Run(fmt.Sprintf("speed=%g", speed), func(b *testing.B) {
			tp, ok := topology.Random(96, 100, rand.New(rand.NewSource(1)), 200)
			if !ok {
				b.Fatal("rgg generation failed")
			}
			eng := sim.NewEngine(1)
			nw := New(eng, Config{
				Topo:    tp,
				Channel: channel.Defaults(),
				MAC:     mac.Defaults(),
				Routing: routing.Defaults(),
				Energy:  energy.JAVeLEN(),
			})
			cfg := mobility.Defaults(speed)
			mobility.New(eng, tp, tp.Field, cfg).Start()
			nw.Version()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunFor(cfg.Step)
				nw.Version()
			}
		})
	}
}

// TestPatchedSnapshotRowsMatchRebuild drives mobility through the
// incremental patch path and pins every neighbor row element-identical
// against a second network built fresh at the same positions (whose
// snapshot can only come from a full rebuild).
func TestPatchedSnapshotRowsMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng := sim.NewEngine(seed)
		tp, ok := topology.Random(30, 100, rand.New(rand.NewSource(seed)), 200)
		if !ok {
			t.Fatal("rgg generation failed")
		}
		nw := New(eng, Config{
			Topo:    tp,
			Channel: channel.Defaults(),
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
		})
		mob := mobility.New(eng, tp, tp.Field, mobility.Defaults(5))
		nw.Start()
		mob.Start()
		for step := 0; step < 5; step++ {
			eng.RunFor(500 * sim.Millisecond)
			nw.Version() // bring the snapshot current via the patch path
			checkRowsAgainstRebuild(t, nw, seed, step)
		}
	}
}

// checkRowsAgainstRebuild compares every node's Neighbors row of a
// patched network element-identical against a network built fresh at the
// same positions.
func checkRowsAgainstRebuild(t *testing.T, nw *Network, seed int64, step int) {
	t.Helper()
	fresh := New(sim.NewEngine(1), Config{
		Topo:    nw.Topology().Clone(),
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	for i := 0; i < nw.N(); i++ {
		a := packet.NodeID(i)
		if got, want := nw.Neighbors(a), fresh.Neighbors(a); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: Neighbors(%v)=%v patched, %v rebuilt", seed, step, a, got, want)
		}
	}
}

// TestPartiallyPatchedSnapshotRowsMatchRebuild is the row check for
// patchRow's merge-walk. Random-waypoint mobility moves (nearly) every
// node each tick in 2.5 m steps, so the test above hardly ever crosses a
// grid cell and mostly re-tests skinned rows. Here a handful of nodes
// jump per step (up to ±75 m on 100 m cells, so cells are crossed and
// edges appear and vanish), each jump outruns every skin, and every
// mover re-gathers: the mover's own row and every mirrored neighbor
// entry must equal a fresh build.
func TestPartiallyPatchedSnapshotRowsMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, ok := topology.Random(60, 100, rng, 200)
		if !ok {
			t.Fatal("rgg generation failed")
		}
		nw := New(sim.NewEngine(seed), Config{
			Topo:    tp,
			Channel: channel.Defaults(),
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
		})
		v0 := nw.Version()
		moved := 0
		for step := 0; step < 40; step++ {
			// Distinct ids, so the fold's delta is exactly k rows.
			k := 1 + rng.Intn(7)
			for _, i := range rng.Perm(nw.N())[:k] {
				id := packet.NodeID(i)
				p := tp.Position(id)
				tp.SetPosition(id, geom.Point{
					X: p.X + 150*rng.Float64() - 75,
					Y: p.Y + 150*rng.Float64() - 75,
				})
			}
			moved += k
			nw.Version()
			checkRowsAgainstRebuild(t, nw, seed, step)
		}
		if c := nw.LinkStateCounters(); c.FullRebuilds != 1 || c.RowsPatched != uint64(moved) {
			t.Fatalf("seed %d: %d full rebuilds, %d rows patched; want 1 and %d (every step on the patch path)",
				seed, c.FullRebuilds, c.RowsPatched, moved)
		}
		if nw.Version() == v0 {
			t.Fatalf("seed %d: no step changed a neighbor set; the case needs edge inserts and removes", seed)
		}
	}
}

// TestLinkVersionBumpsOnlyOnNeighborChange pins the spurious-BFS fix:
// a mobility batch whose moves keep every neighbor set identical must
// not advance the link-state version (memoized views stay valid), while
// a batch that changes some adjacency must. The patch counters
// (LinkStateCounters) account both.
func TestLinkVersionBumpsOnlyOnNeighborChange(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topology.GridN(16, 80)
	nw := New(eng, Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	v0 := nw.Version()

	// Within-range drift: three nodes jiggle by a meter. 80 m lattice,
	// 100 m range — no adjacency can flip.
	for _, i := range []int{3, 7, 11} {
		p := tp.Position(packet.NodeID(i))
		tp.SetPosition(packet.NodeID(i), geom.Point{X: p.X + 1, Y: p.Y})
	}
	if v := nw.Version(); v != v0 {
		t.Fatalf("version %d -> %d on a neighbor-preserving batch, want unchanged", v0, v)
	}
	if c := nw.LinkStateCounters(); c.RowsPatched != 3 || c.PatchEpochs != 1 {
		t.Fatalf("patch counters = %+v, want 3 rows over 1 epoch", c)
	}

	// Pull a corner node out of everyone's range: adjacency changed, the
	// version must move and routes recompute.
	tp.SetPosition(0, geom.Point{X: -5000, Y: -5000})
	if v := nw.Version(); v == v0 {
		t.Fatal("version unchanged although node 0 left the network")
	}
	if nw.Linked(0, 1) {
		t.Fatal("node 0 still linked after leaving")
	}
	if got := nw.LinkStateCounters().RowsPatched; got != 4 {
		t.Fatalf("rows patched = %d, want 4", got)
	}
}
