package topology

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
)

// bruteAdjacency is the O(n²) all-pairs oracle the spatial-hash path is
// pinned against: every ordered pair within the squared range, ascending.
func bruteAdjacency(tp *Topology, radioRange float64) [][]packet.NodeID {
	n := tp.N()
	r2 := radioRange * radioRange
	adj := make([][]packet.NodeID, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && tp.Pos[i].Dist2(tp.Pos[j]) <= r2 {
				adj[i] = append(adj[i], packet.NodeID(j))
			}
		}
	}
	return adj
}

// gridRows derives every node's neighbor row through an incrementally
// maintained grid (candidates → range filter → sort), the same
// derivation the node package's link snapshot uses.
func gridRows(g *SpatialGrid, tp *Topology, radioRange float64) [][]packet.NodeID {
	n := tp.N()
	r2 := radioRange * radioRange
	rows := make([][]packet.NodeID, n)
	var cand []packet.NodeID
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		cand = g.AppendCandidates(cand[:0], id)
		for _, j := range cand {
			if j != id && tp.Pos[i].Dist2(tp.Pos[int(j)]) <= r2 {
				rows[i] = append(rows[i], j)
			}
		}
		slices.Sort(rows[i])
	}
	return rows
}

// mapWalkCandidates is the reference gather: the 3×3 neighborhood of
// id's cell, computed from its position and walked through the cell map
// in (dx, dy) order, with no cached state.
func mapWalkCandidates(g *SpatialGrid, id packet.NodeID) []packet.NodeID {
	p := g.t.Pos[int(id)]
	cx, cy := cellCoord(p.X, g.side), cellCoord(p.Y, g.side)
	var out []packet.NodeID
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			if bi, ok := g.cells[packCell(cx+dx, cy+dy)]; ok {
				out = append(out, g.buckets[bi].nodes...)
			}
		}
	}
	return out
}

// requireMapWalkOrder pins every node's AppendCandidates to the map walk
// element for element, in order — not just as a set.
func requireMapWalkOrder(t *testing.T, label string, g *SpatialGrid) {
	t.Helper()
	var buf []packet.NodeID
	for i := range g.t.Pos {
		id := packet.NodeID(i)
		buf = g.AppendCandidates(buf[:0], id)
		if want := mapWalkCandidates(g, id); !slices.Equal(buf, want) {
			t.Fatalf("%s: node %d candidates %v, map walk %v", label, i, buf, want)
		}
	}
}

func requireSameAdjacency(t *testing.T, label string, got, want [][]packet.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g) != len(w) {
			t.Fatalf("%s: node %d row %v, want %v", label, i, g, w)
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: node %d row %v, want %v", label, i, g, w)
			}
		}
	}
}

// gridTestFamilies builds the four topology families at a given seed.
func gridTestFamilies(seed int64) map[string]*Topology {
	rng := rand.New(rand.NewSource(seed))
	rgg, _ := Random(40, 100, rng, 200) // connectivity irrelevant here
	return map[string]*Topology{
		"chain": Linear(17, 80),
		"grid":  GridN(30, 90),
		"star":  Star(12, 95),
		"rgg":   rgg,
	}
}

// TestSpatialGridAdjacencyElementIdentical pins the grid-hash adjacency
// element-identical to the brute-force O(n²) oracle across topology
// families × seeds × radio ranges — including a zero range (only
// coincident nodes adjacent), a negative range (same disk as its
// magnitude, matching the squared-distance predicate), ranges that put
// lattice nodes exactly on cell boundaries, and random-waypoint-style
// mobility steps maintained through incremental Move calls rather than
// rebuilds. Every gather must also equal the uncached map walk in exact
// sequence, including around a cell that empties and is re-occupied and
// a never-seen cell opening beside a node whose neighborhood was already
// gathered.
func TestSpatialGridAdjacencyElementIdentical(t *testing.T) {
	ranges := []float64{0, -100, 25, 80, 100, 250, 1e9}
	for _, seed := range []int64{1, 7, 42} {
		for name, tp := range gridTestFamilies(seed) {
			for _, r := range ranges {
				g := NewSpatialGrid(tp, gridSideFor(r))
				requireSameAdjacency(t, name, gridRows(g, tp, r), bruteAdjacency(tp, r))
				requireMapWalkOrder(t, name, g)

				// Mobility: jitter a third of the nodes per step, snapping
				// some onto exact cell-boundary coordinates, and keep the
				// grid current with Move only.
				mrng := rand.New(rand.NewSource(seed*1000 + int64(len(name))))
				for step := 0; step < 5; step++ {
					for i := 0; i < tp.N(); i++ {
						if mrng.Intn(3) != 0 {
							continue
						}
						id := packet.NodeID(i)
						p := geom.Point{
							X: (mrng.Float64() - 0.5) * 600,
							Y: (mrng.Float64() - 0.5) * 600,
						}
						if mrng.Intn(4) == 0 {
							// Exactly on a cell corner (multiples of the side).
							p.X = float64(mrng.Intn(7)-3) * gridSideFor(r)
							p.Y = float64(mrng.Intn(7)-3) * gridSideFor(r)
						}
						tp.SetPosition(id, p)
						g.Move(id)
					}
					requireSameAdjacency(t, name,
						gridRows(g, tp, r), bruteAdjacency(tp, r))
					requireMapWalkOrder(t, name, g)
				}
			}
		}
	}

	// Cell (1,0) holds only node 1. It empties (node 1 joins node 3 in
	// (1,1)) and is re-occupied, with no other cell opening, so nodes 0
	// and 2 must see it empty and then full again. The third batch empties
	// it while node 2 opens a never-seen cell far away, and the fourth
	// re-occupies both (1,0) and (2,0).
	runGridScript(t, "reoccupied",
		[]geom.Point{{X: 50, Y: 50}, {X: 150, Y: 50}, {X: 250, Y: 50}, {X: 150, Y: 150}},
		[][]gridMove{
			{{1, geom.Point{X: 160, Y: 160}}},
			{{1, geom.Point{X: 140, Y: 60}}},
			{{1, geom.Point{X: 160, Y: 160}}, {2, geom.Point{X: 250, Y: 850}}},
			{{1, geom.Point{X: 199, Y: 0}}, {2, geom.Point{X: 200, Y: 99}}},
		})

	// Node 0's neighborhood is gathered while cell (1,0) has never been
	// seen; node 1 then opens it, 100 m from node 0 (exactly in range).
	runGridScript(t, "opened",
		[]geom.Point{{X: 50, Y: 50}, {X: 550, Y: 550}},
		[][]gridMove{
			{{1, geom.Point{X: 150, Y: 50}}},
			{{1, geom.Point{X: 50, Y: 150}}},
		})
}

// gridMove is one scripted position write.
type gridMove struct {
	id packet.NodeID
	p  geom.Point
}

// runGridScript applies batches of moves on 100 m cells through Move. The
// rows and every gather sequence are checked at the start and after each
// batch, so each neighborhood has been gathered before the next batch
// changes the cells around it.
func runGridScript(t *testing.T, label string, pos []geom.Point, batches [][]gridMove) {
	t.Helper()
	tp := &Topology{Pos: pos}
	g := NewSpatialGrid(tp, gridSideFor(100))
	for step := 0; step <= len(batches); step++ {
		if step > 0 {
			for _, mv := range batches[step-1] {
				tp.SetPosition(mv.id, mv.p)
				g.Move(mv.id)
			}
		}
		requireSameAdjacency(t, label, gridRows(g, tp, 100), bruteAdjacency(tp, 100))
		requireMapWalkOrder(t, label, g)
	}
}

// TestEpochFoldAndLastDelta pins the read-triggered fold contract now
// that per-node deltas ride along: SetPosition never advances the epoch
// itself; an arbitrarily large batch folds into exactly one bump at the
// next Epoch read; and LastDelta reports precisely the nodes that moved
// in that batch, each once, remaining stable until the next fold.
func TestEpochFoldAndLastDelta(t *testing.T) {
	tp := Linear(6, 50)
	e0 := tp.Epoch()
	if d := tp.LastDelta(); len(d) != 0 {
		t.Fatalf("pristine LastDelta = %v, want empty", d)
	}

	// A batch: node 2 moves twice, node 4 once, node 1 written in place.
	tp.SetPosition(2, geom.Point{X: 1, Y: 1})
	tp.SetPosition(4, geom.Point{X: 2, Y: 2})
	tp.SetPosition(2, geom.Point{X: 3, Y: 3})
	tp.SetPosition(1, tp.Position(1)) // no-op: must not enter the delta
	if e := tp.Epoch(); e != e0+1 {
		t.Fatalf("batch advanced epoch by %d, want 1", e-e0)
	}
	d := append([]packet.NodeID(nil), tp.LastDelta()...)
	slices.Sort(d)
	if len(d) != 2 || d[0] != 2 || d[1] != 4 {
		t.Fatalf("LastDelta = %v, want [2 4]", d)
	}
	// Stable across reads without mutations.
	if tp.Epoch() != e0+1 || len(tp.LastDelta()) != 2 {
		t.Fatal("delta must persist until the next fold")
	}

	// Next batch supersedes the delta entirely.
	tp.SetPosition(0, geom.Point{X: 9, Y: 9})
	if e := tp.Epoch(); e != e0+2 {
		t.Fatalf("second batch advanced epoch to %d, want %d", e, e0+2)
	}
	if d := tp.LastDelta(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("second LastDelta = %v, want [0]", d)
	}
}

// TestBorderDistBoundsOutsideBlock pins the bound the link snapshot's
// skin relies on: every node outside a node's 3×3 neighborhood is at
// least one cell side plus BorderDist away, and BorderDist is 0 for a
// node on a cell border and never negative.
func TestBorderDistBoundsOutsideBlock(t *testing.T) {
	const side = 100.0
	rng := rand.New(rand.NewSource(1))
	pos := make([]geom.Point, 200)
	for i := range pos {
		pos[i] = geom.Point{X: 1000*rng.Float64() - 500, Y: 1000*rng.Float64() - 500}
	}
	pos[0], pos[1] = geom.Point{X: 200, Y: 50}, geom.Point{X: -100, Y: -350}
	tp := FromPositions(pos, 0)
	g := NewSpatialGrid(tp, side)
	if d0, d1 := g.BorderDist(0), g.BorderDist(1); d0 != 0 || d1 != 0 {
		t.Fatalf("BorderDist on a cell border = %v, %v, want 0", d0, d1)
	}
	var cand []packet.NodeID
	for i := range pos {
		id := packet.NodeID(i)
		b := g.BorderDist(id)
		if b < 0 || b > side/2 {
			t.Fatalf("node %d at %v: BorderDist %v outside [0, %v]", i, pos[i], b, side/2)
		}
		cand = g.AppendCandidates(cand[:0], id)
		for j := range pos {
			if !slices.Contains(cand, packet.NodeID(j)) && pos[i].Dist2(pos[j]) < (side+b)*(side+b) {
				t.Fatalf("node %d outside node %d's block is %v away, under side + BorderDist = %v",
					j, i, pos[i].Sub(pos[j]).Len(), side+b)
			}
		}
	}
}
