package topology

// The spatial-hash grid: positions bucketed into square cells whose side
// is the radio range, so a node's candidate neighbor set is the 3×3 cell
// neighborhood around its own cell instead of all n−1 other nodes. The
// grid is the substrate of both the one-shot helpers Connected and
// HopDistance and the node package's incrementally-patched link-state
// snapshot: Move re-buckets one node in O(1), so a mobility delta of k
// nodes costs O(k·deg) instead of O(n²).
//
// Correctness hinges on one inequality: with cell side ≥ range, two
// nodes within range differ by at most one cell index per axis
// (|a−b| ≤ side ⇒ |⌊a/side⌋−⌊b/side⌋| ≤ 1), so the 3×3 neighborhood is
// a complete candidate set — including nodes sitting exactly on a cell
// boundary, which ⌊·⌋ assigns to exactly one cell.

import (
	"math"
	"slices"

	"github.com/javelen/jtp/internal/packet"
)

// SpatialGrid is a spatial hash over a topology's positions. It indexes the
// topology it was built from; after any SetPosition the caller must
// Move (or Rebuild) before querying, since the grid does not observe
// position writes on its own. Cells are sparse — only cells that have
// held a node since the last Rebuild have a bucket — so memory is
// O(V + cells visited since the last Rebuild), not O(field area).
type SpatialGrid struct {
	t    *Topology
	side float64

	// cells maps packed cell coords to a bucket index. An emptied cell
	// keeps its entry and bucket until Rebuild, so len(cells) counts the
	// cells ever opened and a cached bucket index never dangles.
	cells   map[uint64]int32
	buckets []gridBucket
	nodes   []gridNode
}

// gridBucket holds the ids currently bucketed in one cell, unordered
// (consumers that need determinism sort their gathered candidates).
type gridBucket struct {
	nodes []packet.NodeID
}

// gridNode is one node's bookkeeping: its packed cell key, bucket index
// and slot within the bucket, so Move and remove are O(1) with no
// searching, plus its cached 3×3 neighborhood.
type gridNode struct {
	cellKey      uint64
	bucket, slot int32
	// nbhd holds the bucket index of each cell around the node's cell in
	// AppendCandidates' (dx, dy) order, −1 where a cell has no bucket. It
	// is valid while nbhdCells equals len(cells): the node has not changed
	// cell (insert sets −1) and no cell has opened since it was resolved.
	nbhd      [9]int32
	nbhdCells int32
}

// gridSideFor maps a radio range to a cell side: the range's magnitude,
// or 1 m for a degenerate range ≤ 0 (where only coincident nodes can be
// adjacent, and any positive side buckets coincident nodes together).
func gridSideFor(radioRange float64) float64 {
	side := math.Abs(radioRange)
	if side <= 0 {
		side = 1
	}
	return side
}

// cellCoord buckets one coordinate. Floor (not truncation) keeps the
// mapping consistent across negative coordinates.
func cellCoord(v, side float64) int32 {
	return int32(math.Floor(v / side))
}

// packCell packs signed cell coordinates into one map key; the uint32
// casts make the packing a bijection on int32 pairs.
func packCell(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// NewSpatialGrid builds a grid over t with the given cell side (use
// gridSideFor(range) — a side below the radio range breaks candidate
// completeness) and buckets every node.
func NewSpatialGrid(t *Topology, side float64) *SpatialGrid {
	if side <= 0 {
		side = 1
	}
	g := &SpatialGrid{side: side, cells: make(map[uint64]int32, t.N()/2+1)}
	g.Rebuild(t)
	return g
}

// Rebuild indexes t — the grid's topology or another one — and buckets
// every node from its current positions, reusing the existing buckets,
// map and per-node storage. It forgets every cell, emptied or not, and
// every cached neighborhood.
func (g *SpatialGrid) Rebuild(t *Topology) {
	g.t = t
	g.nodes = slices.Grow(g.nodes[:0], t.N())[:t.N()]
	clear(g.cells)
	for i := range g.buckets {
		g.buckets[i].nodes = g.buckets[i].nodes[:0]
	}
	g.buckets = g.buckets[:0]
	for i := range g.t.Pos {
		g.insert(packet.NodeID(i))
	}
}

// insert buckets id at its current position, opening the cell if it has
// no bucket, and marks id's cached neighborhood stale.
func (g *SpatialGrid) insert(id packet.NodeID) {
	p := g.t.Pos[int(id)]
	key := packCell(cellCoord(p.X, g.side), cellCoord(p.Y, g.side))
	bi, ok := g.cells[key]
	if !ok {
		// Within capacity this re-exposes a bucket Rebuild emptied, with
		// its storage.
		bi = int32(len(g.buckets))
		g.buckets = slices.Grow(g.buckets, 1)[:bi+1]
		g.cells[key] = bi
	}
	b := &g.buckets[bi]
	nd := &g.nodes[int(id)]
	nd.cellKey, nd.bucket, nd.slot = key, bi, int32(len(b.nodes))
	nd.nbhdCells = -1
	b.nodes = append(b.nodes, id)
}

// remove unbuckets id (swap-delete). An emptied cell keeps its bucket
// and map entry.
func (g *SpatialGrid) remove(id packet.NodeID) {
	nd := &g.nodes[int(id)]
	b := &g.buckets[nd.bucket]
	last := int32(len(b.nodes) - 1)
	if nd.slot != last {
		moved := b.nodes[last]
		b.nodes[nd.slot] = moved
		g.nodes[int(moved)].slot = nd.slot
	}
	b.nodes = b.nodes[:last]
}

// Move re-buckets id after a position change and reports whether its
// cell changed. A move within the cell is free: one coordinate hash and
// a key compare, no map or bucket traffic — the fast path for the many
// mobility steps that stay inside one cell.
func (g *SpatialGrid) Move(id packet.NodeID) bool {
	p := g.t.Pos[int(id)]
	key := packCell(cellCoord(p.X, g.side), cellCoord(p.Y, g.side))
	if key == g.nodes[int(id)].cellKey {
		return false
	}
	g.remove(id)
	g.insert(id)
	return true
}

// BorderDist returns id's distance to the nearest edge of its current
// cell. Every node outside id's 3×3 neighborhood is at least one cell
// side plus this distance away from id.
func (g *SpatialGrid) BorderDist(id packet.NodeID) float64 {
	p, key := g.t.Pos[int(id)], g.nodes[int(id)].cellKey
	x0, y0 := float64(int32(uint32(key>>32)))*g.side, float64(int32(uint32(key)))*g.side
	return min(p.X-x0, x0+g.side-p.X, p.Y-y0, y0+g.side-p.Y)
}

// AppendCandidates appends every node bucketed in the 3×3 cell
// neighborhood of id's current cell — a complete superset of id's
// in-range neighbors, id itself included — to buf and returns it.
// Order is bucket order (arbitrary); callers filter by distance and
// sort. The nine map lookups run once per node and are then reused until
// the node changes cell or some cell opens.
func (g *SpatialGrid) AppendCandidates(buf []packet.NodeID, id packet.NodeID) []packet.NodeID {
	nd := &g.nodes[int(id)]
	if nd.nbhdCells != int32(len(g.cells)) {
		cx, cy := int32(uint32(nd.cellKey>>32)), int32(uint32(nd.cellKey))
		k := 0
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				bi, ok := g.cells[packCell(cx+dx, cy+dy)]
				if !ok {
					bi = -1
				}
				nd.nbhd[k] = bi
				k++
			}
		}
		nd.nbhdCells = int32(len(g.cells))
	}
	for _, bi := range nd.nbhd {
		if bi >= 0 {
			buf = append(buf, g.buckets[bi].nodes...)
		}
	}
	return buf
}
