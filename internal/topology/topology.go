// Package topology builds the node layouts used by the evaluation:
// static linear chains (§6.1.1), random two-dimensional fields sized so the
// network is connected with high probability (§6.1.2), and grids for
// additional tests.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
)

// Topology is a set of node positions in a field. Node IDs are dense,
// starting at 0.
type Topology struct {
	// Field is the simulation area.
	Field geom.Rect
	// Pos maps node id (by index) to position.
	Pos []geom.Point

	// epoch identifies the current position set; dirty marks pending
	// mutations that have not yet been folded into it. SetPosition only
	// sets dirty (never bumps), so a whole mobility batch — many
	// SetPosition calls inside one step handler — collapses into a single
	// epoch bump at the next Epoch read, and a batch that moved nothing
	// bumps nothing.
	epoch uint64
	dirty bool
	// pending holds the ids moved since the last fold (deduplicated via
	// pendingMark); folded holds the ids that were folded into the
	// current epoch — the per-node position delta consumers patch
	// incrementally instead of rebuilding O(n²) state.
	pending     []packet.NodeID
	folded      []packet.NodeID
	pendingMark []bool
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Pos) }

// Position returns node id's position.
func (t *Topology) Position(id packet.NodeID) geom.Point { return t.Pos[int(id)] }

// SetPosition moves a node (the mobility model calls this). Writing a
// node's current position back is not a change and does not dirty the
// epoch. A real move records the id in the pending delta exactly once,
// no matter how many times the node moves before the next fold.
func (t *Topology) SetPosition(id packet.NodeID, p geom.Point) {
	if t.Pos[int(id)] == p {
		return
	}
	t.Pos[int(id)] = p
	t.dirty = true
	if len(t.pendingMark) < len(t.Pos) {
		mark := make([]bool, len(t.Pos))
		for _, m := range t.pending {
			mark[int(m)] = true
		}
		t.pendingMark = mark
	}
	if !t.pendingMark[int(id)] {
		t.pendingMark[int(id)] = true
		t.pending = append(t.pending, id)
	}
}

// Epoch returns the position epoch: a counter that advances exactly when
// node positions have changed since the previous Epoch call. Folding is
// read-triggered by contract: SetPosition never bumps the epoch itself,
// so an arbitrarily large batch of SetPosition calls — a whole mobility
// step, or several steps with no reads in between — collapses into ONE
// epoch bump at the next Epoch call, and a batch that moved nothing bumps
// nothing. Consumers caching position-derived state (the network's
// link-state snapshot) compare epochs to decide whether their cache is
// current; the ids folded into the bump are available from LastDelta, so
// a consumer exactly one epoch behind can patch instead of rebuilding.
func (t *Topology) Epoch() uint64 {
	if t.dirty {
		t.epoch++
		t.dirty = false
		t.folded, t.pending = t.pending, t.folded[:0]
		for _, id := range t.folded {
			t.pendingMark[int(id)] = false
		}
	}
	return t.epoch
}

// LastDelta returns the ids whose positions changed in the fold that
// produced the current epoch, in first-moved order. The slice is valid
// only until the next fold (the next Epoch call observing pending moves)
// and must not be mutated or retained. A consumer whose cached state is
// exactly one epoch old can bring it current by re-deriving only these
// nodes' rows; anything older needs a full rebuild.
func (t *Topology) LastDelta() []packet.NodeID { return t.folded }

// Clone returns a deep copy (mobility mutates positions in place). The
// clone starts at epoch zero with an empty delta — epoch state is an
// observation of mutation history, not part of the layout.
func (t *Topology) Clone() *Topology {
	return &Topology{Field: t.Field, Pos: append([]geom.Point(nil), t.Pos...)}
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology(n=%d, field=%.0fx%.0fm)", t.N(), t.Field.Width(), t.Field.Height())
}

// Linear places n nodes on a straight line with the given spacing in
// meters. With spacing below the radio range, consecutive nodes are
// neighbors and the chain has n−1 hops — the static linear topologies of
// §6.1.1 where "the source and the destination ... are placed at the two
// ends of the network".
func Linear(n int, spacing float64) *Topology {
	if n < 1 {
		panic("topology: Linear needs n >= 1")
	}
	t := &Topology{
		Field: geom.Rect{Min: geom.Point{X: 0, Y: 0},
			Max: geom.Point{X: spacing * float64(n), Y: spacing}},
		Pos: make([]geom.Point, n),
	}
	for i := 0; i < n; i++ {
		t.Pos[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	return t
}

// GridN places exactly n nodes on a near-square lattice with the given
// spacing, filling row-major: ceil(sqrt(n)) columns, the last row
// possibly partial. With spacing below the radio range the lattice is
// connected (every node has a neighbor one row up or one column over).
func GridN(n int, spacing float64) *Topology {
	if n < 1 {
		panic("topology: GridN needs n >= 1")
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	t := &Topology{
		Field: geom.Rect{Min: geom.Point{},
			Max: geom.Point{X: spacing * float64(cols), Y: spacing * float64(rows)}},
		Pos: make([]geom.Point, 0, n),
	}
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		t.Pos = append(t.Pos, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
	}
	return t
}

// Star places node 0 at the center of a square field and the remaining
// n−1 nodes evenly on a circle of the given radius around it. With the
// radius inside the radio range every leaf reaches the hub directly, so
// all leaf-to-leaf traffic crosses the hub — the cross-traffic hotspot
// layout.
func Star(n int, radius float64) *Topology {
	if n < 1 {
		panic("topology: Star needs n >= 1")
	}
	side := 2 * radius * 1.1
	center := geom.Point{X: side / 2, Y: side / 2}
	t := &Topology{
		Field: geom.Rect{Min: geom.Point{}, Max: geom.Point{X: side, Y: side}},
		Pos:   make([]geom.Point, n),
	}
	t.Pos[0] = center
	for i := 1; i < n; i++ {
		theta := 2 * math.Pi * float64(i-1) / float64(n-1)
		t.Pos[i] = geom.Point{
			X: center.X + radius*math.Cos(theta),
			Y: center.Y + radius*math.Sin(theta),
		}
	}
	return t
}

// FromPositions builds a topology from explicit node positions; the
// field is the positions' bounding box padded by pad meters on every
// side (generated and user-supplied layouts).
func FromPositions(pos []geom.Point, pad float64) *Topology {
	if len(pos) == 0 {
		panic("topology: FromPositions needs at least one position")
	}
	min, max := pos[0], pos[0]
	for _, p := range pos {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return &Topology{
		Field: geom.Rect{
			Min: geom.Point{X: min.X - pad, Y: min.Y - pad},
			Max: geom.Point{X: max.X + pad, Y: max.Y + pad},
		},
		Pos: append([]geom.Point(nil), pos...),
	}
}

// FieldSideFor returns the side of a square field in which n nodes with
// the given radio range are connected with high probability. It uses the
// critical-connectivity scaling for random geometric graphs,
// r ≈ side·sqrt(ln n / (π n)), solved for the side with a safety margin —
// the paper's "the field size is set to ensure that the network is
// connected with high probability" (§6.1.2).
func FieldSideFor(n int, radioRange float64) float64 {
	if n < 2 {
		return radioRange
	}
	crit := math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
	// Keep the normalized range ~35% above critical.
	return radioRange / (1.35 * crit) * 1.0
}

// Random places n nodes uniformly in a square field sized by FieldSideFor
// and retries until the resulting unit-disk graph is connected (or
// maxTries is exhausted, when it returns the last attempt and false).
func Random(n int, radioRange float64, rng *rand.Rand, maxTries int) (*Topology, bool) {
	side := FieldSideFor(n, radioRange)
	if maxTries <= 0 {
		maxTries = 100
	}
	var t *Topology
	for try := 0; try < maxTries; try++ {
		t = &Topology{Field: geom.Square(side), Pos: make([]geom.Point, n)}
		for i := range t.Pos {
			t.Pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		if Connected(t, radioRange) {
			return t, true
		}
	}
	return t, false
}

// Connected reports whether the unit-disk graph under the given range is
// connected. Lazy traversal over grid candidates: no per-node adjacency
// rows are materialized or sorted (connectivity is order-independent),
// which matters because topology.Random re-checks every rejected
// placement at bench-tier sizes.
func Connected(t *Topology, radioRange float64) bool {
	n := t.N()
	if n <= 1 {
		return true
	}
	g := NewSpatialGrid(t, gridSideFor(radioRange))
	r2 := radioRange * radioRange
	seen := make([]bool, n)
	queue := []packet.NodeID{0}
	seen[0] = true
	count := 1
	var cand []packet.NodeID
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		cand = g.AppendCandidates(cand[:0], v)
		for _, w := range cand {
			if !seen[w] && w != v && t.Pos[int(v)].Dist2(t.Pos[int(w)]) <= r2 {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

// HopDistance returns the minimum hop count between two nodes under the
// given range, or -1 if unreachable. BFS; used by tests and flow
// placement. Like Connected it expands grid candidates lazily instead of
// materializing the full adjacency — BFS layer order makes the hop count
// independent of within-row visit order, and the early exit at b means a
// nearby pair never touches most of the graph.
func HopDistance(t *Topology, radioRange float64, a, b packet.NodeID) int {
	if a == b {
		return 0
	}
	g := NewSpatialGrid(t, gridSideFor(radioRange))
	r2 := radioRange * radioRange
	dist := make([]int32, t.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []packet.NodeID{a}
	var cand []packet.NodeID
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		cand = g.AppendCandidates(cand[:0], v)
		for _, w := range cand {
			if dist[w] >= 0 || w == v || t.Pos[int(v)].Dist2(t.Pos[int(w)]) > r2 {
				continue
			}
			dist[w] = dist[v] + 1
			if w == b {
				return int(dist[w])
			}
			queue = append(queue, w)
		}
	}
	return -1
}
