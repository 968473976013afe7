package node

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
)

// The ops of FuzzLinkSnapshotMatchesRebuild's script, each followed by
// its operand bytes.
const (
	opDrift    = iota // about half the nodes drift up to 0.5 m
	opPair            // a, b, c: a at a cell anchor, b at range + offset from a
	opBorder          // a, c: a onto (or 1e-9 m off) a cell border
	opJump            // a, c: a jumps 150 m along an axis
	opApproach        // a, b, c: a closes on b by 0.1–1.6 m, and b on a unless c&16
	opMissed          // a, b, c: a closes on b by 0.5–8 m, the topology folds, b drifts
	opDown            // a: a fails or revives
	opAll             // every node moves up to 2 m
	numOps
)

// pairOffsets are opPair's distances from the radio range: on it, a
// rounding either side, on and just past the skin's edge, and outside it.
var pairOffsets = []float64{0, 1e-9, -1e-9, skinWidth, -skinWidth, 2 * skinWidth, 3, -3, skinWidth + 1e-9, -skinWidth - 1e-9}

// FuzzLinkSnapshotMatchesRebuild drives the skinned patch path through a
// scripted sequence of moves. After every Version each Neighbors row must
// equal that of a network built fresh at the same positions, with the
// same nodes down, and the version must have moved exactly when some
// geometric row changed, a node's liveness flipped or the snapshot was
// rebuilt. Byte 0 sizes the network (2–25 nodes), byte 1 seeds its
// positions in a 400 m square and its drift, and the remaining bytes are
// ops with their operands.
func FuzzLinkSnapshotMatchesRebuild(f *testing.F) {
	// Two nodes 2·skinWidth beyond range close in 0.5 m steps each: the
	// pair's distance shrinks by twice the travel.
	f.Add(append([]byte{0, 1, opPair, 0, 1, 5 * 12}, repeatOp(16, opApproach, 0, 1, 4)...))
	// Two nodes 3 m beyond range in non-adjacent cells, each within 2 m
	// of its cell's border: only the border term bounds the pair.
	f.Add(append([]byte{0, 2, opPair, 0, 1, 1 + 3*1 + 12*6}, repeatOp(8, opApproach, 0, 1, 4)...))
	// The same pair, but the first 6 m of the closing happen in a fold the
	// snapshot misses, and then only one node moves: the rebuild must
	// reset every skin.
	f.Add(append([]byte{0, 3, opPair, 0, 1, 5 * 12, opMissed, 0, 1, 11}, repeatOp(8, opApproach, 1, 0, 4|16)...))
	// Pairs placed at the range, a rounding either side and at the skin's
	// edges, then drifted across it; cell borders, a jump, a whole-network
	// move, a missed fold and failures.
	mixed := []byte{10, 7,
		opPair, 0, 1, 0, opPair, 2, 3, 12, opPair, 4, 5, 24, opPair, 6, 7, 36 + 1,
		opPair, 8, 9, 48 + 2, opPair, 10, 11, 8*12 + 4,
		opDrift, opDrift, opApproach, 0, 1, 0, opApproach, 8, 9, 15,
		opBorder, 3, 0, opBorder, 5, 5, opBorder, 6, 2, opDrift,
		opJump, 7, 2, opAll, opMissed, 1, 2, 3, opDown, 4, opDrift, opAll,
		opDown, 4, opApproach, 2, 3, 1, opApproach, 4, 5, 1, opJump, 0, 1, opAll}
	f.Add(mixed)
	f.Add(append([]byte{23, 9}, repeatOp(40, opAll)...))
	f.Add([]byte{5, 3, opMissed, 0, 1, 0, opMissed, 2, 2, 7, opDown, 0, opJump, 0, 0, opMissed, 0, 4, 15})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		n := 2 + int(script[0])%24
		rng := rand.New(rand.NewSource(int64(script[1])))
		pos := make([]geom.Point, n)
		for i := range pos {
			pos[i] = geom.Point{X: 400 * rng.Float64(), Y: 400 * rng.Float64()}
		}
		tp := topology.FromPositions(pos, 0)
		nw := New(sim.NewEngine(1), Config{
			Topo:    tp,
			Channel: channel.Defaults(),
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
		})
		side, r := nw.chann.Range(), nw.chann.Range()
		down := make([]bool, n)
		ver := nw.Version()
		prev := make([][]packet.NodeID, n)
		for i := range prev {
			prev[i] = slices.Clone(nw.snap.rows[i])
		}

		move := func(id int, v geom.Vec) { tp.SetPosition(packet.NodeID(id), tp.Pos[id].Add(v)) }
		drift := func(id int, maxLen float64) {
			theta, l := 2*math.Pi*rng.Float64(), maxLen*rng.Float64()
			move(id, geom.Vec{X: l * math.Cos(theta), Y: l * math.Sin(theta)})
		}
		axis := func(c byte) geom.Vec {
			return [4]geom.Vec{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[c%4]
		}
		closeOn := func(a, b int, l float64) {
			d := tp.Pos[b].Sub(tp.Pos[a])
			if dl := d.Len(); dl > 0 {
				move(a, d.Scale(l/dl))
			}
		}

		in := script[2:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		for step := 0; len(in) > 0 && step < 64; step++ {
			flipped := false
			switch next() % numOps {
			case opDrift:
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						drift(i, 0.5)
					}
				}
			case opPair:
				a, b, c := next()%n, next()%n, next()
				if a == b {
					break
				}
				pa := tp.Pos[a]
				anchor := [3]float64{0.5, 0.01, 0.99}[c%3]
				pa = geom.Point{X: (math.Floor(pa.X/side) + anchor) * side, Y: (math.Floor(pa.Y/side) + 0.5) * side}
				tp.SetPosition(packet.NodeID(a), pa)
				off := pairOffsets[(c/12)%len(pairOffsets)]
				tp.SetPosition(packet.NodeID(b), pa.Add(axis(byte(c/3)).Scale(r+off)))
			case opBorder:
				a, c := next()%n, next()
				p := tp.Pos[a]
				p.X = math.Round(p.X/side)*side + [3]float64{0, 1e-9, -1e-9}[c%3]
				if c&4 != 0 {
					p.Y = math.Round(p.Y/side) * side
				}
				tp.SetPosition(packet.NodeID(a), p)
			case opJump:
				a, c := next()%n, next()
				move(a, axis(byte(c)).Scale(150))
			case opApproach:
				a, b, c := next()%n, next()%n, next()
				l := 0.1 * float64(c%16+1)
				closeOn(a, b, l)
				if c&16 == 0 {
					closeOn(b, a, l)
				}
			case opMissed:
				a, b, c := next()%n, next()%n, next()
				closeOn(a, b, 0.5*float64(c%16+1))
				tp.Epoch()
				drift(b, 0.5)
			case opDown:
				a := next() % n
				down[a] = !down[a]
				nw.SetDown(packet.NodeID(a), down[a])
				flipped = true
			case opAll:
				for i := 0; i < n; i++ {
					drift(i, 2)
				}
			}

			rebuilt := tp.Epoch() > nw.snap.epoch+1
			v := nw.Version()
			changed := false
			for i := range prev {
				if !slices.Equal(prev[i], nw.snap.rows[i]) {
					changed = true
					prev[i] = append(prev[i][:0], nw.snap.rows[i]...)
				}
			}
			if bumped := v != ver; bumped != (changed || flipped || rebuilt) {
				t.Fatalf("step %d: version %d -> %d with rows changed=%v, liveness flipped=%v, rebuilt=%v",
					step, ver, v, changed, flipped, rebuilt)
			}
			ver = v

			fresh := New(sim.NewEngine(1), Config{
				Topo:    tp.Clone(),
				Channel: channel.Defaults(),
				MAC:     mac.Defaults(),
				Routing: routing.Defaults(),
				Energy:  energy.JAVeLEN(),
			})
			for i, d := range down {
				fresh.SetDown(packet.NodeID(i), d)
			}
			for i := 0; i < n; i++ {
				id := packet.NodeID(i)
				if got, want := nw.Neighbors(id), fresh.Neighbors(id); !slices.Equal(got, want) {
					t.Fatalf("step %d: Neighbors(%v) = %v patched, %v rebuilt", step, id, got, want)
				}
			}
		}
	})
}

// repeatOp returns k copies of an op and its operands.
func repeatOp(k int, op ...byte) []byte {
	var out []byte
	for i := 0; i < k; i++ {
		out = append(out, op...)
	}
	return out
}

// TestSkinSkipsDrift guards the skin's purpose: 200 steps of uniform
// 0.1 m drift, which changes no neighbor set, re-gather under a tenth of
// the moved rows. The 80 m lattice is shifted by 30 m so that no node
// starts on a cell border, where every move must re-gather.
func TestSkinSkipsDrift(t *testing.T) {
	tp := topology.GridN(64, 80)
	for i, p := range tp.Pos {
		tp.Pos[i] = geom.Point{X: p.X + 30, Y: p.Y + 30}
	}
	nw := New(sim.NewEngine(1), Config{
		Topo:    tp,
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	v0 := nw.Version()
	const steps = 200
	for step := 0; step < steps; step++ {
		for i, p := range tp.Pos {
			tp.SetPosition(packet.NodeID(i), geom.Point{X: p.X + 0.1, Y: p.Y})
		}
		if v := nw.Version(); v != v0 {
			t.Fatalf("step %d: version %d -> %d under drift that keeps every neighbor set", step, v0, v)
		}
	}
	checkRowsAgainstRebuild(t, nw, 0, steps)
	moved := uint64(steps * tp.N())
	t.Logf("%d of %d moved rows re-gathered", nw.snap.gathers, moved)
	if nw.snap.gathers*10 >= moved {
		t.Fatalf("%d of %d moved rows re-gathered, want under 10%%", nw.snap.gathers, moved)
	}
}
