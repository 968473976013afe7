package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
)

func TestLinear(t *testing.T) {
	tp := Linear(5, 80)
	if tp.N() != 5 {
		t.Fatalf("N = %d", tp.N())
	}
	for i := 0; i < 5; i++ {
		p := tp.Position(packet.NodeID(i))
		if p.X != float64(i)*80 || p.Y != 0 {
			t.Fatalf("node %d at %v", i, p)
		}
	}
	// Spacing 80 < range 100: chain of n-1 hops.
	if h := HopDistance(tp, 100, 0, 4); h != 4 {
		t.Fatalf("end-to-end hops = %d, want 4", h)
	}
	if !Connected(tp, 100) {
		t.Fatal("linear chain should be connected")
	}
	// Range below spacing: disconnected.
	if Connected(tp, 79) {
		t.Fatal("under-ranged chain should be disconnected")
	}
}

func TestGrid(t *testing.T) {
	tp := Grid(3, 4, 50)
	if tp.N() != 12 {
		t.Fatalf("N = %d", tp.N())
	}
	// Corner to corner: manhattan hops with range covering one step.
	if h := HopDistance(tp, 51, 0, 11); h != 5 {
		t.Fatalf("grid corner hops = %d, want 5", h)
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tp, ok := Random(12, 100, rng, 100)
	if !ok {
		t.Fatal("could not build connected random topology")
	}
	adj := bruteAdjacency(tp, 100)
	for i, nbrs := range adj {
		for _, j := range nbrs {
			found := false
			for _, back := range adj[j] {
				if int(back) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%v but not back", i, j)
			}
		}
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		n := 5 + int(nRaw%20)
		rng := rand.New(rand.NewSource(seed))
		tp, ok := Random(n, 100, rng, 200)
		if !ok {
			return true // builder honestly reported failure
		}
		return Connected(tp, 100) && tp.N() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHopDistanceUnreachable(t *testing.T) {
	tp := Linear(3, 200) // spacing beyond range
	if h := HopDistance(tp, 100, 0, 2); h != -1 {
		t.Fatalf("unreachable hops = %d, want -1", h)
	}
	if h := HopDistance(tp, 100, 1, 1); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
}

func TestCloneIndependent(t *testing.T) {
	tp := Linear(3, 80)
	cp := tp.Clone()
	cp.SetPosition(0, tp.Position(1))
	if tp.Position(0) == tp.Position(1) {
		t.Fatal("Clone shares position storage")
	}
}

func TestFieldSideGrowth(t *testing.T) {
	// More nodes at fixed range -> larger field (denser critical radius).
	if FieldSideFor(10, 100) >= FieldSideFor(40, 100) {
		t.Fatalf("field should grow with n: %v vs %v",
			FieldSideFor(10, 100), FieldSideFor(40, 100))
	}
	if FieldSideFor(1, 100) != 100 {
		t.Fatal("degenerate n")
	}
}

func TestIDs(t *testing.T) {
	tp := Linear(3, 10)
	ids := tp.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("IDs = %v", ids)
	}
	if tp.String() == "" {
		t.Fatal("String empty")
	}
}

func TestGridNExactCount(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9, 10, 16, 17} {
		tp := GridN(n, 80)
		if tp.N() != n {
			t.Fatalf("GridN(%d) placed %d nodes", n, tp.N())
		}
		if !Connected(tp, 100) {
			t.Fatalf("GridN(%d) at spacing 80 disconnected at range 100", n)
		}
	}
}

func TestStarHubAdjacency(t *testing.T) {
	tp := Star(8, 80)
	if tp.N() != 8 {
		t.Fatalf("Star(8) placed %d nodes", tp.N())
	}
	adj := bruteAdjacency(tp, 100)
	if len(adj[0]) != 7 {
		t.Fatalf("hub has %d neighbors, want all 7 leaves", len(adj[0]))
	}
	if !Connected(tp, 100) {
		t.Fatal("star disconnected")
	}
}

func TestFromPositionsBoundsAndCopy(t *testing.T) {
	pts := []geom.Point{{X: 10, Y: 20}, {X: 110, Y: 20}}
	tp := FromPositions(pts, 5)
	if tp.N() != 2 {
		t.Fatalf("N = %d", tp.N())
	}
	if tp.Field.Min.X != 5 || tp.Field.Max.X != 115 {
		t.Fatalf("field not padded bounding box: %+v", tp.Field)
	}
	tp.SetPosition(0, geom.Point{X: 0, Y: 0})
	if pts[0].X != 10 {
		t.Fatal("FromPositions shares the caller's slice")
	}
}

func TestPositionEpoch(t *testing.T) {
	tp := Linear(3, 50)
	e0 := tp.Epoch()
	if tp.Epoch() != e0 {
		t.Fatal("epoch must be stable without mutations")
	}
	// Writing a node's current position back is not a change.
	tp.SetPosition(1, tp.Position(1))
	if tp.Epoch() != e0 {
		t.Fatal("no-op position write advanced the epoch")
	}
	// A whole mutation batch collapses into one bump at the next read.
	tp.SetPosition(1, geom.Point{X: 1, Y: 2})
	tp.SetPosition(2, geom.Point{X: 9, Y: 9})
	e1 := tp.Epoch()
	if e1 != e0+1 {
		t.Fatalf("batch of moves advanced epoch by %d, want 1", e1-e0)
	}
	if tp.Epoch() != e1 {
		t.Fatal("epoch must be stable after the batch was folded in")
	}
	tp.SetPosition(0, geom.Point{X: 3, Y: 3})
	if e2 := tp.Epoch(); e2 != e1+1 {
		t.Fatalf("next batch advanced epoch by %d, want 1", e2-e1)
	}
}
