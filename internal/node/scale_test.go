package node

import (
	"runtime"
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

// TestLinkStateLinearAt65536 is the addressing-ceiling guard: a started
// network at the full uint16 id space, taken through a snapshot build,
// a fold that moves every node (and so allocates every row's skin), a
// single-row patch and a route computed from the last id, must retain
// O(V+E) memory. Bytes per node are compared
// between 16,384 and 65,536 nodes — anything n×n (a link bitset alone is
// 8 KB per node at 65,536) quadruples between the two — and the BFS from
// node 65,535 catches id arithmetic that wraps at the ceiling.
func TestLinkStateLinearAt65536(t *testing.T) {
	perNode := func(side int) float64 {
		n := side * side
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		eng := sim.NewEngine(1)
		tp := topology.GridN(n, 80)
		nw := New(eng, Config{
			Topo:    tp,
			Channel: channel.Defaults(),
			MAC:     mac.Defaults(),
			Routing: routing.Defaults(),
			Energy:  energy.JAVeLEN(),
		})
		nw.Start()
		nw.Version() // full build
		for i := 0; i < n; i++ {
			p := tp.Pos[i]
			tp.SetPosition(packet.NodeID(i), geom.Point{X: p.X + 0.5, Y: p.Y})
		}
		nw.Version() // every node moved: every row patched
		last := packet.NodeID(n - 1)
		p := tp.Position(last)
		tp.SetPosition(last, geom.Point{X: p.X, Y: p.Y + 0.5})
		nw.Version() // one node moved: the patch path

		// 80 m lattice, 100 m range: 4-connected, so the far corner is a
		// Manhattan walk away.
		r := nw.Node(last).Router
		r.Refresh()
		if nh, ok := r.NextHop(0); !ok || (nh != last-1 && nh != last-packet.NodeID(side)) {
			t.Fatalf("n=%d: next hop from the last id toward 0 = %v,%v", n, nh, ok)
		}
		if h, want := r.HopsTo(0), 2*(side-1); h != want {
			t.Fatalf("n=%d: %d hops corner to corner, want %d", n, h, want)
		}

		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(nw)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	}
	small, large := perNode(128), perNode(256)
	t.Logf("retained heap: %.0f B/node at 16384, %.0f B/node at 65536", small, large)
	if large >= 4096 {
		t.Fatalf("%.0f B/node retained at 65536 nodes, want < 4096", large)
	}
	if d := (large - small) / small; d > 0.15 || d < -0.15 {
		t.Fatalf("retained heap per node moved %.0f -> %.0f B (%+.0f%%) from 16384 to 65536 nodes, want within 15%%: link-state memory is not linear",
			small, large, 100*d)
	}
}
