package mobility

import (
	"math"
	"testing"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
)

func build(t *testing.T, speed float64, seed int64) (*sim.Engine, *topology.Topology, *Model) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tp := topology.GridN(16, 60)
	m := New(eng, tp, tp.Field, Defaults(speed))
	return eng, tp, m
}

func TestNodesStayInField(t *testing.T) {
	eng, tp, m := build(t, 5, 1)
	m.Start()
	for i := 0; i < 100; i++ {
		eng.RunFor(10 * sim.Second)
		for i := range tp.N() {
			id := packet.NodeID(i)
			if p := tp.Position(id); tp.Field.Clamp(p) != p {
				t.Fatalf("node %v escaped the field: %v", id, tp.Position(id))
			}
		}
	}
}

func TestMovementHappens(t *testing.T) {
	eng, tp, m := build(t, 5, 2)
	orig := tp.Clone()
	m.Start()
	eng.RunFor(1000 * sim.Second)
	moved := 0
	for i := range tp.N() {
		id := packet.NodeID(i)
		if tp.Position(id).Dist2(orig.Position(id)) > 1 {
			moved++
		}
	}
	if moved < tp.N()/2 {
		t.Fatalf("only %d/%d nodes moved after 1000s at 5 m/s", moved, tp.N())
	}
}

func TestZeroSpeedFreezes(t *testing.T) {
	eng, tp, m := build(t, 0, 3)
	orig := tp.Clone()
	m.Start()
	eng.RunFor(500 * sim.Second)
	for i := range tp.N() {
		if id := packet.NodeID(i); tp.Position(id) != orig.Position(id) {
			t.Fatalf("node %v moved at zero speed", id)
		}
	}
}

func TestSpeedBoundsDisplacement(t *testing.T) {
	eng, tp, m := build(t, 1, 4)
	m.Start()
	prev := tp.Clone()
	for i := 0; i < 50; i++ {
		eng.RunFor(sim.Second)
		for i := range tp.N() {
			id := packet.NodeID(i)
			d := math.Sqrt(tp.Position(id).Dist2(prev.Position(id)))
			if d > 1.05 { // 1 m/s ⇒ ≤ ~1 m per second
				t.Fatalf("node %v moved %.2fm in 1s at 1 m/s", id, d)
			}
		}
		prev = tp.Clone()
	}
}

func TestPausesRespectMeanMagnitude(t *testing.T) {
	// With a huge pause mean, nodes should mostly be stationary early on.
	eng := sim.NewEngine(7)
	tp := topology.GridN(9, 60)
	cfg := Defaults(5)
	cfg.MeanPause = 1e6
	m := New(eng, tp, tp.Field, cfg)
	orig := tp.Clone()
	m.Start()
	eng.RunFor(100 * sim.Second)
	limit := (geom.Vec{X: 1, Y: 1}).Len()
	for i := range tp.N() {
		id := packet.NodeID(i)
		if tp.Position(id).Dist2(orig.Position(id)) > limit*limit {
			t.Fatalf("node %v moved during enormous pause", id)
		}
	}
}

// countingTopo counts Position lookups so tests can pin the per-walker
// read cost of one step.
type countingTopo struct {
	*topology.Topology
	posCalls int
}

func (c *countingTopo) Position(id packet.NodeID) geom.Point {
	c.posCalls++
	return c.Topology.Position(id)
}

func TestStepSkipsSignalWhenAllPaused(t *testing.T) {
	eng := sim.NewEngine(3)
	tp := topology.GridN(16, 60)
	m := New(eng, tp, tp.Field, Defaults(1))
	m.Start()
	// Pin every walker into a pause far past the horizon: steps tick but
	// nothing moves, so the topology's position epoch stays untouched.
	far := eng.Now().Add(60 * sim.Second)
	for i := range m.walk {
		m.walk[i] = walker{pauseTo: far}
	}
	e0 := tp.Epoch()
	eng.RunFor(2 * sim.Second)
	if tp.Epoch() != e0 {
		t.Fatal("all-paused steps dirtied the position epoch")
	}
	// Wake one interior walker: the next steps move it.
	m.walk[5] = walker{}
	eng.RunFor(2 * sim.Second)
	if tp.Epoch() == e0 {
		t.Fatal("movement did not advance the position epoch")
	}
}

func TestStepReadsPositionOncePerActiveWalker(t *testing.T) {
	eng := sim.NewEngine(4)
	tp := topology.GridN(16, 60)
	ct := &countingTopo{Topology: tp}
	m := New(eng, ct, tp.Field, Defaults(1))
	m.Start()
	far := eng.Now().Add(60 * sim.Second)
	for i := range m.walk {
		m.walk[i] = walker{pauseTo: far}
	}
	// One walker mid-leg toward a distant target: a step must read its
	// position exactly once, and paused walkers not at all.
	m.walk[5] = walker{moving: true, target: geom.Point{X: 239, Y: 239}}
	ct.posCalls = 0
	eng.RunFor(m.cfg.Step)
	if ct.posCalls != 1 {
		t.Fatalf("one moving walker cost %d position reads per step, want 1", ct.posCalls)
	}
}
