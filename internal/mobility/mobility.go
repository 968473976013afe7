// Package mobility implements the random waypoint model used in §6.1.2:
// "each node chooses a random direction and moves in that direction for an
// average distance of 47m. There is an average pause of 100s between
// movements for each node."
//
// Positions are updated in discrete steps (default 100 ms) so the
// MAC/routing layers always see current coordinates without the cost of
// continuous-motion bookkeeping.
package mobility

import (
	"math"

	"github.com/javelen/jtp/internal/geom"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// Config parameterizes the random waypoint walker.
type Config struct {
	// Speed is the node speed in m/s while moving (paper: 0.1, 1, 5).
	Speed float64
	// MeanLegDistance is the mean distance of one movement leg in meters
	// (paper: 47 m). Legs are exponentially distributed around the mean,
	// truncated to stay inside the field.
	MeanLegDistance float64
	// MeanPause is the mean pause between legs in seconds (paper: 100 s),
	// exponentially distributed.
	MeanPause float64
	// Step is the position-update interval.
	Step sim.Duration
}

// Defaults returns the paper's mobility parameters at the given speed.
func Defaults(speed float64) Config {
	return Config{
		Speed:           speed,
		MeanLegDistance: 47,
		MeanPause:       100,
		Step:            100 * sim.Millisecond,
	}
}

// Model moves every node of a topology according to independent random
// waypoint processes. Construct with New and call Start.
type Model struct {
	cfg   Config
	eng   *sim.Engine
	topo  Topo
	field geom.Rect
	walk  []walker
}

type walker struct {
	target  geom.Point
	moving  bool
	pauseTo sim.Time
}

// Topo is the surface the model needs from a topology.
type Topo interface {
	N() int
	Position(packet.NodeID) geom.Point
	SetPosition(packet.NodeID, geom.Point)
}

// New returns a model moving the nodes of topo inside field.
func New(eng *sim.Engine, topo Topo, field geom.Rect, cfg Config) *Model {
	if cfg.Step <= 0 {
		cfg.Step = 100 * sim.Millisecond
	}
	m := &Model{cfg: cfg, eng: eng, topo: topo, field: field,
		walk: make([]walker, topo.N())}
	return m
}

// Start begins moving nodes. Each node starts paused for a random part of
// a mean pause so movements desynchronize.
func (m *Model) Start() {
	now := m.eng.Now()
	for i := range m.walk {
		pause := m.eng.Rand().ExpFloat64() * m.cfg.MeanPause
		m.walk[i] = walker{pauseTo: now.Add(sim.DurationOf(pause))}
	}
	m.eng.NewTicker(m.cfg.Step, m.step)
}

// step advances every walker by one interval. Each walker that acts this
// step reads its position exactly once, and a walker sitting out its
// pause writes nothing, so an all-paused step leaves the topology's
// position epoch untouched.
func (m *Model) step() {
	if m.cfg.Speed <= 0 {
		return
	}
	now := m.eng.Now()
	stepDist := m.cfg.Speed * m.cfg.Step.Seconds()
	for i := range m.walk {
		w := &m.walk[i]
		if !w.moving && now < w.pauseTo {
			continue
		}
		id := packet.NodeID(i)
		pos := m.topo.Position(id)
		if !w.moving {
			w.target = m.pickTarget(pos)
			w.moving = true
		}
		to := w.target.Sub(pos)
		d := to.Len()
		if d <= stepDist {
			// Arrived: snap to target and start the pause. A leg clamped
			// back onto the walker's own position moves nothing.
			if w.target != pos {
				m.topo.SetPosition(id, w.target)
			}
			w.moving = false
			pause := m.eng.Rand().ExpFloat64() * m.cfg.MeanPause
			w.pauseTo = now.Add(sim.DurationOf(pause))
			continue
		}
		// to/d is the unit heading, from the Hypot already taken (d > 0).
		m.topo.SetPosition(id, pos.Add(geom.Vec{X: to.X / d, Y: to.Y / d}.Scale(stepDist)))
	}
}

// pickTarget draws a random direction and exponential leg length, clamped
// into the field.
func (m *Model) pickTarget(from geom.Point) geom.Point {
	theta := m.eng.Rand().Float64() * 2 * math.Pi
	dist := m.eng.Rand().ExpFloat64() * m.cfg.MeanLegDistance
	if dist < 1 {
		dist = 1
	}
	tgt := from.Add(geom.Vec{X: math.Cos(theta) * dist, Y: math.Sin(theta) * dist})
	return m.field.Clamp(tgt)
}
