// Package channel models the wireless channel between node pairs.
//
// Link quality follows the paper's evaluation setup (§6.1.1): "the value of
// the average pathloss of each link alternates between a good state (low
// loss) and a bad state (high loss). Each link is in bad state
// approximately 10% of the time. The average duration of the bad period is
// 3 seconds." — a two-state Gilbert-Elliott process with exponentially
// distributed sojourn times.
//
// Connectivity is distance-based: two nodes are neighbors when within
// Range meters. The channel is symmetric (JAVeLEN supports symmetric
// routes, §1), but each direction draws its own Bernoulli losses from the
// shared link state.
package channel

import (
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// Config parameterizes the channel.
type Config struct {
	// Range is the radio range in meters; nodes farther apart than this
	// cannot communicate.
	Range float64
	// GoodLoss is the per-transmission loss probability in the good state.
	GoodLoss float64
	// Static, when true, freezes every link in the good state — used for
	// the Table 2 testbed scenario, where "the links are more stable and
	// their quality is much better".
	Static bool
}

// The bad state of §6.1.1, the same for every channel profile. It is
// harsh enough that even MAX_ATTEMPTS transmissions fail with noticeable
// probability (0.75⁵ ≈ 24%), which is the "temporary excessive
// degradation in link quality" regime where in-network caching earns its
// keep (§4).
const (
	// BadLoss is the per-transmission loss probability in the bad state.
	BadLoss = 0.75
	// BadFraction is the long-run fraction of time a link spends in the
	// bad state (paper: ≈0.10).
	BadFraction = 0.10
	// MeanBadPeriod is the mean sojourn in the bad state in seconds
	// (paper: 3 s).
	MeanBadPeriod = 3.0
)

// Defaults returns the channel used by the simulation experiments:
// 100 m range and 5% good-state loss, with the bad state above.
func Defaults() Config {
	return Config{
		Range:    100,
		GoodLoss: 0.05,
	}
}

// Testbed returns the stable, low-loss channel used for the Table 2
// scenario (in-door links with no controlled pathloss).
func Testbed() Config {
	c := Defaults()
	c.GoodLoss = 0.02
	c.Static = true
	return c
}

// linkKey orders the pair so both directions share one Gilbert-Elliott
// state, making link quality symmetric.
type linkKey struct {
	a, b packet.NodeID
}

func keyFor(a, b packet.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// linkState is the per-link Gilbert-Elliott process. State flips are
// evaluated lazily: when the link is queried at time t, sojourn periods
// are drawn forward until they cover t. This costs nothing for idle links.
type linkState struct {
	bad      bool
	changeAt sim.Time // time of the next state flip
}

// Channel owns the link states and answers loss-probability queries.
type Channel struct {
	cfg Config
	eng *sim.Engine
	// lk indexes links, the states of the links queried so far, by pair.
	lk    map[linkKey]int32
	links []linkState

	// Precomputed Gilbert-Elliott parameters. The per-transmission fast
	// path (TransmitOK) is one RNG draw compared against one of two
	// thresholds; the sojourn means fold the bad-fraction algebra of
	// drawSojourn so a state flip costs one ExpFloat64 and one multiply.
	range2   float64 // Range² for InRange
	meanGood float64 // mean good-state sojourn in seconds
	meanBad  float64 // mean bad-state sojourn in seconds
}

// New returns a channel driven by the engine's clock and RNG.
func New(eng *sim.Engine, cfg Config) *Channel {
	if cfg.Range <= 0 {
		cfg.Range = Defaults().Range
	}
	c := &Channel{cfg: cfg, eng: eng, lk: make(map[linkKey]int32)}
	c.range2 = cfg.Range * cfg.Range
	// From variables, not the constants: Go folds a constant expression
	// exactly, and seeded runs depend on the algebra below rounding after
	// each step.
	meanBad, f := float64(MeanBadPeriod), float64(BadFraction)
	c.meanBad = meanBad
	c.meanGood = meanBad * (1 - f) / f
	return c
}

// InRange reports whether two positions are within radio range.
func (c *Channel) InRange(d2 float64) bool {
	return d2 <= c.range2
}

// Range returns the radio range in meters.
func (c *Channel) Range() float64 { return c.cfg.Range }

// Clear forgets every link state, keeping the storage, so the next run
// on the engine draws each link's state afresh as a new channel would.
func (c *Channel) Clear() {
	clear(c.lk)
	c.links = c.links[:0]
}

// state returns the link's Gilbert-Elliott state advanced to now. The
// pointer is valid until the next state call.
func (c *Channel) state(a, b packet.NodeID) *linkState {
	k := keyFor(a, b)
	i, ok := c.lk[k]
	if !ok {
		var st linkState
		// Initialize from the stationary distribution so warm-up isn't
		// needed for the loss process itself.
		if !c.cfg.Static && c.eng.Rand().Float64() < BadFraction {
			st.bad = true
		}
		st.changeAt = c.eng.Now().Add(c.drawSojourn(st.bad))
		i = int32(len(c.links))
		c.links = append(c.links, st)
		c.lk[k] = i
	}
	st := &c.links[i]
	if c.cfg.Static {
		st.bad = false
		return st
	}
	now := c.eng.Now()
	for st.changeAt <= now {
		st.bad = !st.bad
		st.changeAt = st.changeAt.Add(c.drawSojourn(st.bad))
	}
	return st
}

// drawSojourn draws an exponential sojourn for the given state. The means
// are precomputed at construction from the bad fraction:
//
//	badFrac = meanBad / (meanBad + meanGood)  ⇒  meanGood = meanBad·(1−f)/f
func (c *Channel) drawSojourn(bad bool) sim.Duration {
	mean := c.meanGood
	if bad {
		mean = c.meanBad
	}
	d := c.eng.Rand().ExpFloat64() * mean
	if d < 1e-3 {
		d = 1e-3
	}
	return sim.DurationOf(d)
}

// Bad reports whether the link is currently in the bad state.
func (c *Channel) Bad(a, b packet.NodeID) bool { return c.state(a, b).bad }

// TransmitOK draws one Bernoulli trial for a transmission on a→b,
// reporting whether the frame was received. The steady-state cost is one
// RNG draw and two compares: the per-state loss thresholds come straight
// from the config and the link state advances only when a precomputed
// flip time has passed.
func (c *Channel) TransmitOK(a, b packet.NodeID) bool {
	// The Bernoulli draw happens before the lazy state advance (which may
	// itself consume sojourn draws), the order the channel has always
	// drawn in, kept so seeded runs reproduce bit-for-bit.
	u := c.eng.Rand().Float64()
	thr := c.cfg.GoodLoss
	if c.state(a, b).bad {
		thr = BadLoss
	}
	return u >= thr
}

// ForceState pins the a↔b link to the given state until the next natural
// flip. Only tests call it, to hold a link in one state.
func (c *Channel) ForceState(a, b packet.NodeID, bad bool, hold sim.Duration) {
	st := c.state(a, b)
	st.bad = bad
	st.changeAt = c.eng.Now().Add(hold)
}
