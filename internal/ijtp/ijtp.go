// Package ijtp implements hop-by-hop JTP (paper §2.2.2): the soft-state,
// per-packet operations every node performs as a MAC plugin, with no
// per-flow state — the Dynamic-Packet-State style of the paper.
//
// At PreXmit (Algorithm 1) it charges the packet's energy-used field and
// enforces the energy budget, computes the number of link-layer
// transmission attempts from the packet's loss tolerance and the link's
// loss estimate (§3, Eqs 2–4), re-encodes the remaining tolerance
// (Eq 3), and stamps the minimum effective available rate.
//
// At PostRcv (Algorithm 2) it caches traversing DATA packets, serves
// SNACK requests found in traversing ACKs from the local cache, and
// rewrites served sequence numbers into the ACK's locally-recovered field
// so upstream nodes and the source do not retransmit them again (§4).
package ijtp

import (
	"math"

	"github.com/javelen/jtp/internal/cache"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/packet"
)

// PathView supplies the node's current estimate of the remaining path
// length to a destination — H_i in §3 — typically a routing.Router.
type PathView interface {
	// HopsTo returns the number of links from this node to dst in the
	// node's current topology view, or -1 if unknown.
	HopsTo(dst packet.NodeID) int
}

// Forwarder re-injects a cache-recovered DATA packet toward its
// destination. The node layer provides it (route lookup + MAC enqueue).
// It reports whether the packet was queued.
type Forwarder func(p *packet.Packet) bool

// Config parameterizes the plugin.
type Config struct {
	// MaxAttempts is MAX_ATTEMPTS of Eq (2) — the ceiling the MAC allows.
	MaxAttempts int
	// CacheEnabled turns in-network caching on. Off reproduces JNC (§4.1).
	CacheEnabled bool
	// CacheCapacity is the cache size in packets (Table 1 default: 1000).
	CacheCapacity int
	// MinLossRate floors the link-loss estimate used in Eq (2) so a
	// perfectly clean link still yields a finite attempt computation.
	MinLossRate float64
	// CachePolicy selects the cache replacement strategy. The paper uses
	// LRU and leaves other strategies to future work (§4, §8); see the
	// cache package.
	CachePolicy cache.Policy
}

// Defaults returns the Table 1 configuration: MAX_ATTEMPTS 5, caching on
// with capacity 1000.
func Defaults() Config {
	return Config{
		MaxAttempts:   5,
		CacheEnabled:  true,
		CacheCapacity: 1000,
		MinLossRate:   1e-4,
	}
}

// Counters tallies plugin activity for the experiment harness.
type Counters struct {
	// EnergyDrops counts packets dropped for exceeding their energy
	// budget (Algorithm 1 line 3).
	EnergyDrops uint64
	// CacheServed counts DATA packets retransmitted from the local cache
	// on behalf of a source.
	CacheServed uint64
	// SnackSeen counts SNACK sequence numbers examined in traversing ACKs.
	SnackSeen uint64
	// AlreadyRecovered counts SNACK entries skipped because a downstream
	// node had already recovered them.
	AlreadyRecovered uint64
	// DeadlineDrops counts real-time packets dropped past their deadline.
	DeadlineDrops uint64
	// Granted is the histogram of the attempt budgets granted to DATA
	// packets on their first transmission at this node (Fig 3(c)):
	// Granted[m] packets got m attempts. Budgets of len(Granted)-1 or
	// more share the last bucket.
	Granted [8]uint64
}

// Plugin is one node's iJTP instance. Install it on the node's MAC.
type Plugin struct {
	id      packet.NodeID
	cfg     Config
	view    PathView
	forward Forwarder
	cache   *cache.Cache
	count   Counters
	served  []uint32 // serveSnack scratch, reused across ACKs

	// Clock, when non-nil, supplies the current virtual time in seconds
	// and enables deadline enforcement: expired real-time packets are
	// dropped instead of consuming further transmissions (§2.1.1's
	// deadline field).
	Clock func() float64
}

// New returns the plugin for node id.
func New(id packet.NodeID, cfg Config, view PathView, forward Forwarder) *Plugin {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = Defaults().MaxAttempts
	}
	if cfg.MinLossRate <= 0 {
		cfg.MinLossRate = Defaults().MinLossRate
	}
	capacity := cfg.CacheCapacity
	if !cfg.CacheEnabled {
		capacity = 0
	}
	return &Plugin{
		id:      id,
		cfg:     cfg,
		view:    view,
		forward: forward,
		cache:   cache.NewWithPolicy(capacity, cfg.CachePolicy, int64(id)+1),
	}
}

// Clear zeroes the counters and empties the cache, for another run on
// the same node (mac.MAC.Clear calls it).
func (pl *Plugin) Clear() {
	pl.count = Counters{}
	pl.cache.Clear()
}

// Cache exposes the node's cache (tests and metrics).
func (pl *Plugin) Cache() *cache.Cache { return pl.cache }

// Counters returns a copy of the activity counters.
func (pl *Plugin) Counters() Counters { return pl.count }

// MaxAttemptsFor computes M_i of Eq (2): the number of link-layer
// transmissions needed for per-link success probability q given
// per-transmission loss probability p, clamped to [1, MAX_ATTEMPTS].
//
//	M_i = max(1, min( log(1−q)/log(p), MAX_ATTEMPTS ))
//
// A loss tolerance of zero (q = 1) always yields MAX_ATTEMPTS.
func MaxAttemptsFor(q, p float64, maxAttempts int) int {
	if q >= 1 {
		return maxAttempts
	}
	if q <= 0 {
		return 1
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return maxAttempts
	}
	m := math.Log(1-q) / math.Log(p)
	attempts := int(math.Ceil(m - 1e-9))
	if attempts < 1 {
		attempts = 1
	}
	if attempts > maxAttempts {
		attempts = maxAttempts
	}
	return attempts
}

// PerHopTarget computes q of Eq (4): the uniform per-link success target
// needed to meet loss tolerance lt over h remaining links,
// q = (1−lt)^(1/h).
func PerHopTarget(lt float64, h int) float64 {
	if lt <= 0 {
		return 1
	}
	if lt >= 1 {
		return 0
	}
	if h < 1 {
		h = 1
	}
	return math.Pow(1-lt, 1/float64(h))
}

// powInt returns x^n for n ≥ 0 by square-and-multiply over the bits of
// n, low bit first, which is math.Pow's own order for an integer
// exponent: scaling by powers of two changes no rounding, so for normal x
// and a normal result the bits equal math.Pow(x, float64(n)).
func powInt(x float64, n int) float64 {
	r := 1.0
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			r *= x
		}
		x *= x
	}
	return r
}

// UpdateLossTolerance computes lt_{i+1} of Eq (3) from the incoming
// tolerance and the success probability q_i actually achieved on this
// link, so "any left-over attempts do not get used downstream":
//
//	lt_{i+1} = 1 − (1−lt_i)/q_i
//
// The result is clamped to [0, 1).
func UpdateLossTolerance(lt, qi float64) float64 {
	if qi <= 0 {
		return 0
	}
	next := 1 - (1-lt)/qi
	if next < 0 {
		return 0
	}
	if next >= 1 {
		return 1 - 1e-9
	}
	return next
}

// PreXmit is Algorithm 1. It runs before every link-layer transmission
// attempt of a JTP packet.
func (pl *Plugin) PreXmit(fr *mac.Frame, link mac.LinkInfo) mac.Verdict {
	p, ok := fr.Seg.(*packet.Packet)
	if !ok {
		return mac.Continue
	}

	// Real-time traffic: an expired packet is worthless; drop before
	// spending anything further on it.
	if p.Deadline > 0 && pl.Clock != nil && pl.Clock() > p.Deadline {
		pl.count.DeadlineDrops++
		return mac.Drop
	}

	// 1: increaseEnergyUsed(packet) — charge the expected energy of this
	// attempt (transmit plus receive side) against the packet.
	p.EnergyUsed += link.AttemptCost

	// 2–3: drop when the budget is exhausted. A zero budget means
	// unbudgeted (e.g. packets originated before the first feedback).
	if p.EnergyBudget > 0 && p.EnergyUsed > p.EnergyBudget {
		pl.count.EnergyDrops++
		return mac.Drop
	}

	// ACKs are scarce, aggregated, and carry the connection's control
	// state; iJTP grants them full local-recovery effort (the lt=0
	// treatment — their loss-tolerance field is zero).
	if p.Type == packet.Ack && link.FirstAttempt {
		fr.MaxAttempts = pl.cfg.MaxAttempts
	}

	// 5–9: on the first transmission of a DATA packet on this hop,
	// derive the attempt budget from the loss tolerance and re-encode the
	// tolerance for the remainder of the path.
	if p.Type == packet.Data && link.FirstAttempt {
		lossRate := link.LossRate
		if lossRate < pl.cfg.MinLossRate {
			lossRate = pl.cfg.MinLossRate
		}
		h := pl.view.HopsTo(p.Dst)
		if h < 1 {
			// Unknown or stale view: be conservative, assume one hop
			// remains (maximum effort on this link for the tolerance).
			h = 1
		}
		q := PerHopTarget(p.LossTol, h)
		attempts := MaxAttemptsFor(q, lossRate, pl.cfg.MaxAttempts)
		fr.MaxAttempts = attempts
		pl.count.Granted[min(attempts, len(pl.count.Granted)-1)]++
		// Achieved per-link success with the granted attempts:
		// q_i = 1 − p^M_i (footnote 6).
		qi := 1 - powInt(lossRate, attempts)
		p.LossTol = UpdateLossTolerance(p.LossTol, qi)
	}

	// 10–12: stamp the minimum effective available rate along the path.
	if link.AvailRate < p.AvailRate {
		p.AvailRate = link.AvailRate
	}
	return mac.Continue
}

// PostRcv is Algorithm 2. It runs after every reception of a JTP packet
// at this node.
func (pl *Plugin) PostRcv(fr *mac.Frame) {
	p, ok := fr.Seg.(*packet.Packet)
	if !ok {
		return
	}
	switch p.Type {
	case packet.Data:
		// cachePacket(packet): cache traversing DATA so it can be
		// recovered locally later. The final destination does not cache
		// (it delivers), and cache-recovered copies are re-cached so the
		// recovery point can move downstream.
		if pl.cfg.CacheEnabled && p.Dst != pl.id {
			pl.cache.Insert(p)
		}
	case packet.Ack:
		pl.serveSnack(p)
	}
}

// serveSnack scans a traversing ACK's SNACK field, retransmits every
// requested packet present in the local cache toward the data
// destination, and moves the served sequence numbers into the ACK's
// locally-recovered field (§4: "the node appropriately modifies the ACK
// packet so the sender is explicitly informed of such in-network
// retransmissions done on its behalf").
func (pl *Plugin) serveSnack(ack *packet.Packet) {
	if !pl.cfg.CacheEnabled || ack.Ack == nil || len(ack.Ack.Snack) == 0 {
		return
	}
	// The ACK flows dst→src of the data transfer: data packets were keyed
	// (src=ack.Dst, dst=ack.Src).
	dataSrc, dataDst := ack.Dst, ack.Src
	served := pl.served[:0]
	for _, r := range ack.Ack.Snack {
		for seq := r.First; ; seq++ {
			pl.count.SnackSeen++
			if packet.RangesContain(ack.Ack.Recovered, seq) {
				// A node closer to the destination already recovered it;
				// do not retransmit again (§4).
				pl.count.AlreadyRecovered++
			} else {
				k := cache.Key{Src: dataSrc, Dst: dataDst, Flow: ack.Flow, Seq: seq}
				if cached, ok := pl.cache.Lookup(k); ok {
					cached.Flags |= packet.FlagCacheRecovered
					if pl.forward != nil && pl.forward(cached) {
						served = append(served, seq)
						pl.count.CacheServed++
					}
				}
			}
			if seq == r.Last {
				break
			}
		}
	}
	for _, seq := range served {
		ack.Ack.Snack = packet.RemoveFromRanges(ack.Ack.Snack, seq)
		ack.Ack.Recovered = mergeSeq(ack.Ack.Recovered, seq)
	}
	pl.served = served[:0]
}

// mergeSeq adds one sequence number to a range set, coalescing with an
// adjacent range when possible.
func mergeSeq(ranges []packet.SeqRange, seq uint32) []packet.SeqRange {
	for i := range ranges {
		r := &ranges[i]
		if r.Contains(seq) {
			return ranges
		}
		if seq+1 == r.First {
			r.First = seq
			return ranges
		}
		if r.Last+1 == seq {
			r.Last = seq
			return ranges
		}
	}
	return append(ranges, packet.SeqRange{First: seq, Last: seq})
}
