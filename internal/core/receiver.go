package core

import (
	"fmt"
	"sort"

	"github.com/javelen/jtp/internal/flipflop"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
)

// ReceiverStats tallies one connection's destination-side activity.
type ReceiverStats struct {
	// DataReceived counts DATA packet arrivals including duplicates.
	DataReceived uint64
	// UniqueReceived counts distinct sequence numbers delivered.
	UniqueReceived uint64
	// Duplicates counts repeated sequence numbers.
	Duplicates uint64
	// DeliveredBytes is the application payload delivered (unique).
	DeliveredBytes uint64
	// CacheRecoveredSeen counts arrivals flagged as in-network cache
	// retransmissions (Fig 11(c) "cache hits").
	CacheRecoveredSeen uint64
	// SourceRetransmitsSeen counts arrivals flagged as end-to-end
	// retransmissions (Fig 11(c) "source rtx").
	SourceRetransmitsSeen uint64
	// AcksSent counts feedback packets sent.
	AcksSent uint64
	// EarlyFeedbacks counts monitor-triggered (shift) feedbacks (§5.1).
	EarlyFeedbacks uint64
	// SnackRequested counts sequence numbers requested for retransmission.
	SnackRequested uint64
	// Forgiven counts misses written off under the loss tolerance (§3).
	Forgiven uint64
	// Completed reports whether a fixed-size transfer finished, at
	// CompletedAt.
	Completed   bool
	CompletedAt sim.Time
}

// MonitorSample is one path-monitor observation, exported for the Fig 8
// time-series plots.
type MonitorSample struct {
	T        float64 // seconds
	Reported float64 // the raw sample (min available rate stamped in header)
	Mean     float64 // EWMA after folding the sample in
	LCL, UCL float64 // control limits before the sample
	Event    flipflop.Event
}

// Receiver is the destination side of a JTP connection: the path monitor,
// the PI²/MD rate controller, the energy-budget controller, and the
// feedback scheduler all live here (§5: "the receiver is fully
// responsible for controlling all transmission parameters").
type Receiver struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	received    map[uint32]bool
	missedAt    map[uint32]sim.Time // when each gap was first noticed
	requestedAt map[uint32]sim.Time // when each miss was last SNACKed
	forgiven    map[uint32]bool
	highest     uint32 // highest seq seen (valid once gotAny)
	gotAny      bool
	cum         uint32 // next needed seq: all needed below are satisfied
	doneFlag    bool
	startedAt   sim.Time
	lastDataAt  sim.Time

	rate         float64 // controller output, packets/s
	energyBudget float64

	rateMon   *flipflop.Filter
	energyMon *flipflop.Filter

	feedbackRef  sim.EventRef
	lastFeedback sim.Time
	timerRunning bool

	// pool is the network packet free-list (nil = unpooled); feedbackFn
	// is the regular-feedback handler bound once so the feedback clock
	// does not allocate a closure per cycle.
	pool       *packet.Pool
	feedbackFn sim.Handler

	stats     ReceiverStats
	reception stats.Series // one sample per unique delivery (V=1)

	// OnRateSample observes every path-monitor observation (Fig 8).
	OnRateSample func(MonitorSample)
	// OnDeliver fires on every unique in-order-agnostic delivery.
	OnDeliver func(seq uint32, at sim.Time)
	// OnComplete fires once when a fixed-size transfer completes.
	OnComplete func(at sim.Time)
}

// NewReceiver builds (but does not start) the destination side.
func NewReceiver(nw *node.Network, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{
		cfg:          cfg,
		net:          nw,
		eng:          nw.Engine(),
		pool:         nw.PacketPool(),
		received:     make(map[uint32]bool),
		missedAt:     make(map[uint32]sim.Time),
		requestedAt:  make(map[uint32]sim.Time),
		forgiven:     make(map[uint32]bool),
		rate:         cfg.InitialRate,
		energyBudget: cfg.InitialEnergyBudget,
		rateMon:      flipflop.New(cfg.RateMonitor),
		energyMon:    flipflop.New(cfg.EnergyMonitor),
	}
	r.feedbackFn = r.regularFeedback
	return r
}

// Config returns the connection configuration (with defaults applied).
func (r *Receiver) Config() Config { return r.cfg }

// Stats returns a copy of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Rate returns the controller's current mandated sending rate.
func (r *Receiver) Rate() float64 { return r.rate }

// Done reports whether a fixed transfer completed.
func (r *Receiver) Done() bool { return r.doneFlag }

// RateMonitor exposes the path monitor (tests, Fig 8).
func (r *Receiver) RateMonitor() *flipflop.Filter { return r.rateMon }

// EnergyMonitor exposes the per-packet energy monitor.
func (r *Receiver) EnergyMonitor() *flipflop.Filter { return r.energyMon }

// Reception returns the delivery time series (one sample per unique
// packet) for throughput plots.
func (r *Receiver) Reception() *stats.Series { return &r.reception }

// Start binds the receiver to its node.
func (r *Receiver) Start() {
	r.net.Bind(r.cfg.Dst, r.cfg.Flow, r)
	r.startedAt = r.eng.Now()
}

// Stop halts feedback and unbinds.
func (r *Receiver) Stop() {
	r.feedbackRef.Stop()
	r.net.Unbind(r.cfg.Dst, r.cfg.Flow)
}

// Deliver handles an arriving DATA packet (node.Transport). The final
// destination is the packet's terminal consumer — in-network caches hold
// clones, never the traversing packet — so it is recycled onto the
// network free-list once processed.
func (r *Receiver) Deliver(seg mac.Segment, _ packet.NodeID) {
	p, ok := seg.(*packet.Packet)
	if !ok || p.Type != packet.Data {
		return
	}
	r.processData(p)
	r.pool.Put(p)
}

func (r *Receiver) processData(p *packet.Packet) {
	now := r.eng.Now()
	r.stats.DataReceived++
	r.lastDataAt = now
	if p.Flags&packet.FlagCacheRecovered != 0 {
		r.stats.CacheRecoveredSeen++
	}
	if p.Flags&packet.FlagRetransmit != 0 {
		r.stats.SourceRetransmitsSeen++
	}

	// A completed transfer still answering data means the source missed
	// the final ACK; re-send it (rate-limited) so the connection closes.
	if r.doneFlag {
		r.stats.Duplicates++
		if now.Sub(r.lastFeedback).Seconds() >= r.cfg.MinFeedbackGap {
			r.sendFeedback(false)
		}
		return
	}

	// Path monitoring (§5.1): every data packet carries the minimum
	// effective available rate along its path and the energy the network
	// spent on it.
	r.observeRate(p.AvailRate, now)
	r.observeEnergy(p.EnergyUsed)

	// Start the regular feedback clock on first arrival.
	if !r.timerRunning {
		r.scheduleFeedback()
		r.timerRunning = true
	}

	if r.received[p.Seq] {
		r.stats.Duplicates++
		return
	}
	r.received[p.Seq] = true
	delete(r.missedAt, p.Seq)
	delete(r.requestedAt, p.Seq)
	r.stats.UniqueReceived++
	r.stats.DeliveredBytes += uint64(p.PayloadLen)
	r.reception.Add(now.Seconds(), 1)
	if r.OnDeliver != nil {
		r.OnDeliver(p.Seq, now)
	}

	// Note newly visible gaps.
	if !r.gotAny || p.Seq > r.highest {
		lo := uint32(0)
		if r.gotAny {
			lo = r.highest + 1
		}
		for q := lo; q < p.Seq; q++ {
			if !r.received[q] {
				if _, seen := r.missedAt[q]; !seen {
					r.missedAt[q] = now
				}
			}
		}
		r.highest = p.Seq
		r.gotAny = true
	}

	r.advanceCum()
	r.checkDone()
}

// observeRate feeds the rate monitor and fires early feedback on shifts.
func (r *Receiver) observeRate(sample float64, now sim.Time) {
	if sample >= packet.InitialAvailRate {
		// Unstamped (single-hop delivery straight from source queue with
		// no iJTP in between would leave the sentinel; ignore).
		return
	}
	lcl, ucl := r.rateMon.Limits()
	ev := r.rateMon.Observe(sample)
	if r.OnRateSample != nil {
		r.OnRateSample(MonitorSample{
			T: now.Seconds(), Reported: sample, Mean: r.rateMon.Mean(),
			LCL: lcl, UCL: ucl, Event: ev,
		})
	}
	if ev == flipflop.Shift {
		r.earlyFeedback()
	}
}

// observeEnergy feeds the per-packet energy monitor; persistent surges
// trigger early feedback so the budget adapts (§5.2.4).
func (r *Receiver) observeEnergy(sample float64) {
	if sample <= 0 {
		return
	}
	if r.energyMon.Observe(sample) == flipflop.Shift {
		r.earlyFeedback()
	}
}

// advanceCum moves the cumulative pointer past received or forgiven
// sequence numbers.
func (r *Receiver) advanceCum() {
	for r.received[r.cum] || r.forgiven[r.cum] {
		delete(r.missedAt, r.cum)
		delete(r.requestedAt, r.cum)
		r.cum++
	}
}

// allowance returns how many misses the application tolerates so far (§3).
func (r *Receiver) allowance() int {
	if r.cfg.TotalPackets > 0 {
		return int(r.cfg.LossTolerance * float64(r.cfg.TotalPackets))
	}
	if !r.gotAny {
		return 0
	}
	return int(r.cfg.LossTolerance * float64(r.highest+1))
}

// forgive writes off the oldest misses within the loss-tolerance
// allowance, advancing the cumulative pointer past them. Returns the
// remaining (needed) misses in ascending order.
func (r *Receiver) forgiveAndCollectMisses() []uint32 {
	if !r.gotAny {
		return nil
	}
	misses := make([]uint32, 0, len(r.missedAt))
	for q := range r.missedAt {
		if !r.received[q] && !r.forgiven[q] {
			misses = append(misses, q)
		}
	}
	sort.Slice(misses, func(i, j int) bool { return misses[i] < misses[j] })

	budget := r.allowance() - int(r.stats.Forgiven)
	if budget > 0 && len(misses) > 0 {
		nf := budget
		if nf > len(misses) {
			nf = len(misses)
		}
		for _, q := range misses[:nf] {
			r.forgiven[q] = true
			delete(r.missedAt, q)
			r.stats.Forgiven++
		}
		misses = misses[nf:]
	}
	r.advanceCum()
	return misses
}

// snackGrace is how far below the highest received sequence a miss must
// be before it is SNACKed, tolerating in-network reordering (cache
// retransmissions jump the queue).
const snackGrace = 2

// buildSnack compresses the needed misses into ranges, respecting the
// reordering grace and the wire limit. When the flow has stalled short of
// a known transfer size, the grace is waived and the unseen tail is
// requested too — otherwise a lost final packet could never be recovered
// (the SNACK field only describes gaps below the highest arrival).
func (r *Receiver) buildSnack(misses []uint32) []packet.SeqRange {
	if !r.cfg.RequestRetransmissions {
		return nil
	}
	now := r.eng.Now()
	stalled := r.stalled()
	retry := sim.DurationOf(r.cfg.SnackRetry)
	eligible := misses[:0]
	for _, q := range misses {
		if !stalled && q+snackGrace > r.highest {
			continue
		}
		// Re-request only after the previous request had time to be
		// served (by a cache or the source); otherwise every traversing
		// ACK would trigger duplicate recoveries.
		if at, ok := r.requestedAt[q]; ok && now.Sub(at) < retry {
			continue
		}
		eligible = append(eligible, q)
	}
	if stalled && r.cfg.TotalPackets > 0 && r.gotAny {
		// Request the unseen tail, a bounded chunk at a time.
		const tailChunk = 32
		hi := uint32(r.cfg.TotalPackets) - 1
		for q, n := r.highest+1, 0; q <= hi && n < tailChunk; q, n = q+1, n+1 {
			if at, ok := r.requestedAt[q]; ok && now.Sub(at) < retry {
				continue
			}
			eligible = append(eligible, q)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	for _, q := range eligible {
		r.requestedAt[q] = now
	}
	ranges := packet.RangesFromSeqs(eligible)
	const maxSnackRanges = 64
	if len(ranges) > maxSnackRanges {
		ranges = ranges[:maxSnackRanges]
	}
	return ranges
}

// stalled reports whether a fixed-size transfer has stopped making
// progress: data flowed, the transfer is incomplete, and nothing arrived
// for a pacing-aware stall window.
func (r *Receiver) stalled() bool {
	if r.cfg.TotalPackets <= 0 || r.doneFlag || !r.gotAny {
		return false
	}
	window := 4 / r.rate
	if window < 2 {
		window = 2
	}
	return r.eng.Now().Sub(r.lastDataAt).Seconds() > window
}

// feedbackInterval computes T = max(T_LowerBound, n·1/rate) (§5.1).
func (r *Receiver) feedbackInterval() float64 {
	if r.cfg.ConstantFeedbackRate > 0 {
		return 1 / r.cfg.ConstantFeedbackRate
	}
	t := r.cfg.FeedbackN / r.rate
	if t < r.cfg.TLowerBound {
		t = r.cfg.TLowerBound
	}
	return t
}

// scheduleFeedback arms the next regular feedback.
func (r *Receiver) scheduleFeedback() {
	r.feedbackRef.Stop()
	r.feedbackRef = r.eng.Schedule(sim.DurationOf(r.feedbackInterval()), r.feedbackFn)
}

func (r *Receiver) regularFeedback() {
	if r.doneFlag {
		return
	}
	r.sendFeedback(false)
	r.scheduleFeedback()
}

// earlyFeedback sends monitor-triggered feedback, rate-limited by
// MinFeedbackGap, and only in variable-feedback mode.
func (r *Receiver) earlyFeedback() {
	if r.doneFlag || r.cfg.ConstantFeedbackRate > 0 {
		return
	}
	now := r.eng.Now()
	if r.stats.AcksSent > 0 && now.Sub(r.lastFeedback).Seconds() < r.cfg.MinFeedbackGap {
		return
	}
	r.stats.EarlyFeedbacks++
	r.sendFeedback(true)
	r.scheduleFeedback() // restart the regular clock
}

// updateControllers runs the PI²/MD rate controller (Eqs 9–10) and the
// energy-budget controller (Eq 13).
func (r *Receiver) updateControllers() {
	if r.rateMon.Primed() {
		avail := r.rateMon.Mean()
		if avail > r.cfg.Delta {
			r.rate += r.cfg.KI * avail / r.rate
		} else {
			r.rate *= r.cfg.KD
		}
		r.rate = clamp(r.rate, r.cfg.MinRate, r.cfg.MaxRate)
	}
	if r.energyMon.Primed() {
		r.energyBudget = r.cfg.Beta * r.energyMon.UCL()
		if r.energyBudget <= 0 {
			r.energyBudget = r.cfg.InitialEnergyBudget
		}
	}
}

// sendFeedback assembles and transmits one ACK.
func (r *Receiver) sendFeedback(early bool) {
	now := r.eng.Now()
	r.updateControllers()
	misses := r.forgiveAndCollectMisses()
	snack := r.buildSnack(misses)
	for _, rg := range snack {
		r.stats.SnackRequested += uint64(rg.Count())
	}
	t := r.feedbackInterval()

	ack := r.pool.Get()
	ack.Type = packet.Ack
	ack.Src = r.cfg.Dst
	ack.Dst = r.cfg.Src
	ack.Flow = r.cfg.Flow
	// ACKs are precious and rare: request full per-link effort
	// (LossTol stays zero).
	ack.AvailRate = packet.InitialAvailRate
	ack.Pad = r.cfg.AckPad
	info := r.pool.GetAck()
	info.CumAck = r.cum
	info.Rate = r.rate
	info.EnergyBudget = r.energyBudget
	info.SenderTimeout = t
	info.Snack = snack
	ack.Ack = info
	if early {
		ack.Flags |= packet.FlagEarlyFeedback
	}
	if r.doneFlag {
		ack.Ack.CumAck = uint32(r.cfg.TotalPackets)
	}
	r.net.SendFrom(r.cfg.Dst, ack)
	r.stats.AcksSent++
	r.lastFeedback = now
}

// checkDone completes fixed-size transfers once the application's needed
// packet count is satisfied (§3: neither overachieving nor
// underachieving).
func (r *Receiver) checkDone() {
	if r.doneFlag || r.cfg.TotalPackets <= 0 {
		return
	}
	if int(r.stats.UniqueReceived) < r.cfg.neededPackets(r.cfg.TotalPackets) {
		return
	}
	r.doneFlag = true
	r.stats.Completed = true
	r.stats.CompletedAt = r.eng.Now()
	r.cum = uint32(r.cfg.TotalPackets)
	// Final ACK tells the source the transfer is complete.
	r.sendFeedback(false)
	r.feedbackRef.Stop()
	if r.OnComplete != nil {
		r.OnComplete(r.stats.CompletedAt)
	}
}

// String summarizes the receiver.
func (r *Receiver) String() string {
	return fmt.Sprintf("jtp-receiver(flow=%d %v<-%v got=%d cum=%d rate=%.2f)",
		r.cfg.Flow, r.cfg.Dst, r.cfg.Src, r.stats.UniqueReceived, r.cum, r.rate)
}

// Connection bundles both ends of a JTP connection for convenience.
type Connection struct {
	Sender   *Sender
	Receiver *Receiver
}

// Dial builds both endpoints of a connection over the network.
func Dial(nw *node.Network, cfg Config) *Connection {
	return &Connection{
		Sender:   NewSender(nw, cfg),
		Receiver: NewReceiver(nw, cfg),
	}
}

// Start starts receiver then sender (so the first packet finds the
// receiver bound).
func (c *Connection) Start() {
	c.Receiver.Start()
	c.Sender.Start()
}

// Stop stops both endpoints.
func (c *Connection) Stop() {
	c.Sender.Stop()
	c.Receiver.Stop()
}

// Done reports whether a fixed-size transfer completed end to end.
func (c *Connection) Done() bool { return c.Receiver.Done() && c.Sender.Done() }
