package core

import (
	"fmt"
	"slices"

	"github.com/javelen/jtp/internal/flipflop"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/transport"
)

// ReceiverStats tallies one connection's destination-side activity.
type ReceiverStats struct {
	transport.SinkStats
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
}

// Receiver is the destination side of a JTP connection: the path monitor,
// the PI²/MD rate controller, the energy-budget controller, and the
// feedback scheduler all live here (§5: "the receiver is fully
// responsible for controlling all transmission parameters").
type Receiver struct {
	// Sink's Got holds the satisfied sequence numbers, received or
	// forgiven. Its Lo is the cumulative point: everything needed below
	// it is satisfied, and the needed misses are its non-members below
	// Highest.
	transport.Sink
	cfg Config

	// owed lists, ascending, the forgiven sequence numbers below the
	// cumulative point that never arrived: a late copy of one is still a
	// unique delivery.
	owed []uint32
	// snackHold holds, per miss, when it may next be SNACKed (zero: now).
	snackHold transport.Ring[sim.Time]

	rate         float64 // controller output, packets/s
	energyBudget float64

	rateMon   *flipflop.Filter
	energyMon *flipflop.Filter
	// shifts are the instants, in seconds, at which the rate monitor
	// declared a persistent change (Fig 8).
	shifts []float64

	feedbackRef  sim.EventRef
	lastFeedback sim.Time
	timerRunning bool

	// pool is the network packet free-list (nil = unpooled); feedbackFn
	// is the regular-feedback handler bound once so the feedback clock
	// does not allocate a closure per cycle.
	pool       *packet.Pool
	feedbackFn sim.Handler

	stats ReceiverStats
}

// NewReceiver builds (but does not start) the destination side.
func NewReceiver(nw *node.Network, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{
		cfg:          cfg,
		pool:         nw.PacketPool(),
		rate:         cfg.InitialRate,
		energyBudget: cfg.InitialEnergyBudget,
		rateMon:      flipflop.New(cfg.RateMonitor),
		energyMon:    flipflop.New(cfg.EnergyMonitor),
	}
	r.Open(nw, cfg.Config, r, &r.stats.SinkStats)
	r.feedbackFn = r.regularFeedback
	return r
}

// Rate returns the controller's current mandated sending rate.
func (r *Receiver) Rate() float64 { return r.rate }

// Stop halts feedback and unbinds.
func (r *Receiver) Stop() {
	r.feedbackRef.Stop()
	r.Sink.Stop()
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
	now := r.Eng.Now()
	r.Arrive()
	if p.Flags&packet.FlagCacheRecovered != 0 {
		r.stats.CacheRecoveredSeen++
	}
	if p.Flags&packet.FlagRetransmit != 0 {
		r.stats.SourceRetransmitsSeen++
	}

	// A completed transfer still answering data means the source missed
	// the final ACK; re-send it (rate-limited) so the connection closes.
	if r.Done() {
		r.Duplicate()
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

	i, late := slices.BinarySearch(r.owed, p.Seq)
	if r.Got.Has(p.Seq) && !late {
		r.Duplicate()
		return
	}
	if late {
		r.owed = slices.Delete(r.owed, i, i+1)
	}
	r.Take(p.Seq, p.PayloadLen)
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
	if r.rateMon.Observe(sample) == flipflop.Shift {
		r.shifts = append(r.shifts, now.Seconds())
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
	r.snackHold.Advance(r.Got.Slide())
}

// allowance returns how many misses the application tolerates so far (§3).
func (r *Receiver) allowance() int {
	if r.TotalPackets > 0 {
		return int(r.cfg.LossTolerance * float64(r.TotalPackets))
	}
	if !r.GotAny {
		return 0
	}
	return int(r.cfg.LossTolerance * float64(r.Highest+1))
}

// forgive writes off the oldest misses within the loss-tolerance
// allowance, advancing the cumulative pointer past them. The misses are
// the gaps below the highest arrival, so the oldest is always the
// cumulative point itself.
func (r *Receiver) forgive() {
	for budget := r.allowance() - int(r.stats.Forgiven); budget > 0 && r.Got.Lo() < r.Highest; budget-- {
		r.owed = append(r.owed, r.Got.Lo())
		r.Got.Add(r.Got.Lo())
		r.stats.Forgiven++
		r.advanceCum()
	}
}

// snackGrace is how far below the highest received sequence a miss must
// be before it is SNACKed, tolerating in-network reordering (cache
// retransmissions jump the queue).
const snackGrace = 2

// buildSnack compresses the needed misses into ranges appended to rs,
// respecting the reordering grace and the wire limit. When the flow has
// stalled short of a known transfer size, the grace is waived and the
// unseen tail is requested too — otherwise a lost final packet could
// never be recovered (the SNACK field only describes gaps below the
// highest arrival).
func (r *Receiver) buildSnack(rs []packet.SeqRange) []packet.SeqRange {
	if r.cfg.DisableRetransmissions {
		return rs
	}
	const maxSnackRanges = 64
	now := r.Eng.Now()
	until := now.Add(sim.DurationOf(r.cfg.SnackRetry))
	// request asks for q unless it was asked for too recently: the
	// previous request needs time to be served (by a cache or the
	// source), or every traversing ACK would trigger duplicate recoveries.
	request := func(q uint32) {
		if hold := r.snackHold.Extend(q); now >= *hold {
			*hold = until
			rs = transport.AppendSeq(rs, q, maxSnackRanges)
		}
	}
	stalled := r.stalled()
	for first, last := range r.Got.Runs(r.Got.Lo(), r.Highest, false) {
		for q := first; q <= last && (stalled || q+snackGrace <= r.Highest); q++ {
			request(q)
		}
	}
	if stalled && r.TotalPackets > 0 && r.GotAny {
		// Request the unseen tail, a bounded chunk at a time.
		const tailChunk = 32
		hi := uint32(r.TotalPackets) - 1
		for q, n := r.Highest+1, 0; q <= hi && n < tailChunk; q, n = q+1, n+1 {
			request(q)
		}
	}
	return rs
}

// stalled reports whether a fixed-size transfer has stopped making
// progress: data flowed, the transfer is incomplete, and nothing arrived
// for a pacing-aware stall window.
func (r *Receiver) stalled() bool {
	if r.TotalPackets <= 0 || r.Done() || !r.GotAny {
		return false
	}
	window := 4 / r.rate
	if window < 2 {
		window = 2
	}
	return r.Eng.Now().Sub(r.LastDataAt).Seconds() > window
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
	r.feedbackRef = r.Eng.Schedule(sim.DurationOf(r.feedbackInterval()), r.feedbackFn)
}

func (r *Receiver) regularFeedback() {
	if r.Done() {
		return
	}
	r.sendFeedback(false)
	r.scheduleFeedback()
}

// earlyFeedback sends monitor-triggered feedback, rate-limited by
// MinFeedbackGap, and only in variable-feedback mode.
func (r *Receiver) earlyFeedback() {
	if r.Done() || r.cfg.ConstantFeedbackRate > 0 {
		return
	}
	now := r.Eng.Now()
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
		r.rate = transport.Clamp(r.rate, r.cfg.MinRate, r.MaxRate)
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
	now := r.Eng.Now()
	r.updateControllers()
	info := r.pool.GetAck()
	if !r.Done() {
		// A completed transfer needs nothing more: its final ACK, and
		// any repeat of it, neither forgives nor requests (§3).
		r.forgive()
		info.Snack = r.buildSnack(info.Snack)
	}
	for _, rg := range info.Snack {
		r.stats.SnackRequested += uint64(rg.Count())
	}
	t := r.feedbackInterval()

	ack := r.pool.Get()
	ack.Type = packet.Ack
	ack.Src = r.Dst
	ack.Dst = r.Src
	ack.Flow = r.Flow
	// ACKs are precious and rare: request full per-link effort
	// (LossTol stays zero).
	ack.AvailRate = packet.InitialAvailRate
	ack.Pad = r.cfg.AckPad
	info.CumAck = r.cumAck()
	info.Rate = r.rate
	info.EnergyBudget = r.energyBudget
	info.SenderTimeout = t
	ack.Ack = info
	if early {
		ack.Flags |= packet.FlagEarlyFeedback
	}
	r.Net.SendFrom(r.Dst, ack)
	r.stats.AcksSent++
	r.lastFeedback = now
}

// checkDone completes fixed-size transfers once the application's needed
// packet count is satisfied (§3: neither overachieving nor
// underachieving).
func (r *Receiver) checkDone() {
	if r.Done() || r.TotalPackets <= 0 {
		return
	}
	if int(r.stats.UniqueReceived) < r.cfg.neededPackets(r.TotalPackets) {
		return
	}
	r.Complete(func() {
		// Final ACK tells the source the transfer is complete.
		r.sendFeedback(false)
		r.feedbackRef.Stop()
	})
}

// cumAck is the cumulative ACK to report: a completed transfer reports
// its full size.
func (r *Receiver) cumAck() uint32 {
	if r.Done() {
		return uint32(r.TotalPackets)
	}
	return r.Got.Lo()
}

// Record adds the destination's counters to a flow record
// (transport.Endpoint).
func (r *Receiver) Record(fr *metrics.FlowRecord) {
	r.Sink.Record(fr)
	fr.CacheRecovered = r.stats.CacheRecoveredSeen
	fr.AcksSent = r.stats.AcksSent
	fr.RateShifts = r.shifts
}

// String summarizes the receiver.
func (r *Receiver) String() string {
	return fmt.Sprintf("jtp-receiver(flow=%d %v<-%v got=%d cum=%d rate=%.2f)",
		r.Flow, r.Dst, r.Src, r.stats.UniqueReceived, r.cumAck(), r.rate)
}

// Connection bundles both ends of a JTP connection.
type Connection = transport.Conn[*Sender, *Receiver]

// Dial builds both endpoints of a connection over the network.
func Dial(nw *node.Network, cfg Config) *Connection {
	return &Connection{
		Sender:   NewSender(nw, cfg),
		Receiver: NewReceiver(nw, cfg),
	}
}
