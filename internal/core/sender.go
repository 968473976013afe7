package core

import (
	"fmt"
	"math"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/transport"
)

// SenderStats tallies one connection's source-side activity. Its
// Retransmissions are end-to-end ones (Fig 6).
type SenderStats struct {
	transport.SourceStats
	// AcksReceived counts feedback packets that reached the source.
	AcksReceived uint64
	// RecoveredReported counts packets ACKs reported as locally recovered
	// by in-network caches on this connection's behalf.
	RecoveredReported uint64
	// BackoffTime accumulates seconds spent backing off for in-network
	// retransmissions (§4.2).
	BackoffTime float64
	// TimeoutBackoffs counts multiplicative decreases due to missing
	// feedback (§5.1 "if the sender does not get an ACK within the
	// expected feedback delay, it backs off its transmission rate").
	TimeoutBackoffs uint64
}

// Sender is the source side of a JTP connection.
type Sender struct {
	transport.Source
	cfg Config

	energyBudget float64
	backoffUntil sim.Time
	started      bool
	feedbackT    float64 // receiver's announced feedback interval (s)

	// pool is the network packet free-list (nil = unpooled).
	pool  *packet.Pool
	stats SenderStats
}

// NewSender builds (but does not start) the source side of a connection.
func NewSender(nw *node.Network, cfg Config) *Sender {
	s := &Sender{
		cfg:          cfg,
		pool:         nw.PacketPool(),
		energyBudget: initialEnergyBudget,
		feedbackT:    DefaultTLowerBound,
	}
	s.Open(nw, cfg.Config, minRate, s, &s.stats.SourceStats)
	return s
}

// Start binds the sender to its node and begins pacing.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.Source.Start()
	s.armTimeout()
}

// Ready holds pacing while the source backs off (transport.Sender).
func (s *Sender) Ready() bool {
	if s.Eng.Now() < s.backoffUntil {
		// §4.2: the source is backing off to compensate for in-network
		// retransmissions made on its behalf.
		s.PaceAt(s.backoffUntil)
		return false
	}
	return true
}

// Emit sends one DATA packet (transport.Sender).
func (s *Sender) Emit(seq uint32, retransmit bool) bool {
	s.Net.SendFrom(s.Src, s.buildData(seq, retransmit))
	return true
}

// buildData assembles a DATA packet with the §2.1.1 header fields. The
// packet comes from the network free-list; the endpoint it is delivered
// to recycles it.
func (s *Sender) buildData(seq uint32, retransmit bool) *packet.Packet {
	p := s.pool.Get()
	p.Type = packet.Data
	p.Src = s.Src
	p.Dst = s.Dst
	p.Flow = s.Flow
	p.Seq = seq
	p.AvailRate = packet.InitialAvailRate
	p.LossTol = s.cfg.LossTolerance
	p.EnergyBudget = s.energyBudget
	p.PayloadLen = DefaultPayloadLen
	if seq == 0 {
		p.Flags |= packet.FlagFirst
	}
	if s.TotalPackets > 0 && int(seq) == s.TotalPackets-1 {
		p.Flags |= packet.FlagLast
	}
	if retransmit {
		p.Flags |= packet.FlagRetransmit
	}
	if s.cfg.DeadlineAfter > 0 {
		p.Flags |= packet.FlagDeadline
		p.Deadline = s.Eng.Now().Seconds() + s.cfg.DeadlineAfter
	}
	return p
}

// Deliver handles feedback from the receiver (node.Transport). The source
// is the terminal consumer of an ACK — caches only store DATA clones — so
// the packet is recycled onto the network free-list afterwards.
func (s *Sender) Deliver(seg mac.Segment, _ packet.NodeID) {
	ack, ok := seg.(*packet.Packet)
	if !ok || ack.Type != packet.Ack {
		return
	}
	s.processAck(ack)
	s.pool.Put(ack)
}

func (s *Sender) processAck(ack *packet.Packet) {
	if ack.Ack == nil || s.Done() {
		return
	}
	s.stats.AcksReceived++
	info := ack.Ack

	// Adopt the receiver-mandated transmission parameters (§5).
	if info.Rate > 0 {
		s.SetRate(info.Rate)
	}
	if info.EnergyBudget > 0 {
		s.energyBudget = info.EnergyBudget
	}
	if info.SenderTimeout > 0 {
		s.feedbackT = info.SenderTimeout
	}
	s.armTimeout()

	s.CumAck = max(s.CumAck, info.CumAck)
	if s.Finish() {
		return
	}

	// End-to-end retransmissions: only what no cache recovered ("When
	// the source of the transfer receives an ACK, it will only
	// retransmit packets that remain in the SNACK field", §4). That
	// includes a stalled receiver's requests for the unseen tail, which
	// go out ahead of new data as retransmissions.
	s.Retx.PushRanges(info.Snack, s.CumAck, math.MaxUint32)

	// §4.2 fairness back-off for in-network retransmissions done on the
	// source's behalf: t_b = Σ s_j / r(t). Packet sizes are uniform here,
	// so t_b = N/r.
	if n := info.RecoveredCount(); n > 0 {
		s.stats.RecoveredReported += uint64(n)
		if !s.cfg.DisableBackoff {
			now := s.Eng.Now()
			tb := float64(n) / s.Rate()
			base := now
			if s.backoffUntil > base {
				base = s.backoffUntil
			}
			until := base.Add(sim.DurationOf(tb))
			// Bound the accumulated back-off so bursts of recovery
			// reports cannot stall the source past the next feedback
			// cycle — by then the receiver's rate mandate has already
			// absorbed the load.
			cap := now.Add(sim.DurationOf(2 * s.feedbackT))
			if until > cap {
				until = cap
			}
			s.stats.BackoffTime += until.Sub(base).Seconds()
			s.backoffUntil = until
		}
	}

	// Feedback may arrive while pacing is idle (everything sent, now new
	// retransmissions queued): resume.
	s.Resume()
}

// armTimeout (re)arms the no-feedback timer: if the receiver's announced
// feedback interval passes with no ACK, back off multiplicatively (§5.1 —
// rate-based control must defend against lost feedback).
func (s *Sender) armTimeout() {
	d := sim.DurationOf(s.feedbackT * timeoutFactor)
	if d <= 0 {
		d = sim.Second
	}
	s.ArmTimer(d)
}

// Timeout backs off on feedback silence (transport.Sender).
func (s *Sender) Timeout() {
	if s.Done() {
		return
	}
	s.SetRate(s.Rate() * kD)
	s.stats.TimeoutBackoffs++
	// A fixed-size transfer with everything sent but no completion signal
	// may have lost the final ACK: probe with a retransmission of the
	// oldest unacknowledged packet to solicit fresh feedback.
	if s.TotalPackets > 0 && int(s.NextSeq) >= s.TotalPackets &&
		s.Retx.Len() == 0 && s.CumAck < uint32(s.TotalPackets) {
		s.Retx.Push(s.CumAck)
		s.Resume()
	}
	s.armTimeout()
}

// String summarizes the sender.
func (s *Sender) String() string {
	return fmt.Sprintf("jtp-sender(flow=%d %v->%v rate=%.2fpps cum=%d)",
		s.Flow, s.Src, s.Dst, s.Rate(), s.CumAck)
}
