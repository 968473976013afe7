package core

import (
	"fmt"
	"math"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/transport"
)

// SenderStats tallies one connection's source-side activity.
type SenderStats struct {
	// DataSent counts first transmissions of new packets.
	DataSent uint64
	// SourceRetransmissions counts end-to-end retransmissions (Fig 6).
	SourceRetransmissions uint64
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
	// CompletedAt is the virtual time the transfer finished (fixed-size
	// transfers only).
	CompletedAt sim.Time
	// Completed reports whether a fixed-size transfer finished.
	Completed bool
}

// Sender is the source side of a JTP connection.
type Sender struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	rate         float64 // packets/s mandated by the receiver
	energyBudget float64
	nextSeq      uint32
	cumAck       uint32
	retx         transport.RetxQueue // end-to-end retransmissions
	backoffUntil sim.Time
	started      bool
	done         bool

	feedbackT  float64 // receiver's announced feedback interval (s)
	paceRef    sim.EventRef
	timeoutRef sim.EventRef

	// pool is the network packet free-list (nil = unpooled); paceFn and
	// timeoutFn are the method-value handlers, bound once so re-arming a
	// timer does not allocate a closure per packet.
	pool      *packet.Pool
	paceFn    sim.Handler
	timeoutFn sim.Handler

	stats SenderStats

	// OnComplete, when non-nil, fires once when a fixed-size transfer
	// completes.
	OnComplete func(at sim.Time)
}

// NewSender builds (but does not start) the source side of a connection.
func NewSender(nw *node.Network, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg:          cfg,
		net:          nw,
		eng:          nw.Engine(),
		pool:         nw.PacketPool(),
		rate:         cfg.InitialRate,
		energyBudget: cfg.InitialEnergyBudget,
		feedbackT:    cfg.TLowerBound,
	}
	s.paceFn = s.pace
	s.timeoutFn = s.onTimeout
	return s
}

// Config returns the connection configuration (with defaults applied).
func (s *Sender) Config() Config { return s.cfg }

// Stats returns a copy of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Rate returns the current sending rate in packets/s.
func (s *Sender) Rate() float64 { return s.rate }

// Done reports whether a fixed-size transfer completed.
func (s *Sender) Done() bool { return s.done }

// Start binds the sender to its node and begins pacing.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.net.Bind(s.cfg.Src, s.cfg.Flow, s)
	s.schedulePace(0)
	s.armTimeout()
}

// Stop halts pacing and timers (teardown).
func (s *Sender) Stop() {
	s.paceRef.Stop()
	s.timeoutRef.Stop()
	s.net.Unbind(s.cfg.Src, s.cfg.Flow)
}

// schedulePace arms the next pacing event d from now, replacing any
// pending one.
func (s *Sender) schedulePace(d sim.Duration) {
	s.paceRef.Stop()
	s.paceRef = s.eng.Schedule(d, s.paceFn)
}

// interPacket returns the current pacing gap.
func (s *Sender) interPacket() sim.Duration {
	r := s.rate
	if r < s.cfg.MinRate {
		r = s.cfg.MinRate
	}
	return sim.DurationOf(1 / r)
}

// pace transmits the next packet (retransmission first) and re-arms.
func (s *Sender) pace() {
	if s.done {
		return
	}
	now := s.eng.Now()
	if now < s.backoffUntil {
		// §4.2: the source is backing off to compensate for in-network
		// retransmissions made on its behalf.
		s.paceRef = s.eng.ScheduleAt(s.backoffUntil, s.paceFn)
		return
	}
	seq, retransmit, ok := s.nextToSend()
	if !ok {
		// Nothing to send: everything is out; pacing resumes when
		// feedback requests retransmissions. The no-feedback timeout
		// stays armed.
		return
	}
	p := s.buildData(seq, retransmit)
	s.net.SendFrom(s.cfg.Src, p)
	if retransmit {
		s.stats.SourceRetransmissions++
	} else {
		s.stats.DataSent++
	}
	s.schedulePace(s.interPacket())
}

// nextToSend picks the next sequence number: pending end-to-end
// retransmissions take priority over new data.
func (s *Sender) nextToSend() (seq uint32, retransmit, ok bool) {
	if seq, ok = s.retx.Pop(s.cumAck); ok {
		return seq, true, true
	}
	if s.cfg.TotalPackets > 0 && int(s.nextSeq) >= s.cfg.TotalPackets {
		return 0, false, false
	}
	seq = s.nextSeq
	s.nextSeq++
	return seq, false, true
}

// buildData assembles a DATA packet with the §2.1.1 header fields. The
// packet comes from the network free-list; the endpoint it is delivered
// to recycles it.
func (s *Sender) buildData(seq uint32, retransmit bool) *packet.Packet {
	p := s.pool.Get()
	p.Type = packet.Data
	p.Src = s.cfg.Src
	p.Dst = s.cfg.Dst
	p.Flow = s.cfg.Flow
	p.Seq = seq
	p.AvailRate = packet.InitialAvailRate
	p.LossTol = s.cfg.LossTolerance
	p.EnergyBudget = s.energyBudget
	p.PayloadLen = s.cfg.PayloadLen
	if seq == 0 {
		p.Flags |= packet.FlagFirst
	}
	if s.cfg.TotalPackets > 0 && int(seq) == s.cfg.TotalPackets-1 {
		p.Flags |= packet.FlagLast
	}
	if retransmit {
		p.Flags |= packet.FlagRetransmit
	}
	if s.cfg.DeadlineAfter > 0 {
		p.Flags |= packet.FlagDeadline
		p.Deadline = s.eng.Now().Seconds() + s.cfg.DeadlineAfter
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
	if ack.Ack == nil || s.done {
		return
	}
	s.stats.AcksReceived++
	info := ack.Ack

	// Adopt the receiver-mandated transmission parameters (§5).
	if info.Rate > 0 {
		s.rate = clamp(info.Rate, s.cfg.MinRate, s.cfg.MaxRate)
	}
	if info.EnergyBudget > 0 {
		s.energyBudget = info.EnergyBudget
	}
	if info.SenderTimeout > 0 {
		s.feedbackT = info.SenderTimeout
	}
	s.armTimeout()

	// Cumulative progress.
	if info.CumAck > s.cumAck {
		s.cumAck = info.CumAck
	}
	if s.cfg.TotalPackets > 0 && int(s.cumAck) >= s.cfg.TotalPackets {
		s.complete()
		return
	}

	// End-to-end retransmissions: only what no cache recovered ("When
	// the source of the transfer receives an ACK, it will only
	// retransmit packets that remain in the SNACK field", §4). That
	// includes a stalled receiver's requests for the unseen tail, which
	// go out ahead of new data as retransmissions.
	s.retx.PushRanges(info.Snack, s.cumAck, math.MaxUint32)

	// §4.2 fairness back-off for in-network retransmissions done on the
	// source's behalf: t_b = Σ s_j / r(t). Packet sizes are uniform here,
	// so t_b = N/r.
	if n := info.RecoveredCount(); n > 0 {
		s.stats.RecoveredReported += uint64(n)
		if s.cfg.SourceBackoff {
			now := s.eng.Now()
			tb := float64(n) / s.rate
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
	if !s.paceRef.Pending() {
		s.schedulePace(0)
	}
}

// complete finishes a fixed-size transfer.
func (s *Sender) complete() {
	s.done = true
	s.stats.Completed = true
	s.stats.CompletedAt = s.eng.Now()
	s.paceRef.Stop()
	s.timeoutRef.Stop()
	if s.OnComplete != nil {
		s.OnComplete(s.stats.CompletedAt)
	}
}

// armTimeout (re)arms the no-feedback timer: if the receiver's announced
// feedback interval passes with no ACK, back off multiplicatively (§5.1 —
// rate-based control must defend against lost feedback).
func (s *Sender) armTimeout() {
	s.timeoutRef.Stop()
	d := sim.DurationOf(s.feedbackT * s.cfg.TimeoutFactor)
	if d <= 0 {
		d = sim.Second
	}
	s.timeoutRef = s.eng.Schedule(d, s.timeoutFn)
}

func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	s.rate = clamp(s.rate*s.cfg.KD, s.cfg.MinRate, s.cfg.MaxRate)
	s.stats.TimeoutBackoffs++
	// A fixed-size transfer with everything sent but no completion signal
	// may have lost the final ACK: probe with a retransmission of the
	// oldest unacknowledged packet to solicit fresh feedback.
	if s.cfg.TotalPackets > 0 && int(s.nextSeq) >= s.cfg.TotalPackets &&
		s.retx.Len() == 0 && s.cumAck < uint32(s.cfg.TotalPackets) {
		s.retx.Push(s.cumAck)
		if !s.paceRef.Pending() {
			s.schedulePace(0)
		}
	}
	s.armTimeout()
}

// Record adds the source's counters to a flow record (transport.Endpoint).
func (s *Sender) Record(fr *metrics.FlowRecord) {
	fr.DataSent = s.stats.DataSent
	fr.SourceRetransmissions = s.stats.SourceRetransmissions
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String summarizes the sender.
func (s *Sender) String() string {
	return fmt.Sprintf("jtp-sender(flow=%d %v->%v rate=%.2fpps cum=%d)",
		s.cfg.Flow, s.cfg.Src, s.cfg.Dst, s.rate, s.cumAck)
}
