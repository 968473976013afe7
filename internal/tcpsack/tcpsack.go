// Package tcpsack implements the TCP-SACK baseline of paper §6.1:
// "a rate-based flavor of TCP-SACK, whereby the rate of each flow is set
// by the well-known throughput equation of TCP [Padhye et al.]", removing
// window-burstiness artifacts the way TCP pacing does, with delayed ACKs
// (one per two data packets) and SACK-based selective retransmission.
//
// It is a fully reliable, sender-driven protocol with no in-network help:
// every loss costs an end-to-end retransmission and every second packet
// costs an ACK — exactly the energy behaviour the paper contrasts JTP
// against.
package tcpsack

import (
	"fmt"
	"math"
	"slices"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/pool"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
	"github.com/javelen/jtp/internal/transport"
)

// Kind discriminates TCP segment types.
type Kind uint8

const (
	// Data carries payload.
	Data Kind = iota + 1
	// Ack carries cumulative + selective acknowledgment.
	Ack
)

// The §6.1 TCP-SACK parameters.
const (
	// PayloadLen keeps parity with JTP's 800-byte packets on a 40-byte
	// TCP/IP header.
	PayloadLen = 800 - transport.HeaderSize
	// MinRate floors the equation-based rate in packets/s.
	MinRate = 0.02
	// DelayedAckCount is the b of the throughput equation: one ACK per
	// b data packets, as the paper uses.
	DelayedAckCount = 2
	// DelayedAckTimeout flushes a pending delayed ACK (seconds).
	DelayedAckTimeout = 0.5
	// MinRTO floors the retransmission timeout (seconds).
	MinRTO = 1.0
)

// Segment is a TCP segment as carried by the MAC; its ranges are SACK
// blocks.
type Segment struct {
	transport.Wire
	Kind Kind
}

// String formats the segment for traces.
func (s *Segment) String() string {
	if s.Kind == Ack {
		return fmt.Sprintf("tcp-ACK %v->%v cum=%d sack=%v", s.Src, s.Dst, s.CumAck, s.Ranges)
	}
	return fmt.Sprintf("tcp-DATA %v->%v seq=%d", s.Src, s.Dst, s.Seq)
}

var _ mac.Segment = (*Segment)(nil)
var _ node.Transport = (*Sender)(nil)
var _ node.Transport = (*Receiver)(nil)

// PadhyeRate returns the TCP throughput equation of [24] in packets/s:
//
//	R = 1 / ( RTT·sqrt(2bp/3) + t_RTO·min(1, 3·sqrt(3bp/8))·p·(1+32p²) )
//
// with b delayed-ACK factor, p loss probability, both RTT and t_RTO in
// seconds. p is floored to keep the expression finite on clean paths.
func PadhyeRate(rtt, rto, p float64, b int) float64 {
	if p < 1e-4 {
		p = 1e-4
	}
	if p > 1 {
		p = 1
	}
	if rtt <= 0 {
		rtt = 0.1
	}
	if rto < rtt {
		rto = rtt
	}
	bf := float64(b)
	denom := rtt*math.Sqrt(2*bf*p/3) +
		rto*math.Min(1, 3*math.Sqrt(3*bf*p/8))*p*(1+32*p*p)
	if denom <= 0 {
		return math.Inf(1)
	}
	return 1 / denom
}

// SenderStats tallies source-side activity.
type SenderStats struct {
	transport.SourceStats
	AcksReceived uint64
	RTOs         uint64
}

type sentInfo struct {
	sentAt  sim.Time
	retx    bool
	sacked  bool
	rtxLast sim.Time
}

// Sender is the TCP-SACK source.
type Sender struct {
	transport.Source
	inflight transport.Ring[sentInfo] // spans [CumAck, NextSeq)

	srtt       float64
	rttvar     float64
	rttOK      bool
	lossEst    stats.EWMA
	rtoBackoff int // consecutive RTOs without cumulative progress

	stats SenderStats
	segs  *pool.FreeList[Segment]
}

// NewSender builds the source side; it draws its DATA segments from segs
// (nil: the heap).
func NewSender(nw *node.Network, cfg transport.Config, segs *pool.FreeList[Segment]) *Sender {
	s := &Sender{segs: segs}
	s.Open(nw, cfg, MinRate, s, &s.stats.SourceStats)
	s.lossEst = *stats.NewEWMA(0.1)
	s.lossEst.Set(0.01)
	return s
}

// Ready lets the source send whenever pacing fires (transport.Sender).
func (s *Sender) Ready() bool { return true }

// Emit sends one DATA segment and re-arms the RTO (transport.Sender). A
// queued retransmission the receiver has SACKed meanwhile is passed
// over.
func (s *Sender) Emit(seq uint32, retx bool) bool {
	if fi := s.inflight.At(seq); retx && fi != nil && fi.sacked {
		return false
	}
	now := s.Eng.Now()
	fi := s.inflight.Extend(seq)
	fi.sentAt = now
	if retx {
		fi.retx = true
		fi.rtxLast = now
		s.noteLoss()
	}
	seg := s.segs.Get()
	seg.Kind = Data
	seg.Src = s.Src
	seg.Dst = s.Dst
	seg.Flow = s.Flow
	seg.Seq = seq
	seg.PayloadLen = PayloadLen
	seg.Retx = retx
	s.Net.SendFrom(s.Src, seg)
	s.armRTO()
	return true
}

// noteLoss/noteDelivery feed the loss-event estimator: the fraction of
// transmissions that end up retransmitted.
func (s *Sender) noteLoss()     { s.lossEst.Add(1) }
func (s *Sender) noteDelivery() { s.lossEst.Add(0) }

// rto returns the current retransmission timeout, with exponential
// backoff after consecutive expirations (RFC 6298 style, capped).
func (s *Sender) rto() float64 {
	base := 3 * MinRTO
	if s.rttOK {
		base = s.srtt + 4*s.rttvar
		if base < MinRTO {
			base = MinRTO
		}
	}
	for i := 0; i < s.rtoBackoff && base < 16; i++ {
		base *= 2
	}
	if base > 16 {
		base = 16
	}
	return base
}

func (s *Sender) armRTO() { s.ArmTimer(sim.DurationOf(s.rto())) }

// Timeout handles an RTO expiry (transport.Sender).
func (s *Sender) Timeout() {
	if s.Done() || s.inflight.Len() == 0 {
		return
	}
	// Timeout: SACK state for the outstanding window is no longer
	// trusted (RFC 2018); queue every unSACKed in-flight segment for
	// retransmission, oldest first, and back the timer off.
	s.stats.RTOs++
	s.noteLoss()
	for seq := s.CumAck; seq < s.NextSeq; seq++ {
		if !s.inflight.At(seq).sacked {
			s.queueRetx(seq)
		}
	}
	s.rtoBackoff++
	s.updateRate()
	s.Resume()
	s.armRTO()
}

func (s *Sender) queueRetx(seq uint32) {
	if seq >= s.CumAck {
		s.Retx.Push(seq)
	}
}

// updateRate applies the Padhye equation with current estimates.
func (s *Sender) updateRate() {
	rtt := s.srtt
	if !s.rttOK {
		rtt = 1.0
	}
	s.SetRate(PadhyeRate(rtt, s.rto(), s.lossEst.Value(), DelayedAckCount))
}

// Deliver processes an ACK (node.Transport) and recycles it: the source
// is an ACK's terminal consumer.
func (s *Sender) Deliver(seg mac.Segment, _ packet.NodeID) {
	ack, ok := seg.(*Segment)
	if !ok || ack.Kind != Ack {
		return
	}
	s.processAck(ack)
	s.segs.Put(ack)
}

func (s *Sender) processAck(ack *Segment) {
	if s.Done() {
		return
	}
	now := s.Eng.Now()
	s.stats.AcksReceived++

	// RTT sampling from newly cum-acked, never-retransmitted segments
	// (Karn's rule).
	if ack.CumAck > s.CumAck {
		for seq := s.CumAck; seq < ack.CumAck; seq++ {
			if fi := s.inflight.At(seq); fi != nil && !fi.retx {
				s.sampleRTT(now.Sub(fi.sentAt).Seconds())
			}
			s.noteDelivery()
		}
		s.inflight.Advance(ack.CumAck)
		s.CumAck = ack.CumAck
		s.rtoBackoff = 0
	}

	// SACK processing: mark blocks, find holes.
	highestSacked := s.CumAck
	for _, b := range ack.Ranges {
		highestSacked = max(highestSacked, b.Last)
		for seq := b.First; ; seq++ {
			if fi := s.inflight.At(seq); fi != nil {
				fi.sacked = true
			}
			if seq == b.Last {
				break
			}
		}
	}
	// Fast retransmit: holes below the highest SACKed block, at most once
	// per RTO interval per segment.
	if highestSacked > s.CumAck {
		for seq := s.CumAck; seq < highestSacked; seq++ {
			fi := s.inflight.At(seq)
			if fi == nil || fi.sacked {
				continue
			}
			if fi.rtxLast != 0 && now.Sub(fi.rtxLast).Seconds() < s.rto() {
				continue
			}
			s.queueRetx(seq)
		}
	}

	if s.Finish() {
		return
	}
	s.updateRate()
	s.Resume()
	if s.inflight.Len() > 0 {
		s.armRTO()
	}
}

func (s *Sender) sampleRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if !s.rttOK {
		s.srtt = sample
		s.rttvar = sample / 2
		s.rttOK = true
		return
	}
	const alpha, beta = 0.125, 0.25
	s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-sample)
	s.srtt = (1-alpha)*s.srtt + alpha*sample
}

// ReceiverStats tallies destination-side activity.
type ReceiverStats struct {
	transport.SinkStats
	AcksSent uint64
}

// Receiver is the TCP-SACK sink with delayed ACKs and SACK generation.
type Receiver struct {
	transport.Sink
	pendingAcks int
	delayRef    sim.EventRef
	stats       ReceiverStats
	segs        *pool.FreeList[Segment]
	delayFn     sim.Handler
}

// NewReceiver builds the sink; it draws its ACK segments from segs (nil:
// the heap).
func NewReceiver(nw *node.Network, cfg transport.Config, segs *pool.FreeList[Segment]) *Receiver {
	r := &Receiver{segs: segs}
	r.Open(nw, cfg, r, &r.stats.SinkStats)
	r.delayFn = func() {
		if r.pendingAcks > 0 {
			r.sendAck()
		}
	}
	return r
}

// Stop unbinds.
func (r *Receiver) Stop() {
	r.delayRef.Stop()
	r.Sink.Stop()
}

// Deliver processes a DATA segment (node.Transport) and recycles it: the
// sink is a DATA segment's terminal consumer.
func (r *Receiver) Deliver(seg mac.Segment, _ packet.NodeID) {
	d, ok := seg.(*Segment)
	if !ok || d.Kind != Data {
		return
	}
	r.processData(d)
	r.segs.Put(d)
}

func (r *Receiver) processData(d *Segment) {
	outOfOrder := r.GotAny && d.Seq != r.Highest+1 && d.Seq != r.Got.Lo()
	if r.Accept(d.Seq, d.PayloadLen) {
		r.Got.Slide()
	} else {
		outOfOrder = true
	}

	if r.Covered() && !r.Done() {
		r.Complete(r.sendAck) // final ACK, immediate
		return
	}

	// Delayed ACK: every DelayedAckCount data packets, on timeout, or
	// immediately for out-of-order arrivals (to trigger fast
	// retransmit).
	r.pendingAcks++
	if outOfOrder || r.pendingAcks >= DelayedAckCount {
		r.sendAck()
		return
	}
	if !r.delayRef.Pending() {
		r.delayRef = r.Eng.Schedule(sim.DurationOf(DelayedAckTimeout), r.delayFn)
	}
}

// sackBlocks appends to rs up to three SACK ranges covering received
// blocks above the cumulative point, most recent first (classic SACK
// option space).
func (r *Receiver) sackBlocks(rs []packet.SeqRange) []packet.SeqRange {
	if !r.GotAny {
		return rs
	}
	for first, last := range r.Got.Runs(r.Got.Lo(), r.Highest+1, true) {
		rs = append(rs, packet.SeqRange{First: first, Last: last})
	}
	slices.Reverse(rs)
	return rs[:min(len(rs), 3)]
}

func (r *Receiver) sendAck() {
	r.delayRef.Stop()
	r.pendingAcks = 0
	ack := r.segs.Get()
	ack.Kind = Ack
	ack.Src = r.Dst
	ack.Dst = r.Src
	ack.Flow = r.Flow
	ack.CumAck = r.Got.Lo()
	ack.Ranges = r.sackBlocks(ack.Ranges)
	r.Net.SendFrom(r.Dst, ack)
	r.stats.AcksSent++
}

// Record adds the sink's counters to a flow record (transport.Endpoint).
func (r *Receiver) Record(fr *metrics.FlowRecord) {
	r.Sink.Record(fr)
	fr.AcksSent = r.stats.AcksSent
}

// Connection bundles both TCP endpoints.
type Connection = transport.Conn[*Sender, *Receiver]

// Dial builds both endpoints over one segment free-list (transport.Dial).
func Dial(nw *node.Network, cfg transport.Config) *Connection {
	return transport.Dial(nw, cfg, NewSender, NewReceiver)
}
