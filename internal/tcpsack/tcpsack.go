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

// TCP is purely end-to-end: its driver installs no in-network machinery,
// and the reliability knobs of a FlowSpec are ignored (the baseline is
// always fully reliable).
func init() {
	transport.MustRegister("tcp", func() transport.Driver {
		return transport.NewDriver("tcp", nil, func(nw *node.Network, spec transport.FlowSpec) transport.Flow {
			cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
			cfg.TotalPackets = spec.TotalPackets
			if spec.Tune != nil {
				spec.Tune(&cfg)
			}
			return transport.NewFlow("tcp", spec, Dial(nw, cfg))
		})
	})
}

// Kind discriminates TCP segment types.
type Kind uint8

const (
	// Data carries payload.
	Data Kind = iota + 1
	// Ack carries cumulative + selective acknowledgment.
	Ack
)

// Header sizes: a TCP/IP header is 40 bytes; each SACK block costs 8.
const (
	HeaderSize    = 40
	SackBlockSize = 8
	// DefaultSegmentSize keeps parity with JTP's 800-byte packets.
	DefaultSegmentSize = 800
	// DefaultPayloadLen is the payload that makes an 800-byte segment.
	DefaultPayloadLen = DefaultSegmentSize - HeaderSize
)

// Segment is a TCP segment as carried by the MAC.
type Segment struct {
	Kind       Kind
	Src, Dst   packet.NodeID
	Flow       packet.FlowID
	Seq        uint32
	CumAck     uint32
	Sack       []packet.SeqRange
	PayloadLen int
	Retx       bool
	hops       int
}

// Size returns the on-air size (mac.Segment).
func (s *Segment) Size() int {
	return HeaderSize + s.PayloadLen + SackBlockSize*len(s.Sack)
}

// Source returns the originating endpoint (mac.Segment).
func (s *Segment) Source() packet.NodeID { return s.Src }

// Dest returns the destination endpoint (mac.Segment).
func (s *Segment) Dest() packet.NodeID { return s.Dst }

// Label returns a trace tag (mac.Segment).
func (s *Segment) Label() string {
	if s.Kind == Ack {
		return "tcp-ACK"
	}
	return "tcp-DATA"
}

// FlowID returns the flow (node.FlowKeyed).
func (s *Segment) FlowID() packet.FlowID { return s.Flow }

// AddHop increments the loop-backstop hop counter.
func (s *Segment) AddHop() int {
	s.hops++
	return s.hops
}

// String formats the segment for traces.
func (s *Segment) String() string {
	if s.Kind == Ack {
		return fmt.Sprintf("tcp-ACK %v->%v cum=%d sack=%v", s.Src, s.Dst, s.CumAck, s.Sack)
	}
	return fmt.Sprintf("tcp-DATA %v->%v seq=%d", s.Src, s.Dst, s.Seq)
}

var _ mac.Segment = (*Segment)(nil)
var _ node.Transport = (*Sender)(nil)
var _ node.Transport = (*Receiver)(nil)

// segPool is a per-connection segment free-list. TCP segments have one
// terminal consumer each — DATA at the receiver, ACKs at the sender;
// nothing in the network retains them — so each endpoint recycles what it
// is delivered and both ends draw from the shared pool. A nil pool
// (endpoints built without Dial) degrades to heap allocation.
type segPool = pool.FreeList[Segment]

func newSegPool() *segPool {
	return pool.New(func(s *Segment) {
		// Keep the Sack array: sendAck appends the next blocks into it.
		*s = Segment{Sack: s.Sack[:0]}
	})
}

// Config parameterizes a TCP-SACK connection.
type Config struct {
	Flow     packet.FlowID
	Src, Dst packet.NodeID
	// TotalPackets is the transfer length; 0 = unbounded.
	TotalPackets int
	// PayloadLen per segment (default 760 → 800-byte segments).
	PayloadLen int
	// MinRate/MaxRate clamp the equation-based rate (packets/s).
	MinRate, MaxRate float64
	// InitialRate applies before the first RTT/loss estimates exist.
	InitialRate float64
	// DelayedAckCount is the b of the throughput equation (1 ACK per b
	// data packets; paper uses 2).
	DelayedAckCount int
	// DelayedAckTimeout flushes a pending delayed ACK (seconds).
	DelayedAckTimeout float64
	// MinRTO floors the retransmission timeout (seconds).
	MinRTO float64
}

// Defaults returns the §6.1 baseline parameters.
func Defaults(flow packet.FlowID, src, dst packet.NodeID) Config {
	return Config{
		Flow:              flow,
		Src:               src,
		Dst:               dst,
		PayloadLen:        DefaultPayloadLen,
		MinRate:           0.02,
		MaxRate:           200,
		InitialRate:       1.0,
		DelayedAckCount:   2,
		DelayedAckTimeout: 0.5,
		MinRTO:            1.0,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults(c.Flow, c.Src, c.Dst)
	if c.PayloadLen <= 0 {
		c.PayloadLen = d.PayloadLen
	}
	if c.MinRate <= 0 {
		c.MinRate = d.MinRate
	}
	if c.MaxRate <= 0 {
		c.MaxRate = d.MaxRate
	}
	if c.InitialRate <= 0 {
		c.InitialRate = d.InitialRate
	}
	if c.DelayedAckCount <= 0 {
		c.DelayedAckCount = d.DelayedAckCount
	}
	if c.DelayedAckTimeout <= 0 {
		c.DelayedAckTimeout = d.DelayedAckTimeout
	}
	if c.MinRTO <= 0 {
		c.MinRTO = d.MinRTO
	}
	return c
}

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
	DataSent        uint64
	Retransmissions uint64
	AcksReceived    uint64
	RTOs            uint64
	Completed       bool
	CompletedAt     sim.Time
}

type sentInfo struct {
	sentAt  sim.Time
	retx    bool
	sacked  bool
	rtxLast sim.Time
}

// Sender is the TCP-SACK source.
type Sender struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	nextSeq  uint32
	cumAck   uint32
	inflight transport.Ring[sentInfo] // spans [cumAck, nextSeq)
	retx     transport.RetxQueue

	srtt       float64
	rttvar     float64
	rttOK      bool
	lossEst    stats.EWMA
	rate       float64
	rtoBackoff int // consecutive RTOs without cumulative progress

	paceRef sim.EventRef
	rtoRef  sim.EventRef
	done    bool
	stats   SenderStats

	segs   *segPool
	paceFn sim.Handler
	rtoFn  sim.Handler

	// OnComplete fires when a fixed transfer finishes.
	OnComplete func(at sim.Time)
}

// NewSender builds the source side.
func NewSender(nw *node.Network, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg:  cfg,
		net:  nw,
		eng:  nw.Engine(),
		rate: cfg.InitialRate,
	}
	s.lossEst = *stats.NewEWMA(0.1)
	s.lossEst.Set(0.01)
	s.paceFn = s.pace
	s.rtoFn = s.onRTO
	return s
}

// Stats returns a copy of the counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Rate returns the current equation-based rate.
func (s *Sender) Rate() float64 { return s.rate }

// Done reports completion of a fixed transfer.
func (s *Sender) Done() bool { return s.done }

// Start binds and begins pacing.
func (s *Sender) Start() {
	s.net.Bind(s.cfg.Src, s.cfg.Flow, s)
	s.schedulePace(0)
}

// Stop tears the sender down.
func (s *Sender) Stop() {
	s.paceRef.Stop()
	s.rtoRef.Stop()
	s.net.Unbind(s.cfg.Src, s.cfg.Flow)
}

func (s *Sender) schedulePace(d sim.Duration) {
	s.paceRef.Stop()
	s.paceRef = s.eng.Schedule(d, s.paceFn)
}

func (s *Sender) interPacket() sim.Duration {
	r := s.rate
	if r < s.cfg.MinRate {
		r = s.cfg.MinRate
	}
	return sim.DurationOf(1 / r)
}

func (s *Sender) pace() {
	if s.done {
		return
	}
	seq, retx, ok := s.nextToSend()
	if !ok {
		return // all data out; RTO timer drives recovery
	}
	s.sendData(seq, retx)
	s.schedulePace(s.interPacket())
}

func (s *Sender) nextToSend() (uint32, bool, bool) {
	for seq, ok := s.retx.Pop(s.cumAck); ok; seq, ok = s.retx.Pop(s.cumAck) {
		if fi := s.inflight.At(seq); fi == nil || !fi.sacked {
			return seq, true, true
		}
	}
	if s.cfg.TotalPackets > 0 && int(s.nextSeq) >= s.cfg.TotalPackets {
		return 0, false, false
	}
	seq := s.nextSeq
	s.nextSeq++
	return seq, false, true
}

func (s *Sender) sendData(seq uint32, retx bool) {
	now := s.eng.Now()
	fi := s.inflight.Extend(seq)
	fi.sentAt = now
	if retx {
		fi.retx = true
		fi.rtxLast = now
		s.stats.Retransmissions++
		s.noteLoss()
	} else {
		s.stats.DataSent++
	}
	seg := s.segs.Get()
	seg.Kind = Data
	seg.Src = s.cfg.Src
	seg.Dst = s.cfg.Dst
	seg.Flow = s.cfg.Flow
	seg.Seq = seq
	seg.PayloadLen = s.cfg.PayloadLen
	seg.Retx = retx
	s.net.SendFrom(s.cfg.Src, seg)
	s.armRTO()
}

// noteLoss/noteDelivery feed the loss-event estimator: the fraction of
// transmissions that end up retransmitted.
func (s *Sender) noteLoss()     { s.lossEst.Add(1) }
func (s *Sender) noteDelivery() { s.lossEst.Add(0) }

// rto returns the current retransmission timeout, with exponential
// backoff after consecutive expirations (RFC 6298 style, capped).
func (s *Sender) rto() float64 {
	base := 3 * s.cfg.MinRTO
	if s.rttOK {
		base = s.srtt + 4*s.rttvar
		if base < s.cfg.MinRTO {
			base = s.cfg.MinRTO
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

func (s *Sender) armRTO() {
	s.rtoRef.Stop()
	s.rtoRef = s.eng.Schedule(sim.DurationOf(s.rto()), s.rtoFn)
}

func (s *Sender) onRTO() {
	if s.done || s.inflight.Len() == 0 {
		return
	}
	// Timeout: SACK state for the outstanding window is no longer
	// trusted (RFC 2018); queue every unSACKed in-flight segment for
	// retransmission, oldest first, and back the timer off.
	s.stats.RTOs++
	s.noteLoss()
	for seq := s.cumAck; seq < s.nextSeq; seq++ {
		if !s.inflight.At(seq).sacked {
			s.queueRetx(seq)
		}
	}
	s.rtoBackoff++
	s.updateRate()
	if !s.paceRef.Pending() {
		s.schedulePace(0)
	}
	s.armRTO()
}

func (s *Sender) queueRetx(seq uint32) {
	if seq >= s.cumAck {
		s.retx.Push(seq)
	}
}

// updateRate applies the Padhye equation with current estimates.
func (s *Sender) updateRate() {
	rtt := s.srtt
	if !s.rttOK {
		rtt = 1.0
	}
	r := PadhyeRate(rtt, s.rto(), s.lossEst.Value(), s.cfg.DelayedAckCount)
	if math.IsInf(r, 1) || r > s.cfg.MaxRate {
		r = s.cfg.MaxRate
	}
	if r < s.cfg.MinRate {
		r = s.cfg.MinRate
	}
	s.rate = r
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
	if s.done {
		return
	}
	now := s.eng.Now()
	s.stats.AcksReceived++

	// RTT sampling from newly cum-acked, never-retransmitted segments
	// (Karn's rule).
	if ack.CumAck > s.cumAck {
		for seq := s.cumAck; seq < ack.CumAck; seq++ {
			if fi := s.inflight.At(seq); fi != nil && !fi.retx {
				s.sampleRTT(now.Sub(fi.sentAt).Seconds())
			}
			s.noteDelivery()
		}
		s.inflight.Advance(ack.CumAck)
		s.cumAck = ack.CumAck
		s.rtoBackoff = 0
	}

	// SACK processing: mark blocks, find holes.
	highestSacked := s.cumAck
	for _, b := range ack.Sack {
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
	if highestSacked > s.cumAck {
		for seq := s.cumAck; seq < highestSacked; seq++ {
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

	if s.cfg.TotalPackets > 0 && int(s.cumAck) >= s.cfg.TotalPackets {
		s.complete()
		return
	}
	s.updateRate()
	if !s.paceRef.Pending() {
		s.schedulePace(0)
	}
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

func (s *Sender) complete() {
	s.done = true
	s.stats.Completed = true
	s.stats.CompletedAt = s.eng.Now()
	s.paceRef.Stop()
	s.rtoRef.Stop()
	if s.OnComplete != nil {
		s.OnComplete(s.stats.CompletedAt)
	}
}

// Record adds the source's counters to a flow record (transport.Endpoint).
func (s *Sender) Record(fr *metrics.FlowRecord) {
	fr.DataSent = s.stats.DataSent
	fr.SourceRetransmissions = s.stats.Retransmissions
}

// ReceiverStats tallies destination-side activity.
type ReceiverStats struct {
	DataReceived   uint64
	UniqueReceived uint64
	Duplicates     uint64
	DeliveredBytes uint64
	AcksSent       uint64
	Completed      bool
	CompletedAt    sim.Time
}

// Receiver is the TCP-SACK sink with delayed ACKs and SACK generation.
type Receiver struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	got     transport.Window // received; Lo is the cumulative ACK
	highest uint32
	gotAny  bool

	pendingAcks int
	delayRef    sim.EventRef
	done        bool
	stats       ReceiverStats
	reception   stats.Series

	segs    *segPool
	delayFn sim.Handler

	// OnComplete fires when the fixed transfer is fully received.
	OnComplete func(at sim.Time)
}

// NewReceiver builds the sink.
func NewReceiver(nw *node.Network, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	r := &Receiver{cfg: cfg, net: nw, eng: nw.Engine()}
	r.delayFn = func() {
		if r.pendingAcks > 0 {
			r.sendAck()
		}
	}
	return r
}

// Stats returns a copy of the counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Done reports completion.
func (r *Receiver) Done() bool { return r.done }

// Start binds the receiver.
func (r *Receiver) Start() { r.net.Bind(r.cfg.Dst, r.cfg.Flow, r) }

// Stop unbinds.
func (r *Receiver) Stop() {
	r.delayRef.Stop()
	r.net.Unbind(r.cfg.Dst, r.cfg.Flow)
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
	r.stats.DataReceived++
	outOfOrder := r.gotAny && d.Seq != r.highest+1 && d.Seq != r.got.Lo()
	if r.got.Has(d.Seq) {
		r.stats.Duplicates++
		outOfOrder = true
	} else {
		r.got.Add(d.Seq)
		r.stats.UniqueReceived++
		r.stats.DeliveredBytes += uint64(d.PayloadLen)
		r.reception.Add(r.eng.Now().Seconds(), 1)
		if !r.gotAny || d.Seq > r.highest {
			r.highest = d.Seq
			r.gotAny = true
		}
		r.got.Slide()
	}

	if r.cfg.TotalPackets > 0 && int(r.got.Lo()) >= r.cfg.TotalPackets && !r.done {
		r.done = true
		r.stats.Completed = true
		r.stats.CompletedAt = r.eng.Now()
		r.sendAck() // final ACK, immediate
		if r.OnComplete != nil {
			r.OnComplete(r.stats.CompletedAt)
		}
		return
	}

	// Delayed ACK: every DelayedAckCount data packets, on timeout, or
	// immediately for out-of-order arrivals (to trigger fast
	// retransmit).
	r.pendingAcks++
	if outOfOrder || r.pendingAcks >= r.cfg.DelayedAckCount {
		r.sendAck()
		return
	}
	if !r.delayRef.Pending() {
		r.delayRef = r.eng.Schedule(sim.DurationOf(r.cfg.DelayedAckTimeout), r.delayFn)
	}
}

// sackBlocks appends to rs up to three SACK ranges covering received
// blocks above the cumulative point, most recent first (classic SACK
// option space).
func (r *Receiver) sackBlocks(rs []packet.SeqRange) []packet.SeqRange {
	if !r.gotAny {
		return rs
	}
	for first, last := range r.got.Runs(r.got.Lo(), r.highest+1, true) {
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
	ack.Src = r.cfg.Dst
	ack.Dst = r.cfg.Src
	ack.Flow = r.cfg.Flow
	ack.CumAck = r.got.Lo()
	ack.Sack = r.sackBlocks(ack.Sack)
	r.net.SendFrom(r.cfg.Dst, ack)
	r.stats.AcksSent++
}

// Record adds the sink's counters to a flow record (transport.Endpoint).
func (r *Receiver) Record(fr *metrics.FlowRecord) {
	fr.AcksSent = r.stats.AcksSent
	fr.UniqueDelivered = r.stats.UniqueReceived
	fr.DeliveredBytes = r.stats.DeliveredBytes
	fr.Duplicates = r.stats.Duplicates
	fr.Completed = r.stats.Completed
	fr.Reception = &r.reception
	if r.stats.Completed {
		fr.CompletedAt = r.stats.CompletedAt.Seconds()
	}
}

// Connection bundles both TCP endpoints.
type Connection = transport.Conn[*Sender, *Receiver]

// Dial builds both endpoints, sharing one segment free-list between them
// (the receiver recycles the sender's DATA, the sender the receiver's
// ACKs).
func Dial(nw *node.Network, cfg Config) *Connection {
	c := &Connection{Sender: NewSender(nw, cfg), Receiver: NewReceiver(nw, cfg)}
	pool := newSegPool()
	c.Sender.segs = pool
	c.Receiver.segs = pool
	return c
}
