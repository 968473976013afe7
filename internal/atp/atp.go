// Package atp implements the ATP-like baseline of paper §6.1: an explicit
// rate-based transport "which adjusts the sending rate based on explicit
// feedback collected by intermediate nodes, supports only end-to-end
// recovery, and has constant-rate feedback from the receiver. The
// feedback period is set to be larger than RTT as suggested for ATP."
//
// Intermediate nodes stamp the minimum available rate into traversing
// DATA segments via the RateStamper MAC plugin (the ATP analogue of
// iJTP's stamping — but with none of iJTP's caching, attempt control, or
// energy accounting). The receiver averages the stamps over each epoch
// and feeds the value straight back at a constant rate; the sender adopts
// it directly, which reacts slower than JTP's monitor-triggered feedback
// and wastes energy on the fixed ACK clock — the behaviour Figs 9–11
// contrast against.
package atp

import (
	"fmt"

	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/pool"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
	"github.com/javelen/jtp/internal/transport"
)

func init() { transport.RegisterBaseline("atp", InstallStampers, Dial) }

// Kind discriminates ATP segment types.
type Kind uint8

const (
	// Data carries payload and collects rate stamps.
	Data Kind = iota + 1
	// Feedback carries the receiver's epoch rate and SNACK ranges.
	Feedback
)

// The §6.1 ATP-like parameters.
const (
	// PayloadLen makes 800-byte DATA segments, JTP's packet size, on
	// ATP's 40-byte transport/IP header.
	PayloadLen = 800 - transport.HeaderSize
	// FeedbackPeriod is the constant feedback interval in seconds,
	// "larger than RTT" per ATP: above the multi-hop TDMA round-trip
	// times of the evaluated chain lengths.
	FeedbackPeriod = 3.0
	// MinRate floors the sender rate in packets/s.
	MinRate = 0.1
	// LossFactor derates the fed-back available rate to leave headroom
	// (ATP's epoch averaging has a similar damping role); 1 adopts it
	// as is.
	LossFactor = 1.0
)

// Segment is an ATP segment. Its rate stamp rides the transport/IP
// header.
type Segment struct {
	transport.Wire
	Kind Kind
	// RateStamp is the minimum available rate observed along the path so
	// far (packets/s); intermediate nodes lower it.
	RateStamp float64
	// FbRate is the epoch's average rate stamp, fed back.
	FbRate float64
}

// String formats the segment for traces.
func (s *Segment) String() string {
	if s.Kind == Feedback {
		return fmt.Sprintf("atp-FB %v->%v cum=%d rate=%.2f", s.Src, s.Dst, s.CumAck, s.FbRate)
	}
	return fmt.Sprintf("atp-DATA %v->%v seq=%d stamp=%.2f", s.Src, s.Dst, s.Seq, s.RateStamp)
}

var _ mac.Segment = (*Segment)(nil)

// RateStamper is the MAC plugin intermediate nodes run for ATP: it stamps
// the minimum effective available rate into traversing DATA segments.
type RateStamper struct{}

// PreXmit stamps the rate (mac.Plugin).
func (RateStamper) PreXmit(fr *mac.Frame, link mac.LinkInfo) mac.Verdict {
	if seg, ok := fr.Seg.(*Segment); ok && seg.Kind == Data {
		if link.AvailRate < seg.RateStamp {
			seg.RateStamp = link.AvailRate
		}
	}
	return mac.Continue
}

// PostRcv is a no-op (mac.Plugin).
func (RateStamper) PostRcv(*mac.Frame) {}

// SenderStats tallies source-side activity.
type SenderStats struct {
	transport.SourceStats
	FeedbackRecv    uint64
	TimeoutBackoffs uint64
}

// Sender is the ATP source: paces at the fed-back rate, retransmits SNACK
// misses end to end (no in-network help).
type Sender struct {
	transport.Source
	stats SenderStats
	segs  *pool.FreeList[Segment]
}

// NewSender builds the source; it draws its DATA segments from segs (nil:
// the heap).
func NewSender(nw *node.Network, cfg transport.Config, segs *pool.FreeList[Segment]) *Sender {
	s := &Sender{segs: segs}
	s.Open(nw, cfg, MinRate, s, &s.stats.SourceStats)
	return s
}

// Start binds and begins pacing.
func (s *Sender) Start() {
	s.Source.Start()
	s.armTimeout()
}

// Ready lets the source send whenever pacing fires (transport.Sender).
func (s *Sender) Ready() bool { return true }

// Emit sends one DATA segment (transport.Sender).
func (s *Sender) Emit(seq uint32, retx bool) bool {
	seg := s.segs.Get()
	seg.Kind = Data
	seg.Src = s.Src
	seg.Dst = s.Dst
	seg.Flow = s.Flow
	seg.Seq = seq
	seg.PayloadLen = PayloadLen
	seg.RateStamp = packet.InitialAvailRate
	seg.Retx = retx
	s.Net.SendFrom(s.Src, seg)
	return true
}

// Deliver processes feedback (node.Transport) and recycles the segment:
// the source is a feedback segment's terminal consumer.
func (s *Sender) Deliver(seg mac.Segment, _ packet.NodeID) {
	fb, ok := seg.(*Segment)
	if !ok || fb.Kind != Feedback {
		return
	}
	s.processFeedback(fb)
	s.segs.Put(fb)
}

func (s *Sender) processFeedback(fb *Segment) {
	if s.Done() {
		return
	}
	s.stats.FeedbackRecv++
	s.armTimeout()

	// Adopt the explicit rate directly (CLAMP-style).
	if fb.FbRate > 0 {
		s.SetRate(fb.FbRate * LossFactor)
	}
	s.CumAck = max(s.CumAck, fb.CumAck)
	if s.Finish() {
		return
	}
	// Only sequences actually transmitted (below NextSeq) are
	// retransmissions. A stalled receiver also SNACKs the unseen tail it
	// has never been sent; those stay with the normal first-transmission
	// path so DataSent counts every unique packet exactly once
	// (delivered ≤ sent stays an invariant).
	s.Retx.PushRanges(fb.Ranges, s.CumAck, s.NextSeq)
	s.Resume()
}

func (s *Sender) armTimeout() { s.ArmTimer(sim.DurationOf(2.5 * FeedbackPeriod)) }

// Timeout halves the rate on missing feedback (transport.Sender):
// rate-based protocols must defend against lost feedback.
func (s *Sender) Timeout() {
	if s.Done() {
		return
	}
	s.SetRate(s.Rate() * 0.5)
	s.stats.TimeoutBackoffs++
	s.armTimeout()
}

// ReceiverStats tallies destination-side activity.
type ReceiverStats struct {
	transport.SinkStats
	FeedbackSent uint64
}

// Receiver is the ATP sink: constant-rate feedback carrying the epoch's
// average rate stamp and full SNACK state (100% reliability, e2e only).
type Receiver struct {
	transport.Sink
	epoch  stats.Running // rate stamps this epoch
	lastFb float64       // previous epoch average, used when idle
	tick   *sim.Ticker
	stats  ReceiverStats
	segs   *pool.FreeList[Segment]
}

// NewReceiver builds the sink; it draws its feedback segments from segs
// (nil: the heap).
func NewReceiver(nw *node.Network, cfg transport.Config, segs *pool.FreeList[Segment]) *Receiver {
	r := &Receiver{segs: segs}
	r.Open(nw, cfg, r, &r.stats.SinkStats)
	return r
}

// Start binds and begins the constant feedback clock.
func (r *Receiver) Start() {
	r.Sink.Start()
	r.tick = r.Eng.NewTicker(sim.DurationOf(FeedbackPeriod), r.onEpoch)
}

// Stop halts feedback and unbinds.
func (r *Receiver) Stop() {
	if r.tick != nil {
		r.tick.Stop()
	}
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
	if d.RateStamp < packet.InitialAvailRate {
		r.epoch.Add(d.RateStamp)
	}
	if !r.Accept(d.Seq, d.PayloadLen) {
		return
	}
	r.Got.Slide()
	if r.Covered() && !r.Done() {
		r.Complete(func() {
			r.sendFeedback() // final, immediate
			r.tick.Stop()
		})
	}
}

// onEpoch fires the constant-rate feedback clock.
func (r *Receiver) onEpoch() {
	if r.Done() {
		return
	}
	r.sendFeedback()
}

// snack appends to rs every miss below the highest received, at most 64
// ranges (full reliability, end-to-end only). When a fixed-size transfer
// stalls, the unseen tail is requested too, since a lost final packet
// creates no gap to report.
func (r *Receiver) snack(rs []packet.SeqRange) []packet.SeqRange {
	if !r.GotAny {
		return rs
	}
	const maxRanges = 64
	for first, last := range r.Got.Runs(r.Got.Lo(), r.Highest, false) {
		if len(rs) == maxRanges {
			return rs
		}
		rs = append(rs, packet.SeqRange{First: first, Last: last})
	}
	if r.TotalPackets > 0 && !r.Done() &&
		r.Eng.Now().Sub(r.LastDataAt).Seconds() > FeedbackPeriod {
		const tailChunk = 32
		hi := uint32(r.TotalPackets) - 1
		for q, n := r.Highest+1, 0; q <= hi && n < tailChunk; q, n = q+1, n+1 {
			rs = transport.AppendSeq(rs, q, maxRanges)
		}
	}
	return rs
}

func (r *Receiver) sendFeedback() {
	rate := r.lastFb
	if r.epoch.N() > 0 {
		rate = r.epoch.Mean()
		r.lastFb = rate
		r.epoch = stats.Running{}
	}
	fb := r.segs.Get()
	fb.Kind = Feedback
	fb.Src = r.Dst
	fb.Dst = r.Src
	fb.Flow = r.Flow
	fb.CumAck = r.Got.Lo()
	fb.Ranges = r.snack(fb.Ranges)
	fb.FbRate = rate
	if r.Done() {
		fb.CumAck = uint32(r.TotalPackets)
	}
	r.Net.SendFrom(r.Dst, fb)
	r.stats.FeedbackSent++
}

// Record adds the sink's counters to a flow record (transport.Endpoint).
func (r *Receiver) Record(fr *metrics.FlowRecord) {
	r.Sink.Record(fr)
	fr.AcksSent = r.stats.FeedbackSent
}

// Connection bundles both ATP endpoints.
type Connection = transport.Conn[*Sender, *Receiver]

// Dial builds both endpoints over one segment free-list (transport.Dial).
func Dial(nw *node.Network, cfg transport.Config) *Connection {
	return transport.Dial(nw, cfg, NewSender, NewReceiver)
}

// InstallStampers installs the ATP rate-stamping plugin on every node of
// the network (the experiments call this once per ATP run).
func InstallStampers(nw *node.Network) {
	for _, nd := range nw.Nodes() {
		nd.MAC.AddPlugin(RateStamper{})
	}
}
