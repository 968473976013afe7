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

// The ATP driver installs the per-node rate stampers; flows are
// end-to-end reliable, so the FlowSpec reliability knobs are ignored.
func init() {
	transport.MustRegister("atp", func() transport.Driver {
		return transport.NewDriver("atp", InstallStampers, func(nw *node.Network, spec transport.FlowSpec) transport.Flow {
			cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
			cfg.TotalPackets = spec.TotalPackets
			if spec.Tune != nil {
				spec.Tune(&cfg)
			}
			return transport.NewFlow("atp", spec, Dial(nw, cfg))
		})
	})
}

// Kind discriminates ATP segment types.
type Kind uint8

const (
	// Data carries payload and collects rate stamps.
	Data Kind = iota + 1
	// Feedback carries the receiver's epoch rate and SACK state.
	Feedback
)

// Sizes: ATP rides a 40-byte transport/IP header like TCP; the rate stamp
// is part of it. Feedback carries 8 bytes per SACK range.
const (
	HeaderSize         = 40
	RangeSize          = 8
	DefaultSegmentSize = 800
	DefaultPayloadLen  = DefaultSegmentSize - HeaderSize
)

// Segment is an ATP segment.
type Segment struct {
	Kind       Kind
	Src, Dst   packet.NodeID
	Flow       packet.FlowID
	Seq        uint32
	PayloadLen int
	// RateStamp is the minimum available rate observed along the path so
	// far (packets/s); intermediate nodes lower it.
	RateStamp float64
	// Feedback fields.
	CumAck   uint32
	Snack    []packet.SeqRange
	FbRate   float64
	Retx     bool
	hopCount int
}

// Size returns the on-air size (mac.Segment).
func (s *Segment) Size() int {
	return HeaderSize + s.PayloadLen + RangeSize*len(s.Snack)
}

// Source returns the originating endpoint (mac.Segment).
func (s *Segment) Source() packet.NodeID { return s.Src }

// Dest returns the destination endpoint (mac.Segment).
func (s *Segment) Dest() packet.NodeID { return s.Dst }

// Label returns a trace tag (mac.Segment).
func (s *Segment) Label() string {
	if s.Kind == Feedback {
		return "atp-FB"
	}
	return "atp-DATA"
}

// FlowID returns the flow (node.FlowKeyed).
func (s *Segment) FlowID() packet.FlowID { return s.Flow }

// AddHop increments the loop-backstop hop counter.
func (s *Segment) AddHop() int {
	s.hopCount++
	return s.hopCount
}

// String formats the segment for traces.
func (s *Segment) String() string {
	if s.Kind == Feedback {
		return fmt.Sprintf("atp-FB %v->%v cum=%d rate=%.2f", s.Src, s.Dst, s.CumAck, s.FbRate)
	}
	return fmt.Sprintf("atp-DATA %v->%v seq=%d stamp=%.2f", s.Src, s.Dst, s.Seq, s.RateStamp)
}

var _ mac.Segment = (*Segment)(nil)

// segPool is a per-connection segment free-list. ATP segments have
// exactly one terminal consumer — DATA at the receiver, feedback at the
// sender; nothing in the network retains them — so each endpoint recycles
// what it is delivered and both ends draw from the shared pool. A nil
// pool (endpoints built without Dial) degrades to heap allocation.
type segPool = pool.FreeList[Segment]

func newSegPool() *segPool {
	return pool.New(func(s *Segment) {
		// Keep the Snack array: sendFeedback appends the next ranges
		// into it.
		*s = Segment{Snack: s.Snack[:0]}
	})
}

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
func (RateStamper) PostRcv(*mac.Frame, mac.LinkInfo) {}

// Config parameterizes an ATP connection.
type Config struct {
	Flow     packet.FlowID
	Src, Dst packet.NodeID
	// TotalPackets is the transfer length; 0 = unbounded.
	TotalPackets int
	// PayloadLen per segment (default 760 → 800-byte segments).
	PayloadLen int
	// FeedbackPeriod is the constant feedback interval in seconds,
	// "larger than RTT" per ATP (default 3 s, above the multi-hop TDMA
	// round-trip times of the evaluated chain lengths).
	FeedbackPeriod float64
	// MinRate/MaxRate clamp the sender rate.
	MinRate, MaxRate float64
	// InitialRate applies before the first feedback.
	InitialRate float64
	// LossFactor derates the fed-back available rate to leave headroom
	// (ATP's epoch averaging has a similar damping role).
	LossFactor float64
}

// Defaults returns the §6.1 ATP-like parameters.
func Defaults(flow packet.FlowID, src, dst packet.NodeID) Config {
	return Config{
		Flow:           flow,
		Src:            src,
		Dst:            dst,
		PayloadLen:     DefaultPayloadLen,
		FeedbackPeriod: 3.0,
		MinRate:        0.1,
		MaxRate:        200,
		InitialRate:    1.0,
		LossFactor:     1.0,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults(c.Flow, c.Src, c.Dst)
	if c.PayloadLen <= 0 {
		c.PayloadLen = d.PayloadLen
	}
	if c.FeedbackPeriod <= 0 {
		c.FeedbackPeriod = d.FeedbackPeriod
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
	if c.LossFactor <= 0 {
		c.LossFactor = d.LossFactor
	}
	return c
}

// SenderStats tallies source-side activity.
type SenderStats struct {
	DataSent        uint64
	Retransmissions uint64
	FeedbackRecv    uint64
	TimeoutBackoffs uint64
	Completed       bool
	CompletedAt     sim.Time
}

// Sender is the ATP source: paces at the fed-back rate, retransmits SNACK
// misses end to end (no in-network help).
type Sender struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	nextSeq uint32
	cumAck  uint32
	rate    float64
	retx    transport.RetxQueue

	paceRef    sim.EventRef
	timeoutRef sim.EventRef
	done       bool
	stats      SenderStats

	segs      *segPool
	paceFn    sim.Handler
	timeoutFn sim.Handler

	// OnComplete fires when a fixed transfer finishes.
	OnComplete func(at sim.Time)
}

// NewSender builds the source.
func NewSender(nw *node.Network, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg:  cfg,
		net:  nw,
		eng:  nw.Engine(),
		rate: cfg.InitialRate,
	}
	s.paceFn = s.pace
	s.timeoutFn = s.onTimeout
	return s
}

// Stats returns a copy of the counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Rate returns the current sending rate.
func (s *Sender) Rate() float64 { return s.rate }

// Done reports completion.
func (s *Sender) Done() bool { return s.done }

// Start binds and begins pacing.
func (s *Sender) Start() {
	s.net.Bind(s.cfg.Src, s.cfg.Flow, s)
	s.schedulePace(0)
	s.armTimeout()
}

// Stop tears down.
func (s *Sender) Stop() {
	s.paceRef.Stop()
	s.timeoutRef.Stop()
	s.net.Unbind(s.cfg.Src, s.cfg.Flow)
}

func (s *Sender) schedulePace(d sim.Duration) {
	s.paceRef.Stop()
	s.paceRef = s.eng.Schedule(d, s.paceFn)
}

func (s *Sender) pace() {
	if s.done {
		return
	}
	seq, retx, ok := s.nextToSend()
	if !ok {
		return
	}
	seg := s.segs.Get()
	seg.Kind = Data
	seg.Src = s.cfg.Src
	seg.Dst = s.cfg.Dst
	seg.Flow = s.cfg.Flow
	seg.Seq = seq
	seg.PayloadLen = s.cfg.PayloadLen
	seg.RateStamp = packet.InitialAvailRate
	seg.Retx = retx
	s.net.SendFrom(s.cfg.Src, seg)
	if retx {
		s.stats.Retransmissions++
	} else {
		s.stats.DataSent++
	}
	r := s.rate
	if r < s.cfg.MinRate {
		r = s.cfg.MinRate
	}
	s.schedulePace(sim.DurationOf(1 / r))
}

func (s *Sender) nextToSend() (uint32, bool, bool) {
	if seq, ok := s.retx.Pop(s.cumAck); ok {
		return seq, true, true
	}
	if s.cfg.TotalPackets > 0 && int(s.nextSeq) >= s.cfg.TotalPackets {
		return 0, false, false
	}
	seq := s.nextSeq
	s.nextSeq++
	return seq, false, true
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
	if s.done {
		return
	}
	s.stats.FeedbackRecv++
	s.armTimeout()

	// Adopt the explicit rate directly (CLAMP-style).
	if fb.FbRate > 0 {
		s.rate = clamp(fb.FbRate*s.cfg.LossFactor, s.cfg.MinRate, s.cfg.MaxRate)
	}
	if fb.CumAck > s.cumAck {
		s.cumAck = fb.CumAck
	}
	if s.cfg.TotalPackets > 0 && int(s.cumAck) >= s.cfg.TotalPackets {
		s.complete()
		return
	}
	// Only sequences actually transmitted (below nextSeq) are
	// retransmissions. A stalled receiver also SNACKs the unseen tail it
	// has never been sent; those stay with the normal first-transmission
	// path so DataSent counts every unique packet exactly once
	// (delivered ≤ sent stays an invariant).
	s.retx.PushRanges(fb.Snack, s.cumAck, s.nextSeq)
	if !s.paceRef.Pending() {
		s.schedulePace(0)
	}
}

func (s *Sender) armTimeout() {
	s.timeoutRef.Stop()
	s.timeoutRef = s.eng.Schedule(sim.DurationOf(2.5*s.cfg.FeedbackPeriod), s.timeoutFn)
}

func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	// Missing feedback: halve the rate (rate-based protocols must defend
	// against lost feedback).
	s.rate = clamp(s.rate*0.5, s.cfg.MinRate, s.cfg.MaxRate)
	s.stats.TimeoutBackoffs++
	s.armTimeout()
}

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

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
	FeedbackSent   uint64
	Completed      bool
	CompletedAt    sim.Time
}

// Receiver is the ATP sink: constant-rate feedback carrying the epoch's
// average rate stamp and full SNACK state (100% reliability, e2e only).
type Receiver struct {
	cfg Config
	net *node.Network
	eng *sim.Engine

	got        transport.Window // received; Lo is the cumulative ACK
	highest    uint32
	gotAny     bool
	lastDataAt sim.Time

	epoch   stats.Running // rate stamps this epoch
	lastFb  float64       // previous epoch average, used when idle
	tick    *sim.Ticker
	done    bool
	stats   ReceiverStats
	recSeri stats.Series
	segs    *segPool

	// OnComplete fires when the transfer is fully received.
	OnComplete func(at sim.Time)
}

// NewReceiver builds the sink.
func NewReceiver(nw *node.Network, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	return &Receiver{cfg: cfg, net: nw, eng: nw.Engine()}
}

// Stats returns a copy of the counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Done reports completion.
func (r *Receiver) Done() bool { return r.done }

// Start binds and begins the constant feedback clock.
func (r *Receiver) Start() {
	r.net.Bind(r.cfg.Dst, r.cfg.Flow, r)
	r.tick = r.eng.NewTicker(sim.DurationOf(r.cfg.FeedbackPeriod), r.onEpoch)
}

// Stop halts feedback and unbinds.
func (r *Receiver) Stop() {
	if r.tick != nil {
		r.tick.Stop()
	}
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
	r.lastDataAt = r.eng.Now()
	if d.RateStamp < packet.InitialAvailRate {
		r.epoch.Add(d.RateStamp)
	}
	if r.got.Has(d.Seq) {
		r.stats.Duplicates++
		return
	}
	r.got.Add(d.Seq)
	r.stats.UniqueReceived++
	r.stats.DeliveredBytes += uint64(d.PayloadLen)
	r.recSeri.Add(r.eng.Now().Seconds(), 1)
	if !r.gotAny || d.Seq > r.highest {
		r.highest = d.Seq
		r.gotAny = true
	}
	cum := r.got.Slide()
	if r.cfg.TotalPackets > 0 && int(cum) >= r.cfg.TotalPackets && !r.done {
		r.done = true
		r.stats.Completed = true
		r.stats.CompletedAt = r.eng.Now()
		r.sendFeedback() // final, immediate
		r.tick.Stop()
		if r.OnComplete != nil {
			r.OnComplete(r.stats.CompletedAt)
		}
	}
}

// onEpoch fires the constant-rate feedback clock.
func (r *Receiver) onEpoch() {
	if r.done {
		return
	}
	r.sendFeedback()
}

// snack appends to rs every miss below the highest received, at most 64
// ranges (full reliability, end-to-end only). When a fixed-size transfer
// stalls, the unseen tail is requested too, since a lost final packet
// creates no gap to report.
func (r *Receiver) snack(rs []packet.SeqRange) []packet.SeqRange {
	if !r.gotAny {
		return rs
	}
	const maxRanges = 64
	for first, last := range r.got.Runs(r.got.Lo(), r.highest, false) {
		if len(rs) == maxRanges {
			return rs
		}
		rs = append(rs, packet.SeqRange{First: first, Last: last})
	}
	if r.cfg.TotalPackets > 0 && !r.done &&
		r.eng.Now().Sub(r.lastDataAt).Seconds() > r.cfg.FeedbackPeriod {
		const tailChunk = 32
		hi := uint32(r.cfg.TotalPackets) - 1
		for q, n := r.highest+1, 0; q <= hi && n < tailChunk; q, n = q+1, n+1 {
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
	fb.Src = r.cfg.Dst
	fb.Dst = r.cfg.Src
	fb.Flow = r.cfg.Flow
	fb.CumAck = r.got.Lo()
	fb.Snack = r.snack(fb.Snack)
	fb.FbRate = rate
	if r.done {
		fb.CumAck = uint32(r.cfg.TotalPackets)
	}
	r.net.SendFrom(r.cfg.Dst, fb)
	r.stats.FeedbackSent++
}

// Record adds the sink's counters to a flow record (transport.Endpoint).
func (r *Receiver) Record(fr *metrics.FlowRecord) {
	fr.AcksSent = r.stats.FeedbackSent
	fr.UniqueDelivered = r.stats.UniqueReceived
	fr.DeliveredBytes = r.stats.DeliveredBytes
	fr.Duplicates = r.stats.Duplicates
	fr.Completed = r.stats.Completed
	fr.Reception = &r.recSeri
	if r.stats.Completed {
		fr.CompletedAt = r.stats.CompletedAt.Seconds()
	}
}

// Connection bundles both ATP endpoints.
type Connection = transport.Conn[*Sender, *Receiver]

// Dial builds both endpoints, sharing one segment free-list between them
// (the receiver recycles the sender's DATA, the sender the receiver's
// feedback).
func Dial(nw *node.Network, cfg Config) *Connection {
	c := &Connection{Sender: NewSender(nw, cfg), Receiver: NewReceiver(nw, cfg)}
	pool := newSegPool()
	c.Sender.segs = pool
	c.Receiver.segs = pool
	return c
}

// InstallStampers installs the ATP rate-stamping plugin on every node of
// the network (the experiments call this once per ATP run).
func InstallStampers(nw *node.Network) {
	for _, nd := range nw.Nodes() {
		nd.MAC.AddPlugin(RateStamper{})
	}
}
