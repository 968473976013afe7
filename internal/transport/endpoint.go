package transport

import (
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
)

// Config is what both ends of every connection are built from.
type Config struct {
	// Flow identifies the connection; both endpoints bind it.
	Flow packet.FlowID
	// Src and Dst are the connection's endpoints.
	Src, Dst packet.NodeID
	// TotalPackets is the transfer length in packets; 0 means an
	// unbounded stream.
	TotalPackets int
	// InitialRate is the sending rate in packets/s before the first
	// feedback arrives.
	InitialRate float64
	// MaxRate is the sending rate's ceiling in packets/s.
	MaxRate float64
}

// Defaults returns the §6.1 configuration every protocol starts from:
// an unbounded stream at 1 packet/s, capped at 200 packets/s.
func Defaults(flow packet.FlowID, src, dst packet.NodeID) Config {
	return Config{Flow: flow, Src: src, Dst: dst, InitialRate: 1.0, MaxRate: 200}
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sender is a protocol's part in a Source: it receives the feedback
// addressed to the source, puts each packet on the air, and handles the
// source's feedback-loss timer.
type Sender interface {
	node.Transport
	// Ready reports whether the source may send now. A sender that says
	// no re-arms pacing itself (Source.PaceAt).
	Ready() bool
	// Emit sends seq, as an end-to-end retransmission when retx. It
	// returns false, sending nothing, to pass over a queued
	// retransmission that is no longer needed.
	Emit(seq uint32, retx bool) bool
	// Timeout runs when the timer armed by Source.ArmTimer expires.
	Timeout()
}

// SourceStats are the counters every source keeps.
type SourceStats struct {
	// DataSent counts first transmissions of new packets.
	DataSent uint64
	// Retransmissions counts end-to-end retransmissions.
	Retransmissions uint64
	// Completed reports whether a fixed-size transfer finished, at
	// CompletedAt.
	Completed   bool
	CompletedAt sim.Time
}

// Source is the sending end every protocol shares: it paces packets at
// its rate, retransmissions ahead of new data, and finishes a fixed-size
// transfer once the cumulative ACK covers it. A protocol's sender embeds
// it and supplies the Sender part; the source owns two timers, the
// pacing one and the sender's feedback-loss one, and stops both on
// completion and on Stop.
type Source struct {
	Config
	// MinRate floors the pacing rate in packets/s.
	MinRate float64
	Net     *node.Network
	Eng     *sim.Engine

	// NextSeq is the next new sequence number; CumAck the cumulative
	// ACK; Retx the end-to-end retransmissions waiting to go out.
	NextSeq uint32
	CumAck  uint32
	Retx    RetxQueue

	rate     float64
	done     bool
	stats    *SourceStats
	proto    Sender
	paceRef  sim.EventRef
	timerRef sim.EventRef
	// paceFn and timerFn are bound once, so re-arming a timer does not
	// allocate a closure per packet.
	paceFn, timerFn sim.Handler
}

// Open readies the source to send for proto at cfg's initial rate,
// counting into st (which proto's own statistics embed).
func (s *Source) Open(nw *node.Network, cfg Config, minRate float64, proto Sender, st *SourceStats) {
	s.Config, s.MinRate = cfg, minRate
	s.Net, s.Eng = nw, nw.Engine()
	s.rate = cfg.InitialRate
	s.proto, s.stats = proto, st
	s.paceFn, s.timerFn = s.pace, proto.Timeout
}

// Start binds the protocol's sender at the source node and paces the
// first packet now.
func (s *Source) Start() {
	s.Net.Bind(s.Src, s.Flow, s.proto)
	s.SchedulePace(0)
}

// Stop halts pacing and the timer and unbinds.
func (s *Source) Stop() {
	s.paceRef.Stop()
	s.timerRef.Stop()
	s.Net.Unbind(s.Src, s.Flow)
}

// Done reports whether a fixed-size transfer completed.
func (s *Source) Done() bool { return s.done }

// Rate returns the sending rate in packets/s.
func (s *Source) Rate() float64 { return s.rate }

// SetRate sets the sending rate, clamped to [MinRate, MaxRate].
func (s *Source) SetRate(r float64) { s.rate = Clamp(r, s.MinRate, s.MaxRate) }

// SchedulePace arms the next pacing event d from now, replacing any
// pending one.
func (s *Source) SchedulePace(d sim.Duration) {
	s.paceRef.Stop()
	s.paceRef = s.Eng.Schedule(d, s.paceFn)
}

// PaceAt arms the next pacing event at t, replacing any pending one.
func (s *Source) PaceAt(t sim.Time) {
	s.paceRef.Stop()
	s.paceRef = s.Eng.ScheduleAt(t, s.paceFn)
}

// Resume paces now unless pacing is already armed: feedback may queue
// retransmissions while everything else is out.
func (s *Source) Resume() {
	if !s.paceRef.Pending() {
		s.SchedulePace(0)
	}
}

// ArmTimer (re)arms the sender's feedback-loss timer d from now.
func (s *Source) ArmTimer(d sim.Duration) {
	s.timerRef.Stop()
	s.timerRef = s.Eng.Schedule(d, s.timerFn)
}

// pace sends the next packet and re-arms. With nothing left to send it
// stays idle until feedback or the timer resumes it.
func (s *Source) pace() {
	if s.done || !s.proto.Ready() {
		return
	}
	for {
		seq, retx, ok := s.nextToSend()
		if !ok {
			return
		}
		if !s.proto.Emit(seq, retx) {
			continue
		}
		if retx {
			s.stats.Retransmissions++
		} else {
			s.stats.DataSent++
		}
		r := s.rate
		if r < s.MinRate {
			r = s.MinRate
		}
		s.SchedulePace(sim.DurationOf(1 / r))
		return
	}
}

// nextToSend picks the next sequence number: pending retransmissions
// take priority over new data.
func (s *Source) nextToSend() (seq uint32, retx, ok bool) {
	if seq, ok = s.Retx.Pop(s.CumAck); ok {
		return seq, true, true
	}
	if s.TotalPackets > 0 && int(s.NextSeq) >= s.TotalPackets {
		return 0, false, false
	}
	seq = s.NextSeq
	s.NextSeq++
	return seq, false, true
}

// Finish completes a fixed-size transfer the cumulative ACK covers and
// reports whether it did.
func (s *Source) Finish() bool {
	if s.TotalPackets <= 0 || int(s.CumAck) < s.TotalPackets {
		return false
	}
	s.done = true
	s.stats.Completed = true
	s.stats.CompletedAt = s.Eng.Now()
	s.paceRef.Stop()
	s.timerRef.Stop()
	return true
}

// Record adds the source's counters to a flow record (Endpoint).
func (s *Source) Record(fr *metrics.FlowRecord) {
	fr.DataSent = s.stats.DataSent
	fr.SourceRetransmissions = s.stats.Retransmissions
}

// SinkStats are the counters every sink keeps.
type SinkStats struct {
	// DataReceived counts DATA arrivals, duplicates included.
	DataReceived uint64
	// UniqueReceived counts distinct sequence numbers delivered.
	UniqueReceived uint64
	// Duplicates counts repeated sequence numbers.
	Duplicates uint64
	// DeliveredBytes is the application payload delivered (unique).
	DeliveredBytes uint64
	// Completed reports whether a fixed-size transfer finished, at
	// CompletedAt.
	Completed   bool
	CompletedAt sim.Time
}

// Sink is the receiving end every protocol shares: it counts arrivals,
// tracks the received sequence numbers and records one reception sample
// per unique delivery. A protocol's receiver embeds it and decides when
// to send feedback and when the transfer is complete.
type Sink struct {
	Config
	Net *node.Network
	Eng *sim.Engine

	// Got holds the received sequence numbers; its Lo is the cumulative
	// ACK. Highest is the highest one received, valid once GotAny.
	Got     Window
	Highest uint32
	GotAny  bool
	// LastDataAt is when the latest DATA arrived.
	LastDataAt sim.Time

	done      bool
	stats     *SinkStats
	proto     node.Transport
	reception stats.Series // one sample per unique delivery (V=1)
}

// Open readies the sink to receive for proto, counting into st (which
// proto's own statistics embed).
func (k *Sink) Open(nw *node.Network, cfg Config, proto node.Transport, st *SinkStats) {
	k.Config = cfg
	k.Net, k.Eng = nw, nw.Engine()
	k.proto, k.stats = proto, st
}

// Start binds the protocol's receiver at the destination node.
func (k *Sink) Start() { k.Net.Bind(k.Dst, k.Flow, k.proto) }

// Stop unbinds.
func (k *Sink) Stop() { k.Net.Unbind(k.Dst, k.Flow) }

// Done reports whether a fixed-size transfer completed.
func (k *Sink) Done() bool { return k.done }

// Arrive counts one DATA arrival.
func (k *Sink) Arrive() {
	k.stats.DataReceived++
	k.LastDataAt = k.Eng.Now()
}

// Duplicate counts an arrival of a sequence number already delivered.
func (k *Sink) Duplicate() { k.stats.Duplicates++ }

// Take delivers seq with its payload bytes as a unique packet.
func (k *Sink) Take(seq uint32, payload int) {
	k.Got.Add(seq)
	k.stats.UniqueReceived++
	k.stats.DeliveredBytes += uint64(payload)
	k.reception.Add(k.Eng.Now().Seconds(), 1)
	if !k.GotAny || seq > k.Highest {
		k.Highest = seq
		k.GotAny = true
	}
}

// Accept counts a DATA arrival of seq and delivers it unless it was
// delivered before, reporting whether it was new.
func (k *Sink) Accept(seq uint32, payload int) bool {
	k.Arrive()
	if k.Got.Has(seq) {
		k.Duplicate()
		return false
	}
	k.Take(seq, payload)
	return true
}

// Covered reports whether a fixed-size transfer has every packet.
func (k *Sink) Covered() bool {
	return k.TotalPackets > 0 && int(k.Got.Lo()) >= k.TotalPackets
}

// Complete marks a fixed-size transfer complete now and runs final (the
// protocol's last feedback).
func (k *Sink) Complete(final func()) {
	k.done = true
	k.stats.Completed = true
	k.stats.CompletedAt = k.Eng.Now()
	final()
}

// Record adds the sink's delivery counters to a flow record (Endpoint).
func (k *Sink) Record(fr *metrics.FlowRecord) {
	fr.UniqueDelivered = k.stats.UniqueReceived
	fr.DeliveredBytes = k.stats.DeliveredBytes
	fr.Duplicates = k.stats.Duplicates
	fr.Completed = k.stats.Completed
	fr.Reception = &k.reception
	if k.stats.Completed {
		fr.CompletedAt = k.stats.CompletedAt.Seconds()
	}
}
