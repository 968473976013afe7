// Package core implements end-to-end JTP (eJTP, paper §2.2.1): the
// rate-based, receiver-driven transport protocol that is the paper's
// primary contribution.
//
// A connection is a Sender bound at the source node and a Receiver bound
// at the destination node of a node.Network. The Receiver is fully in
// charge of all transmission parameters (§5): it monitors the path with
// flip-flop filters, runs the PI²/MD sending-rate controller and the
// energy-budget controller, decides when feedback is worth its energy,
// and requests retransmission only of packets the application still needs
// (§3). The Sender paces packets at the mandated rate, backs off for
// in-network retransmissions done on its behalf (§4.2), and retransmits
// end-to-end only what no cache recovered.
package core

import (
	"github.com/javelen/jtp/internal/flipflop"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/transport"
)

// Config parameterizes one JTP connection. Zero-valued fields take the
// Table 1 / §5 defaults via Defaults and withDefaults.
type Config struct {
	// Config holds the flow, its endpoints, the transfer length
	// (unbounded streams are the long-lived flows of the competing-flow
	// experiments) and the initial and maximum rates.
	transport.Config

	// PayloadLen is the application payload per packet in bytes. The
	// default makes the on-air data packet 800 bytes (Table 1) including
	// the 28-byte header.
	PayloadLen int
	// LossTolerance is the application's end-to-end loss tolerance in
	// [0,1] (§3): 0 = fully reliable, 0.10 = jtp10, 0.20 = jtp20.
	LossTolerance float64

	// MinRate floors the controller output, as MaxRate caps it.
	MinRate float64
	// KI is the PI² increase gain (Eq 9): r += KI·Ā/r, 0 < KI < 1.
	KI float64
	// KD is the multiplicative decrease factor (Eq 10), 0 < KD < 1.
	KD float64
	// Delta is δ, the target available path rate in packets/s below
	// which the controller decreases multiplicatively.
	Delta float64

	// Beta is β of Eq (13): the energy budget reported to the source is
	// β·eUCL; must exceed 1 so the monitor can still detect outliers.
	Beta float64
	// InitialEnergyBudget (joules) is used before the energy monitor has
	// data. Zero disables budgeting until first feedback.
	InitialEnergyBudget float64

	// TLowerBound is the minimum regular feedback interval in seconds
	// (Table 1: 10 s).
	TLowerBound float64
	// FeedbackN is n in T = max(TLowerBound, n·1/rate): feedback never
	// exceeds the data rate (§5.1).
	FeedbackN float64
	// MinFeedbackGap rate-limits monitor-triggered early feedback
	// (seconds).
	MinFeedbackGap float64
	// SnackRetry is how long the receiver waits before re-requesting a
	// sequence number it already SNACKed (seconds). It gives the
	// in-network recovery time to land and prevents duplicate cache
	// retransmissions.
	SnackRetry float64
	// ConstantFeedbackRate, when positive, disables the variable-rate
	// feedback machinery and sends feedback at this fixed rate in
	// packets/s with no early triggers — the constant-rate comparison of
	// Fig 7.
	ConstantFeedbackRate float64

	// RateMonitor and EnergyMonitor configure the flip-flop filters of
	// the path monitor (§5.1).
	RateMonitor, EnergyMonitor flipflop.Config

	// DisableBackoff turns off the fairness back-off of §4.2, for the
	// "JTP without Backoff" runs of Fig 5. The zero value keeps the
	// paper's default, back-off on.
	DisableBackoff bool

	// DisableRetransmissions makes the receiver never SNACK (a UDP-like
	// flow, as flow 1 of Fig 5). The zero value keeps retransmissions on.
	DisableRetransmissions bool

	// AckPad is extra on-air bytes added to every ACK to emulate the
	// prototype's 200-byte ACK header (§6.1). The experiment harness
	// sets it so ACK energy accounting matches the paper's prototype.
	AckPad int

	// DeadlineAfter, when positive, stamps every data packet with an
	// absolute deadline this many seconds after it is first sent
	// (§2.1.1's real-time deadline field). Expired packets are dropped
	// in-network instead of consuming further transmissions; the
	// receiver should combine this with a loss tolerance and
	// DisableRetransmissions for streaming traffic.
	DeadlineAfter float64

	// TimeoutFactor scales the sender's no-feedback timeout relative to
	// the receiver's announced feedback interval.
	TimeoutFactor float64
}

// Table 1 and §5/§6 defaults.
const (
	// DefaultPacketSize is the on-air JTP data packet size in bytes
	// (Table 1).
	DefaultPacketSize = 800
	// DefaultPayloadLen keeps the on-air size at DefaultPacketSize after
	// the 28-byte header.
	DefaultPayloadLen = DefaultPacketSize - packet.DataHeaderSize
	// DefaultTLowerBound is Table 1's T_Lower bound in seconds.
	DefaultTLowerBound = 10
	// DefaultAckPad emulates the prototype's 200-byte ACK header: a bare
	// ACK (28-byte header + 18-byte fixed feedback block) is padded to
	// 200 bytes on air.
	DefaultAckPad = 200 - packet.DataHeaderSize - packet.AckFixedSize
)

// Defaults returns the paper-default connection configuration for the
// given endpoints. Fully reliable (loss tolerance 0), unbounded stream.
func Defaults(flow packet.FlowID, src, dst packet.NodeID) Config {
	return Config{
		Config:              transport.Defaults(flow, src, dst),
		PayloadLen:          DefaultPayloadLen,
		MinRate:             0.1,
		KI:                  0.3,
		KD:                  0.85,
		Delta:               0.5,
		Beta:                3.0,
		InitialEnergyBudget: 0.05,
		TLowerBound:         DefaultTLowerBound,
		FeedbackN:           2,
		MinFeedbackGap:      4.0,
		SnackRetry:          5.0,
		RateMonitor:         flipflop.Defaults(),
		EnergyMonitor:       flipflop.Defaults(),
		AckPad:              DefaultAckPad,
		TimeoutFactor:       2.0,
	}
}

// withDefaults fills unset fields so partially specified configs behave.
func (c Config) withDefaults() Config {
	d := Defaults(c.Flow, c.Src, c.Dst)
	if c.PayloadLen <= 0 {
		c.PayloadLen = d.PayloadLen
	}
	if c.InitialRate <= 0 {
		c.InitialRate = d.InitialRate
	}
	if c.MinRate <= 0 {
		c.MinRate = d.MinRate
	}
	if c.MaxRate <= 0 {
		c.MaxRate = d.MaxRate
	}
	if c.KI <= 0 || c.KI >= 1 {
		c.KI = d.KI
	}
	if c.KD <= 0 || c.KD >= 1 {
		c.KD = d.KD
	}
	if c.Delta <= 0 {
		c.Delta = d.Delta
	}
	if c.Beta <= 1 {
		c.Beta = d.Beta
	}
	if c.TLowerBound <= 0 {
		c.TLowerBound = d.TLowerBound
	}
	if c.FeedbackN <= 0 {
		c.FeedbackN = d.FeedbackN
	}
	if c.MinFeedbackGap <= 0 {
		c.MinFeedbackGap = d.MinFeedbackGap
	}
	if c.SnackRetry <= 0 {
		c.SnackRetry = d.SnackRetry
	}
	if c.TimeoutFactor <= 0 {
		c.TimeoutFactor = d.TimeoutFactor
	}
	if c.InitialEnergyBudget == 0 {
		c.InitialEnergyBudget = d.InitialEnergyBudget
	}
	return c
}

// neededPackets returns how many unique packets the application requires
// for a transfer of total packets under the configured loss tolerance:
// ceil((1−lt)·total).
func (c Config) neededPackets(total int) int {
	if total <= 0 {
		return 0
	}
	allowed := int(c.LossTolerance * float64(total))
	need := total - allowed
	if need < 1 {
		need = 1
	}
	return need
}
