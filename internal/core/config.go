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
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/transport"
)

// Config parameterizes one JTP connection. The protocol's own
// parameters (Table 1, §5) are the constants below; a field exists only
// where the experiments run the protocol two ways.
type Config struct {
	// Config holds the flow, its endpoints, the transfer length
	// (unbounded streams are the long-lived flows of the competing-flow
	// experiments) and the initial and maximum rates.
	transport.Config

	// LossTolerance is the application's end-to-end loss tolerance in
	// [0,1] (§3): 0 = fully reliable, 0.10 = jtp10, 0.20 = jtp20.
	LossTolerance float64

	// ConstantFeedbackRate, when positive, disables the variable-rate
	// feedback machinery and sends feedback at this fixed rate in
	// packets/s with no early triggers — the constant-rate comparison of
	// Fig 7.
	ConstantFeedbackRate float64

	// DisableBackoff turns off the fairness back-off of §4.2, for the
	// "JTP without Backoff" runs of Fig 5. The zero value keeps the
	// paper's default, back-off on.
	DisableBackoff bool

	// DisableRetransmissions makes the receiver never SNACK (a UDP-like
	// flow, as flow 1 of Fig 5). The zero value keeps retransmissions on.
	DisableRetransmissions bool

	// DeadlineAfter, when positive, stamps every data packet with an
	// absolute deadline this many seconds after it is first sent
	// (§2.1.1's real-time deadline field). Expired packets are dropped
	// in-network instead of consuming further transmissions; the
	// receiver should combine this with a loss tolerance and
	// DisableRetransmissions for streaming traffic.
	DeadlineAfter float64
}

// Table 1 and §5/§6 defaults.
const (
	// DefaultPacketSize is the on-air data packet size in bytes (Table 1).
	DefaultPacketSize = 800
	// DefaultPayloadLen is the application payload per packet in bytes,
	// which keeps the on-air size at DefaultPacketSize after the header.
	DefaultPayloadLen = DefaultPacketSize - packet.DataHeaderSize
	// DefaultTLowerBound is Table 1's T_Lower bound: the minimum regular
	// feedback interval in seconds.
	DefaultTLowerBound = 10
	// DefaultAckPad is the on-air bytes added to every ACK so a bare one
	// (28-byte header + 18-byte fixed feedback block) takes the 200 bytes
	// of the prototype's ACK header (§6.1) and costs what an ACK cost there.
	DefaultAckPad = 200 - packet.DataHeaderSize - packet.AckFixedSize

	// minRate floors the controller output, as MaxRate caps it.
	minRate = 0.1
	// kI is the PI² increase gain (Eq 9): r += kI·Ā/r, 0 < kI < 1.
	kI = 0.3
	// kD is the multiplicative decrease factor (Eq 10), 0 < kD < 1.
	kD = 0.85
	// delta is δ, the target available path rate in packets/s below
	// which the controller decreases multiplicatively.
	delta = 0.5

	// beta is β of Eq (13): the energy budget reported to the source is
	// β·eUCL; it exceeds 1 so the monitor can still detect outliers.
	beta = 3.0
	// initialEnergyBudget (joules) applies until the energy monitor has data.
	initialEnergyBudget = 0.05

	// feedbackN is n in T = max(T_LowerBound, n·1/rate): feedback never
	// exceeds the data rate (§5.1).
	feedbackN = 2
	// minFeedbackGap (seconds) rate-limits monitor-triggered early feedback.
	minFeedbackGap = 4.0
	// snackRetry is how long the receiver waits before re-requesting a
	// sequence number it already SNACKed (seconds). It gives the
	// in-network recovery time to land and prevents duplicate cache
	// retransmissions.
	snackRetry = 5.0
	// timeoutFactor scales the sender's no-feedback timeout relative to
	// the receiver's announced feedback interval.
	timeoutFactor = 2.0
)

// Defaults returns the paper-default connection configuration for the
// given endpoints. Fully reliable (loss tolerance 0), unbounded stream.
func Defaults(flow packet.FlowID, src, dst packet.NodeID) Config {
	return Config{Config: transport.Defaults(flow, src, dst)}
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
