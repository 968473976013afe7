// Package energy models the radio energy costs of a JAVeLEN-class
// ultra-low-power node and meters per-node consumption.
//
// Following §6.1 of the paper, the link layer charges energy only for the
// transmission and reception of transport-layer packets — "we will not
// consider the energy consumed for network maintenance by the lower
// layers" — and computes each charge from the transmission power, the
// radio's data rate, and the packet's length.
package energy

import "fmt"

// Model holds the radio parameters. All costs derive from
// power × airtime, airtime = bits / DataRate.
type Model struct {
	// TxPower is the transmit power draw in watts.
	TxPower float64
	// RxPower is the receive power draw in watts.
	RxPower float64
	// DataRate is the radio bit rate in bits/s.
	DataRate float64
	// TxOverhead is a fixed per-transmission cost in joules: PHY
	// preamble, slot acquisition, radio ramp-up. It is what makes a
	// small acknowledgment "consume roughly as much energy as a data
	// transmission" (paper §2).
	TxOverhead float64
	// RxOverhead is the fixed per-reception cost in joules (receiver
	// wake-up and synchronization).
	RxOverhead float64
}

// JAVeLEN returns the radio model used throughout the reproduction:
// an ultra-low-power radio with 80 mW transmit draw, 50 mW receive draw,
// a 1 Mb/s data rate, and fixed per-packet overheads (0.4 mJ transmit,
// 0.2 mJ receive) for slot acquisition, preamble, and radio ramp-up.
// The fixed costs are what make an acknowledgment cost the same order as
// a data packet (§2), which is why JTP's ACK minimization matters.
// (The JAVeLEN paper [26] reports ~100× lower energy than 802.11; these
// constants are in that class. Absolute joules differ from the authors'
// testbed; all comparisons are relative.)
func JAVeLEN() Model {
	return Model{
		TxPower:    0.080,
		RxPower:    0.050,
		DataRate:   1e6,
		TxOverhead: 0.4e-3,
		RxOverhead: 0.2e-3,
	}
}

// Airtime returns the seconds needed to transmit a packet of the given
// size in bytes.
func (m Model) Airtime(bytes int) float64 {
	return float64(bytes*8) / m.DataRate
}

// TxCost returns the joules consumed by one link-layer transmission of a
// packet of the given size.
func (m Model) TxCost(bytes int) float64 {
	return m.TxPower*m.Airtime(bytes) + m.TxOverhead
}

// RxCost returns the joules consumed by receiving a packet of the given
// size.
func (m Model) RxCost(bytes int) float64 {
	return m.RxPower*m.Airtime(bytes) + m.RxOverhead
}

// Meter accumulates the energy consumed by one node, split by activity so
// experiments can report both totals (Fig 3a, 7a) and per-node fairness
// (Fig 4b). The zero value is ready to use.
type Meter struct {
	tx float64
	rx float64
}

// ChargeTx records one transmission's cost in joules.
func (mt *Meter) ChargeTx(j float64) { mt.tx += j }

// ChargeRx records one reception's cost in joules.
func (mt *Meter) ChargeRx(j float64) { mt.rx += j }

// Total returns all joules consumed.
func (mt *Meter) Total() float64 { return mt.tx + mt.rx }

// Tx returns joules spent transmitting.
func (mt *Meter) Tx() float64 { return mt.tx }

// Rx returns joules spent receiving.
func (mt *Meter) Rx() float64 { return mt.rx }

// String formats the meter in millijoules.
func (mt *Meter) String() string {
	return fmt.Sprintf("tx=%.3fmJ rx=%.3fmJ", mt.tx*1e3, mt.rx*1e3)
}
