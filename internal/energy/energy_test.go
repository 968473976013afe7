package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAirtime(t *testing.T) {
	m := Model{DataRate: 1e6}
	if at := m.Airtime(1000); at != 0.008 {
		t.Fatalf("airtime of 1000B at 1Mb/s = %v, want 8ms", at)
	}
}

func TestTxRxCost(t *testing.T) {
	m := Model{TxPower: 0.1, RxPower: 0.05, DataRate: 1e6}
	// 800 bytes = 6400 bits = 6.4ms
	if c := m.TxCost(800); math.Abs(c-0.1*0.0064) > 1e-12 {
		t.Fatalf("TxCost = %v", c)
	}
	if c := m.RxCost(800); math.Abs(c-0.05*0.0064) > 1e-12 {
		t.Fatalf("RxCost = %v", c)
	}
	m.TxOverhead = 1e-3
	m.RxOverhead = 5e-4
	if c := m.TxCost(800); math.Abs(c-(0.1*0.0064+1e-3)) > 1e-12 {
		t.Fatalf("TxCost with overhead = %v", c)
	}
	if c := m.RxCost(800); math.Abs(c-(0.05*0.0064+5e-4)) > 1e-12 {
		t.Fatalf("RxCost with overhead = %v", c)
	}
}

func TestJAVeLENModel(t *testing.T) {
	m := JAVeLEN()
	if m.TxPower <= 0 || m.RxPower <= 0 || m.DataRate <= 0 {
		t.Fatal("JAVeLEN model has zero fields")
	}
	// §2: an ACK consumes "roughly as much energy as a data transmission":
	// a 46-byte ACK must cost at least a quarter of an 800-byte data
	// packet, because of per-packet fixed costs.
	ack := m.TxCost(46) + m.RxCost(46)
	data := m.TxCost(800) + m.RxCost(800)
	if ack < data/4 {
		t.Fatalf("ack cost %.3g too small vs data %.3g: fixed overheads missing", ack, data)
	}
	if ack >= data {
		t.Fatalf("ack cost %.3g should still be below a full data packet %.3g", ack, data)
	}
}

func TestCostMonotonicProperty(t *testing.T) {
	m := JAVeLEN()
	prop := func(a, b uint16) bool {
		small, big := int(a%2000), int(b%2000)
		if small > big {
			small, big = big, small
		}
		return m.TxCost(small) <= m.TxCost(big) && m.RxCost(small) <= m.RxCost(big)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeter(t *testing.T) {
	var mt Meter
	mt.ChargeTx(0.5)
	mt.ChargeTx(0.25)
	mt.ChargeRx(0.1)
	if mt.Tx() != 0.75 || mt.Rx() != 0.1 {
		t.Fatalf("tx=%v rx=%v", mt.Tx(), mt.Rx())
	}
	if mt.Total() != 0.85 {
		t.Fatalf("total=%v", mt.Total())
	}
	if mt.String() == "" {
		t.Fatal("String empty")
	}
}
