package experiments

import (
	"testing"

	"github.com/javelen/jtp/internal/metrics"
)

// must unwraps a Run result for a scenario that is valid by
// construction: any error is a bug in the test.
func must(rec *metrics.RunRecord, err error) *metrics.RunRecord {
	if err != nil {
		panic(err.Error()) // already "experiments:"-prefixed
	}
	return rec
}

// TestSmokeJTPLinearTransfer runs one fixed-size JTP transfer over a
// 5-node chain and checks it completes with full reliability.
func TestSmokeJTPLinearTransfer(t *testing.T) {
	rec := must(Run(Scenario{
		Name:    "smoke-jtp",
		Proto:   JTP,
		Topo:    Linear,
		Nodes:   5,
		Seconds: 600,
		Seed:    1,
		Flows: []FlowSpec{
			{Src: 0, Dst: 4, StartAt: 10, TotalPackets: 50},
		},
	}))
	f := rec.Flows[0]
	if !f.Completed {
		t.Fatalf("transfer did not complete: delivered=%d/50 sent=%d srcRtx=%d acks=%d energy=%.4fJ qdrops=%d",
			f.UniqueDelivered, f.DataSent, f.SourceRetransmissions, f.AcksSent, rec.TotalEnergy, rec.QueueDrops)
	}
	if f.UniqueDelivered < 50 {
		t.Errorf("lt=0 transfer delivered %d < 50", f.UniqueDelivered)
	}
	if rec.TotalEnergy <= 0 {
		t.Errorf("no energy metered")
	}
	t.Logf("completed at %.1fs delivered=%d srcRtx=%d cacheRec=%d acks=%d energy=%.4fJ e/bit=%.3guJ",
		f.CompletedAt, f.UniqueDelivered, f.SourceRetransmissions, f.CacheRecovered, f.AcksSent,
		rec.TotalEnergy, rec.EnergyPerBit()*1e6)
}

// TestSmokeTCPLinearTransfer checks the TCP-SACK baseline completes.
// TCP is slow here by design: without transport-controlled link-layer
// retransmissions every loss costs an end-to-end recovery (§1), the
// perceived loss rate crushes the equation-based rate, and a 50-packet
// transfer over 4 lossy hops takes on the order of an hour of virtual
// time — the goodput collapse of Fig 9(b).
func TestSmokeTCPLinearTransfer(t *testing.T) {
	rec := must(Run(Scenario{
		Name:    "smoke-tcp",
		Proto:   TCP,
		Topo:    Linear,
		Nodes:   5,
		Seconds: 8000,
		Seed:    1,
		Flows:   []FlowSpec{{Src: 0, Dst: 4, StartAt: 10, TotalPackets: 50}},
	}))
	f := rec.Flows[0]
	if !f.Completed {
		t.Fatalf("tcp transfer did not complete: delivered=%d/50 sent=%d rtx=%d acks=%d",
			f.UniqueDelivered, f.DataSent, f.SourceRetransmissions, f.AcksSent)
	}
	t.Logf("tcp completed at %.1fs acks=%d rtx=%d e/bit=%.3guJ",
		f.CompletedAt, f.AcksSent, f.SourceRetransmissions, rec.EnergyPerBit()*1e6)
}

// TestSmokeATPLinearTransfer checks the ATP baseline completes.
func TestSmokeATPLinearTransfer(t *testing.T) {
	rec := must(Run(Scenario{
		Name:    "smoke-atp",
		Proto:   ATP,
		Topo:    Linear,
		Nodes:   5,
		Seconds: 600,
		Seed:    1,
		Flows:   []FlowSpec{{Src: 0, Dst: 4, StartAt: 10, TotalPackets: 50}},
	}))
	f := rec.Flows[0]
	if !f.Completed {
		t.Fatalf("atp transfer did not complete: delivered=%d/50 sent=%d rtx=%d fb=%d",
			f.UniqueDelivered, f.DataSent, f.SourceRetransmissions, f.AcksSent)
	}
	t.Logf("atp completed at %.1fs fb=%d rtx=%d e/bit=%.3guJ",
		f.CompletedAt, f.AcksSent, f.SourceRetransmissions, rec.EnergyPerBit()*1e6)
}
