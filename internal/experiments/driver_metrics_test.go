package experiments

import (
	"errors"
	"strings"
	"testing"

	"github.com/javelen/jtp/internal/transport"
	"github.com/javelen/jtp/internal/transport/drivers"
)

// TestEveryDriverPopulatesFlowRecord runs every transport driver on
// the same 5-node linear chain and asserts the uniform
// Flow.Stats() contract: delivered counts, goodput inputs and source
// retransmission accounting are populated consistently, so campaign
// observables mean the same thing for every protocol.
func TestEveryDriverPopulatesFlowRecord(t *testing.T) {
	for _, proto := range drivers.Names() {
		t.Run(proto, func(t *testing.T) {
			const total = 40
			b, err := BuildScenario(Scenario{
				Name:    "driver-metrics",
				Proto:   Protocol(proto),
				Topo:    Linear,
				Nodes:   5,
				Seconds: 2000,
				Seed:    11,
				Flows: []FlowSpec{
					{Src: 0, Dst: 4, StartAt: 50, TotalPackets: total},
				},
			}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			rec := b.Run()

			if len(rec.Flows) != 1 {
				t.Fatalf("%d flow records, want 1", len(rec.Flows))
			}
			fr := rec.Flows[0]
			if fr.Proto != proto {
				t.Errorf("FlowRecord.Proto = %q, want %q", fr.Proto, proto)
			}
			if fr.Flow != 1 || fr.Src != 0 || fr.Dst != 4 || fr.StartAt != 50 {
				t.Errorf("identity fields flow=%d src=%d dst=%d startAt=%g, want 1/0/4/50",
					fr.Flow, fr.Src, fr.Dst, fr.StartAt)
			}
			if fr.UniqueDelivered == 0 || fr.DeliveredBytes == 0 {
				t.Errorf("no delivery recorded: unique=%d bytes=%d", fr.UniqueDelivered, fr.DeliveredBytes)
			}
			if fr.UniqueDelivered > total {
				t.Errorf("delivered %d unique packets of a %d-packet transfer", fr.UniqueDelivered, total)
			}
			if fr.DataSent == 0 {
				t.Error("DataSent not populated")
			}
			if fr.AcksSent == 0 {
				t.Error("AcksSent not populated (every protocol sends feedback)")
			}
			if fr.GoodputBps(rec.Seconds) <= 0 {
				t.Error("goodput not derivable from the record")
			}
			if fr.Reception == nil || fr.Reception.Len() == 0 {
				t.Error("Reception series not populated")
			}
			if fr.Completed && fr.CompletedAt <= fr.StartAt {
				t.Errorf("CompletedAt %g not after StartAt %g", fr.CompletedAt, fr.StartAt)
			}

			// A fresh snapshot of the live flow must agree with the run's
			// record, and the goodput the public API derives from it with
			// the delivered bytes.
			fl := b.flows[0]
			if now := fl.Stats(); now.UniqueDelivered != fr.UniqueDelivered ||
				now.SourceRetransmissions != fr.SourceRetransmissions {
				t.Errorf("Flow.Stats() delivered %d, source rtx %d; record says %d, %d",
					now.UniqueDelivered, now.SourceRetransmissions, fr.UniqueDelivered, fr.SourceRetransmissions)
			}
			if fl.Done() != fr.Completed {
				t.Errorf("Flow.Done() = %v, record says %v", fl.Done(), fr.Completed)
			}
			if g := transport.GoodputNow(fl.Stats(), rec.Seconds); (g > 0) != (fr.DeliveredBytes > 0) {
				t.Errorf("goodput %g inconsistent with %d delivered bytes", g, fr.DeliveredBytes)
			}
		})
	}
}

// TestRunUnknownProtocolError pins the tentpole's error contract: the
// old panic("experiments: unknown protocol") is now a wrapped error
// surfaced through BuildScenario and Run.
func TestRunUnknownProtocolError(t *testing.T) {
	sc := Scenario{Name: "bogus", Proto: "carrier-pigeon", Nodes: 3, Seconds: 10,
		Flows: []FlowSpec{{Src: 0, Dst: 2}}}
	if _, err := BuildScenario(sc, Hooks{}); !errors.Is(err, transport.ErrUnknownProtocol) {
		t.Errorf("BuildScenario: got %v, want ErrUnknownProtocol", err)
	}
	rec, err := Run(sc)
	if !errors.Is(err, transport.ErrUnknownProtocol) {
		t.Fatalf("Run: got %v, want ErrUnknownProtocol", err)
	}
	if rec != nil {
		t.Error("Run returned a record alongside the error")
	}
	if !strings.Contains(err.Error(), "carrier-pigeon") || !strings.Contains(err.Error(), "jtp") {
		t.Errorf("error %q should name the unknown protocol and the registered set", err)
	}
}

// TestBatchUnknownProtocolListsRegistered checks batch validation
// derives its protocol set from drivers.Names (no hand-maintained list).
func TestBatchUnknownProtocolListsRegistered(t *testing.T) {
	_, err := ParseBatchSpec([]byte(`{"protocols":["carrier-pigeon"]}`))
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range drivers.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("batch error %q does not list registered protocol %q", err, name)
		}
	}
}
