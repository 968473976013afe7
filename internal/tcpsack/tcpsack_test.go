package tcpsack

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/transport"
)

func testNet(t *testing.T, n int, ch channel.Config, seed int64) (*sim.Engine, *node.Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(n, 80),
		Channel: ch,
		MAC:     mac.Defaults(),
		Routing: routing.Config{},
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	return eng, nw
}

func clean() channel.Config {
	c := channel.Defaults()
	c.GoodLoss = 0
	c.Static = true
	return c
}

func TestPadhyeRateBehaviour(t *testing.T) {
	// Lower loss ⇒ higher rate.
	if PadhyeRate(1, 2, 0.01, 2) <= PadhyeRate(1, 2, 0.1, 2) {
		t.Fatal("rate must fall with loss")
	}
	// Longer RTT ⇒ lower rate.
	if PadhyeRate(2, 4, 0.05, 2) >= PadhyeRate(1, 2, 0.05, 2) {
		t.Fatal("rate must fall with RTT")
	}
	// Known point: RTT=1, p=0.01, b=2 → denominator ≈ 1·0.1155 + small.
	r := PadhyeRate(1, 1, 0.01, 2)
	if r < 5 || r > 10 {
		t.Fatalf("PadhyeRate(1,1,0.01,2) = %.2f, expected ≈8", r)
	}
	if math.IsInf(PadhyeRate(0.5, 1, 0, 2), 1) {
		t.Fatal("p floor missing")
	}
}

func TestPadhyeMonotoneProperty(t *testing.T) {
	prop := func(p1, p2 float64) bool {
		a := 1e-4 + math.Mod(math.Abs(p1), 0.9)
		b := 1e-4 + math.Mod(math.Abs(p2), 0.9)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return PadhyeRate(1, 2, a, 2)+1e-12 >= PadhyeRate(1, 2, b, 2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentSizes(t *testing.T) {
	d := &Segment{Kind: Data, Wire: transport.Wire{PayloadLen: PayloadLen}}
	if d.Size() != 800 {
		t.Fatalf("data segment = %d bytes", d.Size())
	}
	a := &Segment{Kind: Ack, Wire: transport.Wire{Ranges: []packet.SeqRange{{First: 1, Last: 2}, {First: 4, Last: 4}}}}
	if a.Size() != transport.HeaderSize+2*transport.RangeSize {
		t.Fatalf("ack size = %d", a.Size())
	}
	_ = d.String()
	_ = a.String()
}

func TestCleanTransfer(t *testing.T) {
	eng, nw := testNet(t, 4, clean(), 1)
	cfg := transport.Defaults(1, 0, 3)
	cfg.TotalPackets = 40
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(300 * sim.Second)
	if !conn.Done() {
		t.Fatalf("clean tcp transfer incomplete: %+v", conn.Receiver.stats)
	}
	if rtx := conn.Sender.stats.Retransmissions; rtx != 0 {
		t.Fatalf("clean path retransmissions: %d", rtx)
	}
}

func TestDelayedAckRatio(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 2)
	cfg := transport.Defaults(1, 0, 2)
	cfg.TotalPackets = 60
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(400 * sim.Second)
	rs := conn.Receiver.stats
	if !rs.Completed {
		t.Fatal("incomplete")
	}
	// In-order delivery: 1 ACK per 2 data segments (±timer flushes).
	if rs.AcksSent < 28 || rs.AcksSent > 40 {
		t.Fatalf("delayed acks = %d for 60 packets", rs.AcksSent)
	}
}

func TestLossyTransferCompletes(t *testing.T) {
	eng, nw := testNet(t, 4, channel.Defaults(), 3)
	cfg := transport.Defaults(1, 0, 3)
	cfg.TotalPackets = 30
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(3000 * sim.Second)
	if !conn.Done() {
		t.Fatalf("lossy tcp transfer incomplete: recv %+v sender %+v",
			conn.Receiver.stats, conn.Sender.stats)
	}
	if conn.Sender.stats.Retransmissions == 0 {
		t.Fatal("lossy single-attempt path needs e2e retransmissions")
	}
}

func TestRTOBackoffResets(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 4)
	cfg := transport.Defaults(1, 0, 2)
	cfg.TotalPackets = 3
	s := NewSender(nw, cfg, nil) // no receiver: nothing is ever acknowledged
	s.Start()
	defer s.Stop()
	eng.RunFor(2 * sim.Second)
	base := s.rto()
	eng.RunFor(60 * sim.Second)
	if s.stats.RTOs == 0 || s.rto() <= base {
		t.Fatalf("%d RTOs moved the RTO from %.1f s to %.1f s; backoff did not raise it",
			s.stats.RTOs, base, s.rto())
	}
	if s.rto() > 16 {
		t.Fatal("RTO cap exceeded")
	}
	// Cumulative progress over a segment really sent resets the backoff.
	s.Deliver(&Segment{Kind: Ack, Wire: transport.Wire{Src: 2, Dst: 0, Flow: 1, CumAck: 1}}, 1)
	if s.rtoBackoff != 0 {
		t.Fatal("cumAck progress did not reset RTO backoff")
	}
}

func TestSackTriggersFastRetransmit(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 5)
	cfg := transport.Defaults(1, 0, 2)
	s := NewSender(nw, cfg, nil) // no receiver: the test plays its ACKs
	s.Start()
	defer s.Stop()
	eng.RunFor(3500 * sim.Millisecond) // seqs 0..3 out, one per second
	if s.NextSeq != 4 || s.stats.Retransmissions != 0 {
		t.Fatalf("nextSeq %d after %d retransmissions, want 4 and 0", s.NextSeq, s.stats.Retransmissions)
	}
	// Seq 0 lost, 1..3 SACKed: the hole is retransmitted at the next
	// pacing slot, well before the RTO.
	s.Deliver(&Segment{Kind: Ack, Wire: transport.Wire{
		Src: 2, Dst: 0, Flow: 1, CumAck: 0,
		Ranges: []packet.SeqRange{{First: 1, Last: 3}},
	}}, 1)
	eng.RunFor(sim.Second)
	if rtx, rtos := s.stats.Retransmissions, s.stats.RTOs; rtx != 1 || rtos != 0 {
		t.Fatalf("%d retransmissions and %d RTOs, want 1 fast retransmission", rtx, rtos)
	}
}

// inflightSeqs lists the sender's in-flight sequence numbers, ascending.
func inflightSeqs(s *Sender) []uint32 {
	var seqs []uint32
	for i := 0; i < s.inflight.Len(); i++ {
		seqs = append(seqs, s.inflight.Lo()+uint32(i))
	}
	return seqs
}

// TestInflightSpansUnacked pins the sender's in-flight invariant through
// a lossy transfer: the tracked sequences are exactly [cumAck, nextSeq).
func TestInflightSpansUnacked(t *testing.T) {
	eng, nw := testNet(t, 4, channel.Defaults(), 3)
	cfg := transport.Defaults(1, 0, 3)
	cfg.TotalPackets = 30
	conn := Dial(nw, cfg)
	conn.Start()
	s := conn.Sender
	for eng.Now() < sim.Time(3000*sim.Second) && !conn.Done() {
		eng.RunFor(20 * sim.Millisecond)
		got := inflightSeqs(s)
		if len(got) != int(s.NextSeq-s.CumAck) {
			t.Fatalf("at %v: in flight %v, want [%d, %d)", eng.Now(), got, s.CumAck, s.NextSeq)
		}
		for i, seq := range got {
			if seq != s.CumAck+uint32(i) {
				t.Fatalf("at %v: in flight %v, want [%d, %d)", eng.Now(), got, s.CumAck, s.NextSeq)
			}
		}
	}
	if !conn.Done() {
		t.Fatal("lossy transfer incomplete")
	}
	if s.stats.Retransmissions == 0 {
		t.Fatal("no loss exercised")
	}
}

func TestReceiverImmediateAckOnOutOfOrder(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 6)
	cfg := transport.Defaults(1, 0, 2)
	r := NewReceiver(nw, cfg, nil)
	r.Start()
	defer r.Stop()
	r.Deliver(&Segment{Kind: Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: 0, PayloadLen: 10}}, 1)
	acks0 := r.stats.AcksSent
	// Gap: seq 2 arrives before 1 → immediate dup-ack-style feedback.
	r.Deliver(&Segment{Kind: Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: 2, PayloadLen: 10}}, 1)
	if r.stats.AcksSent != acks0+1 {
		t.Fatal("out-of-order arrival should ACK immediately")
	}
	_ = eng
}

func TestSackBlocksMostRecentFirst(t *testing.T) {
	_, nw := testNet(t, 3, clean(), 7)
	cfg := transport.Defaults(1, 0, 2)
	r := NewReceiver(nw, cfg, nil)
	r.Start()
	defer r.Stop()
	for _, seq := range []uint32{0, 2, 5, 9} {
		r.Deliver(&Segment{Kind: Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: seq, PayloadLen: 10}}, 1)
	}
	blocks := r.sackBlocks(nil)
	if len(blocks) != 3 {
		t.Fatalf("sack blocks = %v", blocks)
	}
	if blocks[0].First != 9 {
		t.Fatalf("most recent block first: %v", blocks)
	}
}

func TestFlowIDAndHops(t *testing.T) {
	s := &Segment{Wire: transport.Wire{Flow: 7}}
	if s.FlowID() != 7 {
		t.Fatal("flow id")
	}
	if s.AddHop() != 1 || s.AddHop() != 2 {
		t.Fatal("hop counter")
	}
}
