package atp

import (
	"testing"

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
	InstallStampers(nw)
	nw.Start()
	return eng, nw
}

func clean() channel.Config {
	c := channel.Defaults()
	c.GoodLoss = 0
	c.Static = true
	return c
}

func TestRateStamperTakesMin(t *testing.T) {
	seg := &Segment{Kind: Data, RateStamp: packet.InitialAvailRate}
	fr := &mac.Frame{Seg: seg}
	RateStamper{}.PreXmit(fr, mac.LinkInfo{AvailRate: 7})
	if seg.RateStamp != 7 {
		t.Fatalf("stamp = %v", seg.RateStamp)
	}
	RateStamper{}.PreXmit(fr, mac.LinkInfo{AvailRate: 20})
	if seg.RateStamp != 7 {
		t.Fatal("stamper raised the min")
	}
	// Feedback segments are not stamped.
	fb := &Segment{Kind: Feedback, RateStamp: packet.InitialAvailRate}
	RateStamper{}.PreXmit(&mac.Frame{Seg: fb}, mac.LinkInfo{AvailRate: 3})
	if fb.RateStamp != packet.InitialAvailRate {
		t.Fatal("feedback stamped")
	}
}

func TestCleanTransfer(t *testing.T) {
	eng, nw := testNet(t, 4, clean(), 1)
	cfg := transport.Defaults(1, 0, 3)
	cfg.TotalPackets = 40
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(400 * sim.Second)
	if !conn.Done() {
		t.Fatalf("clean atp transfer incomplete: %+v", conn.Receiver.stats)
	}
}

func TestSenderAdoptsFeedbackRate(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 2)
	cfg := transport.Defaults(1, 0, 2)
	s := NewSender(nw, cfg, nil)
	s.Start()
	defer s.Stop()
	s.Deliver(&Segment{Kind: Feedback, Wire: transport.Wire{Src: 2, Dst: 0, Flow: 1}, FbRate: 4.5}, 1)
	if s.Rate() != 4.5 {
		t.Fatalf("rate = %v, want 4.5 adopted directly", s.Rate())
	}
	// Clamping.
	s.Deliver(&Segment{Kind: Feedback, Wire: transport.Wire{Src: 2, Dst: 0, Flow: 1}, FbRate: 1e9}, 1)
	if s.Rate() > cfg.MaxRate {
		t.Fatal("rate not clamped")
	}
	_ = eng
}

func TestFeedbackSilenceHalvesRate(t *testing.T) {
	eng, nw := testNet(t, 2, clean(), 3)
	cfg := transport.Defaults(1, 0, 1)
	cfg.InitialRate = 8
	s := NewSender(nw, cfg, nil)
	s.Start()
	defer s.Stop()
	// No receiver bound: no feedback ever arrives.
	eng.RunFor(sim.DurationOf(FeedbackPeriod * 6))
	if s.Rate() >= 8 {
		t.Fatalf("silent feedback path: rate still %v", s.Rate())
	}
	if s.stats.TimeoutBackoffs == 0 {
		t.Fatal("no timeout backoffs")
	}
}

func TestConstantFeedbackClock(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 4)
	cfg := transport.Defaults(1, 0, 2)
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(100 * sim.Second)
	fb := conn.Receiver.stats.FeedbackSent
	// 100s / 3s ≈ 33 epochs.
	if fb < 25 || fb > 40 {
		t.Fatalf("feedback count = %d over 100s at 1/3s", fb)
	}
}

func TestEpochAverageInFeedback(t *testing.T) {
	_, nw := testNet(t, 3, clean(), 5)
	cfg := transport.Defaults(1, 0, 2)
	r := NewReceiver(nw, cfg, nil)
	r.Start()
	defer r.Stop()
	for i, stamp := range []float64{4, 6} {
		r.Deliver(&Segment{
			Kind: Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: uint32(i), PayloadLen: 10},
			RateStamp: stamp,
		}, 1)
	}
	r.sendFeedback()
	if r.lastFb != 5 {
		t.Fatalf("epoch mean = %v, want 5", r.lastFb)
	}
	// Next epoch with no samples reuses the last value.
	r.sendFeedback()
	if r.lastFb != 5 {
		t.Fatal("idle epoch should keep last average")
	}
}

func TestSnackListsGaps(t *testing.T) {
	_, nw := testNet(t, 3, clean(), 6)
	cfg := transport.Defaults(1, 0, 2)
	cfg.TotalPackets = 10
	r := NewReceiver(nw, cfg, nil)
	r.Start()
	defer r.Stop()
	for _, seq := range []uint32{0, 1, 4, 5} {
		r.Deliver(&Segment{Kind: Data, Wire: transport.Wire{Src: 0, Dst: 2, Flow: 1, Seq: seq, PayloadLen: 10}}, 1)
	}
	sn := r.snack(nil)
	if !packet.RangesContain(sn, 2) || !packet.RangesContain(sn, 3) {
		t.Fatalf("snack = %v, want gaps 2,3", sn)
	}
}

func TestLossyTransferCompletes(t *testing.T) {
	eng, nw := testNet(t, 4, channel.Defaults(), 7)
	cfg := transport.Defaults(1, 0, 3)
	cfg.TotalPackets = 30
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(3000 * sim.Second)
	if !conn.Done() {
		t.Fatalf("lossy atp transfer incomplete: %+v", conn.Receiver.stats)
	}
	if conn.Sender.stats.Retransmissions == 0 {
		t.Fatal("single-attempt lossy path must need e2e retransmissions")
	}
}

func TestSegmentInterfaces(t *testing.T) {
	s := &Segment{Kind: Data, Wire: transport.Wire{Flow: 3, PayloadLen: PayloadLen}}
	if s.Size() != 800 {
		t.Fatalf("size = %d", s.Size())
	}
	if s.FlowID() != 3 {
		t.Fatal("interfaces")
	}
	if s.AddHop() != 1 {
		t.Fatal("hops")
	}
	fb := &Segment{Kind: Feedback, Wire: transport.Wire{Ranges: []packet.SeqRange{{First: 1, Last: 1}}}}
	if fb.Size() != transport.HeaderSize+transport.RangeSize {
		t.Fatalf("fb size = %d", fb.Size())
	}
	_ = s.String()
	_ = fb.String()
}

// TestSenderRefusesUnsentTail pins that the ATP source retransmits only
// SNACKed sequences it has already sent: a stalled receiver's tail
// requests beyond nextSeq stay with the first-transmission path (unlike
// JTP, core.TestSenderQueuesSnackedTail).
func TestSenderRefusesUnsentTail(t *testing.T) {
	eng, nw := testNet(t, 3, clean(), 8)
	cfg := transport.Defaults(1, 0, 2)
	cfg.TotalPackets = 100
	s := NewSender(nw, cfg, nil)
	s.Start()
	defer s.Stop()
	eng.RunFor(3500 * sim.Millisecond)
	next := s.NextSeq
	if next < 3 {
		t.Fatalf("only %d packets out", next)
	}
	s.Deliver(&Segment{Kind: Feedback, FbRate: cfg.InitialRate, Wire: transport.Wire{Src: 2, Dst: 0, Flow: 1, CumAck: 0,
		Ranges: []packet.SeqRange{{First: 1, Last: 1}, {First: next + 5, Last: next + 7}}}}, 1)
	eng.RunFor(10 * sim.Second)
	if rtx := s.stats.Retransmissions; rtx != 1 {
		t.Fatalf("%d retransmissions, want 1 (seq 1 only)", rtx)
	}
}
