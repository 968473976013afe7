package core

import (
	"testing"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
)

// testNet builds a linear network with iJTP installed, returning the
// engine and network.
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
	for _, nd := range nw.Nodes() {
		id := nd.ID
		pl := ijtp.New(id, ijtp.Defaults(), nd.Router, func(p *packet.Packet) bool {
			return nw.SendFromFront(id, p)
		})
		nd.MAC.AddPlugin(pl)
	}
	nw.Start()
	return eng, nw
}

func cleanChannel() channel.Config {
	c := channel.Defaults()
	c.GoodLoss = 0
	c.Static = true
	return c
}

func TestConfigDefaults(t *testing.T) {
	cfg := Defaults(1, 0, 4)
	if cfg.PayloadLen+packet.DataHeaderSize != DefaultPacketSize {
		t.Fatalf("payload %d + header != 800", cfg.PayloadLen)
	}
	if cfg.DisableBackoff || cfg.DisableRetransmissions {
		t.Fatal("paper defaults: backoff and retransmissions on")
	}
	if cfg.Beta <= 1 {
		t.Fatal("β must exceed 1 (§5.2.4)")
	}
	// A zero-value config gets the paper's gains through withDefaults.
	var partial Config
	partial.Flow, partial.Src, partial.Dst = 2, 0, 3
	wd := partial.withDefaults()
	if wd.KI <= 0 || wd.KI >= 1 || wd.KD <= 0 || wd.KD >= 1 {
		t.Fatal("controller gains out of Eq 9/10 ranges")
	}
}

func TestNeededPackets(t *testing.T) {
	cfg := Defaults(1, 0, 1)
	cfg.LossTolerance = 0.1
	if n := cfg.neededPackets(100); n != 90 {
		t.Fatalf("needed(100, lt=0.1) = %d", n)
	}
	cfg.LossTolerance = 0
	if n := cfg.neededPackets(100); n != 100 {
		t.Fatalf("needed(100, lt=0) = %d", n)
	}
	if cfg.neededPackets(0) != 0 {
		t.Fatal("stream has no needed count")
	}
	cfg.LossTolerance = 0.999
	if cfg.neededPackets(10) < 1 {
		t.Fatal("at least one packet is always needed")
	}
}

func TestCleanPathTransfer(t *testing.T) {
	eng, nw := testNet(t, 4, cleanChannel(), 1)
	cfg := Defaults(1, 0, 3)
	cfg.TotalPackets = 30
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(300 * sim.Second)
	if !conn.Done() {
		t.Fatalf("clean transfer incomplete: %v / %v", conn.Sender, conn.Receiver)
	}
	ss, rs := conn.Sender.stats, conn.Receiver.stats
	if ss.Retransmissions != 0 {
		t.Fatalf("clean path caused %d source rtx", ss.Retransmissions)
	}
	if rs.UniqueReceived != 30 || rs.Duplicates != 0 {
		t.Fatalf("recv: %+v", rs)
	}
	if rs.DeliveredBytes != 30*uint64(cfg.PayloadLen) {
		t.Fatalf("delivered bytes %d", rs.DeliveredBytes)
	}
}

func TestRateConvergesUpward(t *testing.T) {
	eng, nw := testNet(t, 4, cleanChannel(), 2)
	cfg := Defaults(1, 0, 3) // unbounded stream
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(400 * sim.Second)
	if r := conn.Receiver.Rate(); r <= cfg.InitialRate {
		t.Fatalf("PI² controller never raised the rate: %.2f", r)
	}
	if got := conn.Receiver.stats.UniqueReceived; got < 200 {
		t.Fatalf("stream delivered only %d in 400s", got)
	}
}

func TestLossToleranceSkipsRecovery(t *testing.T) {
	ch := channel.Defaults() // lossy
	eng, nw := testNet(t, 5, ch, 3)
	cfg := Defaults(1, 0, 4)
	cfg.TotalPackets = 100
	cfg.LossTolerance = 0.2
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(600 * sim.Second)
	rs := conn.Receiver.stats
	if !rs.Completed {
		t.Fatalf("jtp20 transfer incomplete: %d/100", rs.UniqueReceived)
	}
	if int(rs.UniqueReceived) < 80 {
		t.Fatalf("delivered %d < needed 80", rs.UniqueReceived)
	}
	// The tolerant receiver should finish without demanding everything.
	if rs.UniqueReceived == 100 && rs.SnackRequested > 20 {
		t.Fatalf("jtp20 over-achieved with heavy SNACK traffic: %d requests", rs.SnackRequested)
	}
}

func TestSenderTimeoutBacksOff(t *testing.T) {
	// A partitioned path: receiver never gets anything, sender must decay
	// its rate on feedback silence.
	eng := sim.NewEngine(4)
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(2, 500), // out of range
		Channel: channel.Defaults(),
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	cfg := Defaults(1, 0, 1)
	cfg.InitialRate = 10
	s := NewSender(nw, cfg)
	s.Start()
	eng.RunFor(300 * sim.Second)
	if s.Rate() >= 10*0.85 {
		t.Fatalf("sender rate %.2f did not back off without feedback", s.Rate())
	}
	if s.stats.TimeoutBackoffs == 0 {
		t.Fatal("no timeout backoffs recorded")
	}
}

func TestBackoffPausesPacing(t *testing.T) {
	eng, nw := testNet(t, 3, cleanChannel(), 5)
	cfg := Defaults(1, 0, 2)
	s := NewSender(nw, cfg)
	r := NewReceiver(nw, cfg)
	r.Start()
	s.Start()
	eng.RunFor(20 * sim.Second)
	sentBefore := s.stats.DataSent

	// Deliver a forged ACK reporting 10 locally recovered packets.
	ack := &packet.Packet{
		Type: packet.Ack, Src: 2, Dst: 0, Flow: 1,
		Ack: &packet.AckInfo{
			CumAck:        0,
			Rate:          1, // 1 pps ⇒ 10 recovered ⇒ 10 s backoff
			SenderTimeout: 10,
			Recovered:     []packet.SeqRange{{First: 0, Last: 9}},
		},
	}
	s.Deliver(ack, 1)
	if s.stats.RecoveredReported != 10 {
		t.Fatalf("recovered reported = %d", s.stats.RecoveredReported)
	}
	if s.stats.BackoffTime <= 0 {
		t.Fatal("no backoff applied")
	}
	// During the next ~9 s the sender must stay quiet.
	eng.RunFor(8 * sim.Second)
	if sent := s.stats.DataSent; sent > sentBefore+1 {
		t.Fatalf("sender kept pacing during backoff: %d -> %d", sentBefore, sent)
	}
	// After the pause it resumes.
	eng.RunFor(60 * sim.Second)
	if sent := s.stats.DataSent; sent <= sentBefore+1 {
		t.Fatalf("sender never resumed after backoff: %d", sent)
	}
}

func TestBackoffDisabled(t *testing.T) {
	eng, nw := testNet(t, 3, cleanChannel(), 6)
	cfg := Defaults(1, 0, 2)
	cfg.DisableBackoff = true
	s := NewSender(nw, cfg)
	s.Start()
	eng.RunFor(5 * sim.Second)
	ack := &packet.Packet{
		Type: packet.Ack, Src: 2, Dst: 0, Flow: 1,
		Ack: &packet.AckInfo{
			Rate: 1, SenderTimeout: 10,
			Recovered: []packet.SeqRange{{First: 0, Last: 9}},
		},
	}
	s.Deliver(ack, 1)
	if s.stats.BackoffTime != 0 {
		t.Fatal("backoff applied despite DisableBackoff")
	}
}

func TestUDPLikeFlowNeverSnacks(t *testing.T) {
	ch := channel.Defaults()
	eng, nw := testNet(t, 5, ch, 7)
	cfg := Defaults(1, 0, 4)
	cfg.DisableRetransmissions = true
	cfg.LossTolerance = 0.1
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(400 * sim.Second)
	rs := conn.Receiver.stats
	if rs.SnackRequested != 0 {
		t.Fatalf("UDP-like flow requested %d retransmissions", rs.SnackRequested)
	}
	if ss := conn.Sender.stats; ss.Retransmissions != 0 {
		t.Fatalf("UDP-like flow source-retransmitted %d", ss.Retransmissions)
	}
	if rs.UniqueReceived == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestConstantFeedbackMode(t *testing.T) {
	eng, nw := testNet(t, 4, cleanChannel(), 8)
	cfg := Defaults(1, 0, 3)
	cfg.ConstantFeedbackRate = 0.5 // every 2 s
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(100 * sim.Second)
	rs := conn.Receiver.stats
	// ~50 ACKs expected in 100 s; allow slack for startup.
	if rs.AcksSent < 35 || rs.AcksSent > 55 {
		t.Fatalf("constant-rate acks = %d over 100s at 0.5/s", rs.AcksSent)
	}
	if rs.EarlyFeedbacks != 0 {
		t.Fatalf("constant mode sent %d early feedbacks", rs.EarlyFeedbacks)
	}
}

func TestVariableFeedbackIsSparse(t *testing.T) {
	eng, nw := testNet(t, 4, cleanChannel(), 9)
	cfg := Defaults(1, 0, 3)
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(200 * sim.Second)
	rs := conn.Receiver.stats
	// On a clean, stable path feedback should be near the 10 s lower
	// bound: ~20 ACKs in 200 s, far fewer than delivered packets.
	if rs.AcksSent > 30 {
		t.Fatalf("stable path feedback too chatty: %d acks in 200s", rs.AcksSent)
	}
	if rs.AcksSent < 10 {
		t.Fatalf("feedback clock stalled: %d acks", rs.AcksSent)
	}
}

func TestEnergyBudgetPropagates(t *testing.T) {
	eng, nw := testNet(t, 4, cleanChannel(), 10)
	cfg := Defaults(1, 0, 3)
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(120 * sim.Second)
	if !conn.Receiver.energyMon.Primed() {
		t.Fatal("energy monitor never primed")
	}
	// After feedback, the sender's budget must reflect β·UCL, not the
	// initial default.
	wantMin := conn.Receiver.energyMon.Mean()
	if wantMin <= 0 {
		t.Fatal("no energy samples")
	}
	if conn.Sender.Rate() <= 0 {
		t.Fatal("sender rate lost")
	}
	if conn.Sender.energyBudget == cfg.InitialEnergyBudget {
		t.Fatal("sender budget never updated from feedback")
	}
}

func TestTailLossRecovered(t *testing.T) {
	// Force heavy loss so the final packets need stall-driven recovery.
	ch := channel.Defaults()
	ch.GoodLoss = 0.3
	eng, nw := testNet(t, 4, ch, 11)
	cfg := Defaults(1, 0, 3)
	cfg.TotalPackets = 40
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(2500 * sim.Second)
	if !conn.Receiver.Done() {
		t.Fatalf("transfer with tail loss never completed: %d/40",
			conn.Receiver.stats.UniqueReceived)
	}
}

func TestReceiverForgivenessAccounting(t *testing.T) {
	ch := channel.Defaults()
	eng, nw := testNet(t, 6, ch, 12)
	cfg := Defaults(1, 0, 5)
	cfg.TotalPackets = 100
	cfg.LossTolerance = 0.15
	conn := Dial(nw, cfg)
	conn.Start()
	eng.RunFor(1500 * sim.Second)
	rs := conn.Receiver.stats
	if rs.Forgiven > 15 {
		t.Fatalf("forgave %d misses, allowance is 15", rs.Forgiven)
	}
	if !rs.Completed {
		t.Fatalf("jtp15 incomplete: %d delivered, %d forgiven", rs.UniqueReceived, rs.Forgiven)
	}
}

// TestLostFinalAckStillCloses reproduces the completion handshake gap:
// the receiver finishes, its final ACK is lost, and the connection must
// still close via the sender's timeout probe and the receiver's
// duplicate-triggered final-ACK retransmission.
func TestLostFinalAckStillCloses(t *testing.T) {
	// A very lossy channel makes final-ACK loss likely across seeds; the
	// assertion is simply that every seed closes both ends.
	ch := channel.Defaults()
	ch.GoodLoss = 0.25
	for seed := int64(0); seed < 8; seed++ {
		eng, nw := testNet(t, 4, ch, 100+seed)
		cfg := Defaults(1, 0, 3)
		cfg.TotalPackets = 30
		conn := Dial(nw, cfg)
		conn.Start()
		eng.RunFor(4000 * sim.Second)
		if !conn.Receiver.Done() {
			t.Fatalf("seed %d: receiver never completed", seed)
		}
		if !conn.Sender.Done() {
			t.Fatalf("seed %d: sender never learned of completion (final-ACK handshake broken)", seed)
		}
	}
}

func TestStrings(t *testing.T) {
	_, nw := testNet(t, 3, cleanChannel(), 13)
	cfg := Defaults(1, 0, 2)
	c := Dial(nw, cfg)
	if c.Sender.String() == "" || c.Receiver.String() == "" {
		t.Fatal("String() empty")
	}
	if c.Sender.cfg.Flow != 1 || c.Receiver.cfg.Flow != 1 {
		t.Fatal("config accessor")
	}
}

// dataPkt is an unstamped DATA packet for driving a receiver directly.
func dataPkt(seq uint32) *packet.Packet {
	return &packet.Packet{Type: packet.Data, Src: 0, Dst: 2, Flow: 1, Seq: seq,
		AvailRate: packet.InitialAvailRate, PayloadLen: 10}
}

// TestForgivenThenLateCountsOnce pins the loss-tolerance hazard of the
// receiver's sequence bookkeeping: a sequence forgiven below the
// cumulative point that arrives late is a unique delivery, and a second
// copy of it is a duplicate.
func TestForgivenThenLateCountsOnce(t *testing.T) {
	_, nw := testNet(t, 3, cleanChannel(), 14)
	cfg := Defaults(1, 0, 2)
	cfg.LossTolerance = 0.5
	r := NewReceiver(nw, cfg)
	r.Start()
	defer r.Stop()
	for _, seq := range []uint32{0, 1, 5} {
		r.Deliver(dataPkt(seq), 1)
	}
	r.sendFeedback(false) // allowance int(0.5·6) = 3 forgives 2, 3, 4
	if rs := r.stats; rs.Forgiven != 3 {
		t.Fatalf("forgave %d, want 3", rs.Forgiven)
	}
	steps := []struct {
		seq         uint32
		unique, dup uint64
	}{
		{3, 4, 0}, // forgiven, then late: unique
		{3, 4, 1}, // its second copy: duplicate
		{1, 4, 2}, // received below the cumulative point: duplicate
		{4, 5, 2}, // another forgiven sequence arriving late
		{6, 6, 2}, // next in order
		{2, 7, 2}, // the last forgiven one
		{2, 7, 3},
	}
	for _, st := range steps {
		r.Deliver(dataPkt(st.seq), 1)
		if rs := r.stats; rs.UniqueReceived != st.unique || rs.Duplicates != st.dup {
			t.Fatalf("after seq %d: unique %d dup %d, want %d and %d",
				st.seq, rs.UniqueReceived, rs.Duplicates, st.unique, st.dup)
		}
	}
}

// TestSenderQueuesSnackedTail pins that the JTP source queues every
// SNACKed sequence at or above its cumulative ACK, including a stalled
// receiver's tail requests beyond nextSeq (sent as retransmissions). The
// ATP source refuses those (atp.TestSenderRefusesUnsentTail).
func TestSenderQueuesSnackedTail(t *testing.T) {
	eng, nw := testNet(t, 3, cleanChannel(), 15)
	cfg := Defaults(1, 0, 2)
	cfg.TotalPackets = 100
	s := NewSender(nw, cfg)
	s.Start()
	defer s.Stop()
	eng.RunFor(3500 * sim.Millisecond)
	next := s.NextSeq
	if next < 3 {
		t.Fatalf("only %d packets out", next)
	}
	s.Deliver(&packet.Packet{Type: packet.Ack, Src: 2, Dst: 0, Flow: 1, Ack: &packet.AckInfo{
		CumAck: 0, Rate: cfg.InitialRate,
		Snack: []packet.SeqRange{{First: 1, Last: 1}, {First: next + 5, Last: next + 7}},
	}}, 1)
	eng.RunFor(10 * sim.Second)
	if rtx := s.stats.Retransmissions; rtx != 4 {
		t.Fatalf("%d source retransmissions, want 4 (seq 1 and the three-packet tail)", rtx)
	}
}

// TestCompletionAckCarriesNoSnack pins §3's "neither overachieving nor
// underachieving" at the end of a transfer: once the needed packet count
// arrived, the final ACK (and any repeat of it) requests nothing, even
// when misses below the highest arrival are left that the loss tolerance
// can no longer cover. A SNACK there would make in-network caches serve
// a receiver that is already done.
func TestCompletionAckCarriesNoSnack(t *testing.T) {
	eng, nw := testNet(t, 3, cleanChannel(), 16)
	cfg := Defaults(1, 0, 2)
	cfg.TotalPackets = 10
	cfg.LossTolerance = 0.2 // allowance 2, 8 packets needed
	r := NewReceiver(nw, cfg)
	r.Start()
	defer r.Stop()
	for _, seq := range []uint32{0, 1, 3} {
		r.Deliver(dataPkt(seq), 1)
	}
	r.sendFeedback(false) // forgives 2
	for _, seq := range []uint32{2, 4, 5, 8} {
		r.Deliver(dataPkt(seq), 1) // 2 arrives late; 6 and 7 never do
	}
	before := r.stats
	if before.Forgiven != 1 || before.Completed {
		t.Fatalf("set-up: forgiven %d, completed %v", before.Forgiven, before.Completed)
	}
	r.Deliver(dataPkt(9), 1) // the eighth unique packet completes the transfer
	if rs := r.stats; !rs.Completed || rs.SnackRequested != before.SnackRequested {
		t.Fatalf("completion ACK requested %d packets (completed %v), want none",
			rs.SnackRequested-before.SnackRequested, rs.Completed)
	}
	eng.RunFor(sim.DurationOf(cfg.SnackRetry + cfg.MinFeedbackGap))
	r.Deliver(dataPkt(5), 1) // a duplicate re-sends the final ACK
	if rs := r.stats; rs.AcksSent != before.AcksSent+2 || rs.SnackRequested != before.SnackRequested {
		t.Fatalf("%d ACKs after completion requested %d packets, want 2 ACKs requesting none",
			rs.AcksSent-before.AcksSent, rs.SnackRequested-before.SnackRequested)
	}
}
