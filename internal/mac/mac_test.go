package mac

import (
	"math/rand"
	"testing"

	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
)

// stubSeg is a minimal transport segment for MAC tests.
type stubSeg struct {
	size int
	dst  packet.NodeID
}

func (s *stubSeg) Size() int           { return s.size }
func (s *stubSeg) Dest() packet.NodeID { return s.dst }

// stubEnv controls loss deterministically and records deliveries.
type stubEnv struct {
	failNext  int // next N transmissions fail
	unreached map[packet.NodeID]bool
	// delivered stores frame copies: the MAC recycles the *Frame as soon
	// as DeliverUp returns (see Env), so retaining pointers is invalid.
	delivered []Frame
	macs      map[packet.NodeID]*MAC
}

func newStubEnv() *stubEnv {
	return &stubEnv{unreached: map[packet.NodeID]bool{}, macs: map[packet.NodeID]*MAC{}}
}

func (e *stubEnv) TransmitOK(from, to packet.NodeID) bool {
	if e.failNext > 0 {
		e.failNext--
		return false
	}
	return true
}

func (e *stubEnv) Reachable(from, to packet.NodeID) bool { return !e.unreached[to] }

func (e *stubEnv) TransmitsAllowed(packet.NodeID) bool { return true }

func (e *stubEnv) DeliverUp(at packet.NodeID, fr *Frame) {
	e.delivered = append(e.delivered, *fr)
	if m := e.macs[at]; m != nil {
		m.Receive(fr)
	}
}

func build(t *testing.T) (*sim.Engine, *stubEnv, *MAC, *MAC) {
	t.Helper()
	eng := sim.NewEngine(1)
	env := newStubEnv()
	model := energy.JAVeLEN()
	var m0mt, m1mt energy.Meter
	m0 := New(eng, 0, Defaults(), model, &m0mt, env)
	m1 := New(eng, 1, Defaults(), model, &m1mt, env)
	env.macs[0], env.macs[1] = m0, m1
	return eng, env, m0, m1
}

func TestEnqueueAndDeliver(t *testing.T) {
	_, env, m0, _ := build(t)
	seg := &stubSeg{size: 100, dst: 1}
	if !m0.Enqueue(seg, 1) {
		t.Fatal("enqueue failed")
	}
	if m0.qlen != 1 {
		t.Fatal("queue length")
	}
	m0.OwnSlot()
	if len(env.delivered) != 1 {
		t.Fatalf("delivered %d frames", len(env.delivered))
	}
	if env.delivered[0].Seg != seg {
		t.Fatal("wrong segment delivered")
	}
	if m0.qlen != 0 {
		t.Fatal("frame not dequeued after success")
	}
}

func TestRetryThenDrop(t *testing.T) {
	_, env, m0, _ := build(t)
	env.failNext = 100 // everything fails
	var dropped []*Frame
	var reasons []DropReason
	m0.Drops = func(fr *Frame, r DropReason) {
		dropped = append(dropped, fr)
		reasons = append(reasons, r)
	}
	seg := &stubSeg{size: 100, dst: 1}
	m0.Enqueue(seg, 1)
	def := m0.cfg.DefaultAttempts
	for i := 0; i < def; i++ {
		if m0.qlen != 1 {
			t.Fatalf("frame should stay queued until attempts exhaust (i=%d)", i)
		}
		m0.OwnSlot()
	}
	if len(dropped) != 1 || reasons[0] != DropRetries {
		t.Fatalf("dropped=%d reasons=%v", len(dropped), reasons)
	}
	if len(env.delivered) != 0 {
		t.Fatal("failed frame delivered")
	}
}

func TestPluginControlsAttempts(t *testing.T) {
	_, env, m0, _ := build(t)
	env.failNext = 3
	m0.AddPlugin(pluginFunc{pre: func(fr *Frame, link LinkInfo) Verdict {
		if link.FirstAttempt {
			fr.MaxAttempts = 4
		}
		return Continue
	}})
	m0.Enqueue(&stubSeg{size: 100, dst: 1}, 1)
	for i := 0; i < 4; i++ {
		m0.OwnSlot()
	}
	if len(env.delivered) != 1 {
		t.Fatalf("4th attempt should succeed after 3 failures, delivered=%d", len(env.delivered))
	}
}

type pluginFunc struct {
	pre func(*Frame, LinkInfo) Verdict
}

func (p pluginFunc) PreXmit(fr *Frame, l LinkInfo) Verdict {
	if p.pre == nil {
		return Continue
	}
	return p.pre(fr, l)
}
func (p pluginFunc) PostRcv(*Frame) {}

func TestPluginVeto(t *testing.T) {
	_, env, m0, _ := build(t)
	var dropped []DropReason
	m0.Drops = func(_ *Frame, r DropReason) { dropped = append(dropped, r) }
	m0.AddPlugin(pluginFunc{pre: func(*Frame, LinkInfo) Verdict { return Drop }})
	m0.Enqueue(&stubSeg{size: 100, dst: 1}, 1)
	m0.OwnSlot()
	if len(env.delivered) != 0 {
		t.Fatal("vetoed frame transmitted")
	}
	if len(dropped) != 1 || dropped[0] != DropPlugin {
		t.Fatalf("drop reasons: %v", dropped)
	}
	// A vetoed frame consumes no transmit energy.
	if c := m0.Counters(); c.TxAttempts != 0 || c.PluginDrops != 1 {
		t.Fatalf("txAttempts=%d pluginDrops=%d", c.TxAttempts, c.PluginDrops)
	}
}

func TestQueueOverflow(t *testing.T) {
	eng := sim.NewEngine(1)
	env := newStubEnv()
	cfg := Defaults()
	cfg.QueueCap = 2
	var mt energy.Meter
	m := New(eng, 0, cfg, energy.JAVeLEN(), &mt, env)
	if !m.Enqueue(&stubSeg{size: 1, dst: 1}, 1) || !m.Enqueue(&stubSeg{size: 1, dst: 1}, 1) {
		t.Fatal("first two enqueues should fit")
	}
	if m.Enqueue(&stubSeg{size: 1, dst: 1}, 1) {
		t.Fatal("third enqueue should overflow")
	}
	if m.Counters().QueueDrops != 1 {
		t.Fatalf("queue drops = %d", m.Counters().QueueDrops)
	}
}

func TestEnqueueFrontOrdering(t *testing.T) {
	_, env, m0, _ := build(t)
	a := &stubSeg{size: 1, dst: 1}
	b := &stubSeg{size: 2, dst: 1}
	m0.Enqueue(a, 1)
	m0.EnqueueFront(b, 1)
	m0.OwnSlot()
	if env.delivered[0].Seg != b {
		t.Fatal("EnqueueFront did not jump the queue")
	}
}

func TestIdleSlotRaisesAvailRate(t *testing.T) {
	eng := sim.NewEngine(1)
	env := newStubEnv()
	var mt energy.Meter
	m := New(eng, 0, Defaults(), energy.JAVeLEN(), &mt, env)
	macs := []*MAC{m}
	NewScheduler(eng, Defaults().SlotDuration, macs) // sets ownSlotRate
	base := m.AvailableRate()
	if base <= 0 {
		t.Fatal("initial available rate should be positive")
	}
	// Busy slots must push the estimate down.
	for i := 0; i < 100; i++ {
		m.Enqueue(&stubSeg{size: 1, dst: 1}, 1)
		m.OwnSlot()
	}
	if m.AvailableRate() >= base/2 {
		t.Fatalf("busy MAC still advertises %.2f of %.2f", m.AvailableRate(), base)
	}
	// Idle slots recover it.
	for i := 0; i < 500; i++ {
		m.OwnSlot()
	}
	if m.AvailableRate() < base*0.8 {
		t.Fatalf("idle MAC did not recover: %.2f of %.2f", m.AvailableRate(), base)
	}
}

func TestLossEstimatorTracks(t *testing.T) {
	_, env, m0, _ := build(t)
	prime := m0.link(1).loss.Value()
	if prime != primeLoss {
		t.Fatalf("primed loss = %v", prime)
	}
	// 50% failures.
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			env.failNext = 1
		}
		m0.Enqueue(&stubSeg{size: 1, dst: 1}, 1)
		for m0.qlen > 0 {
			m0.OwnSlot()
		}
	}
	got := m0.link(1).loss.Value()
	if got < 0.3 || got > 0.7 {
		t.Fatalf("loss estimate %.3f after 50%% failures", got)
	}
}

func TestUnreachableNextHop(t *testing.T) {
	_, env, m0, _ := build(t)
	env.unreached[1] = true
	var drops int
	m0.Drops = func(*Frame, DropReason) { drops++ }
	m0.Enqueue(&stubSeg{size: 1, dst: 1}, 1)
	for i := 0; i < Defaults().DefaultAttempts; i++ {
		m0.OwnSlot()
	}
	if drops != 1 {
		t.Fatalf("unreachable hop should exhaust attempts and drop, drops=%d", drops)
	}
}

func TestEnergyCharging(t *testing.T) {
	eng := sim.NewEngine(1)
	env := newStubEnv()
	model := energy.JAVeLEN()
	var senderMeter, rcvrMeter energy.Meter
	m0 := New(eng, 0, Defaults(), model, &senderMeter, env)
	m1 := New(eng, 1, Defaults(), model, &rcvrMeter, env)
	env.macs[0], env.macs[1] = m0, m1
	size := 800
	m0.Enqueue(&stubSeg{size: size, dst: 1}, 1)
	m0.OwnSlot()
	if senderMeter.Total() != model.TxCost(size) {
		t.Fatalf("sender charged %v, want %v", senderMeter.Total(), model.TxCost(size))
	}
	if rcvrMeter.Total() != model.RxCost(size) {
		t.Fatalf("receiver charged %v, want %v", rcvrMeter.Total(), model.RxCost(size))
	}
}

func TestSchedulerRoundRobinFairness(t *testing.T) {
	eng := sim.NewEngine(3)
	env := newStubEnv()
	model := energy.JAVeLEN()
	var macs []*MAC
	slotCounts := make([]int, 4)
	for i := 0; i < 4; i++ {
		var mt energy.Meter
		m := New(eng, packet.NodeID(i), Defaults(), model, &mt, env)
		idx := i
		// Count owned slots via a plugin on a never-empty queue.
		m.AddPlugin(pluginFunc{pre: func(fr *Frame, _ LinkInfo) Verdict {
			slotCounts[idx]++
			return Drop // don't actually transmit
		}})
		for j := 0; j < 10000; j++ {
			if !m.Enqueue(&stubSeg{size: 1, dst: 1}, 1) {
				break
			}
		}
		macs = append(macs, m)
	}
	sched := NewScheduler(eng, Defaults().SlotDuration, macs)
	sched.Start()
	eng.RunFor(40 * sim.Second) // 1600 slots / 4 nodes = 400 each
	for i, c := range slotCounts {
		if c < 10 {
			t.Fatalf("node %d starved: %d slots", i, c)
		}
	}
	// Every frame period gives each node exactly one slot.
	max, min := 0, 1<<30
	for _, c := range slotCounts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max-min > 1 {
		t.Fatalf("TDMA unfair: slot counts %v", slotCounts)
	}
}

func TestSchedulerSlotRate(t *testing.T) {
	eng := sim.NewEngine(1)
	env := newStubEnv()
	var macs []*MAC
	for i := 0; i < 8; i++ {
		var mt energy.Meter
		macs = append(macs, New(eng, packet.NodeID(i), Defaults(), energy.JAVeLEN(), &mt, env))
	}
	s := NewScheduler(eng, 25*sim.Millisecond, macs)
	want := 1.0 / (0.025 * 8)
	if r := macs[0].ownSlotRate; r != want {
		t.Fatalf("per-node slot rate %v, want %v", r, want)
	}
	s.Start()
	eng.RunFor(10 * sim.Second)
	if s.Slots() != 400 {
		t.Fatalf("slots after 10s at 40/s = %d", s.Slots())
	}
}

func TestDropReasonStrings(t *testing.T) {
	for _, r := range []DropReason{DropRetries, DropQueue, DropPlugin, DropNoRoute} {
		if r.String() == "" {
			t.Fatal("empty drop reason name")
		}
	}
}

func TestAvgAttemptsNormalization(t *testing.T) {
	eng, env, m0, m1 := build(t)
	NewScheduler(eng, Defaults().SlotDuration, []*MAC{m0, m1}) // sets slot rates
	// Force every frame to need 3 attempts (fail 2, succeed 1).
	m0.AddPlugin(pluginFunc{pre: func(fr *Frame, link LinkInfo) Verdict {
		if link.FirstAttempt {
			fr.MaxAttempts = 5
		}
		return Continue
	}})
	for i := 0; i < 200; i++ {
		env.failNext = 2
		m0.Enqueue(&stubSeg{size: 1, dst: 1}, 1)
		for m0.qlen > 0 {
			m0.OwnSlot()
		}
	}
	if a := m0.AvgAttempts(); a < 2.5 || a > 3.2 {
		t.Fatalf("avg attempts %.2f, want ≈3", a)
	}
	if m0.EffectiveAvailRate() >= m0.AvailableRate() {
		t.Fatal("effective rate must be normalized down by attempts")
	}
}

// TestRingQueueWrapAndFrontOrdering exercises the ring buffer across many
// wraps, with EnqueueFront jumping the line each round.
func TestRingQueueWrapAndFrontOrdering(t *testing.T) {
	_, env, m0, _ := build(t)
	next := byte(0)
	for round := 0; round < 200; round++ {
		a := &stubSeg{size: 10, dst: 1}
		b := &stubSeg{size: 20, dst: 1}
		c := &stubSeg{size: 30, dst: 1}
		m0.Enqueue(a, 1)
		m0.Enqueue(c, 1)
		m0.EnqueueFront(b, 1)
		// Expected service order: b (front), a, c.
		for i := 0; i < 3; i++ {
			m0.OwnSlot()
		}
		if len(env.delivered) != int(next)+3 {
			t.Fatalf("round %d: delivered %d", round, len(env.delivered))
		}
		got := env.delivered[next:]
		if got[0].Seg != b || got[1].Seg != a || got[2].Seg != c {
			t.Fatalf("round %d: wrong order: %v %v %v", round, got[0].Seg, got[1].Seg, got[2].Seg)
		}
		next += 3
		if next > 180 {
			env.delivered = env.delivered[:0]
			next = 0
		}
	}
	if m0.qlen != 0 {
		t.Fatalf("queue not drained: %d", m0.qlen)
	}
}

// TestRingQueueGrowsInOrder drives the lazily grown ring against a
// slice model: random enqueues at either end and transmissions keep the
// head mid-ring as the ring doubles from 8 to QueueCap, and every frame
// must leave in model order, with overflow dropped at QueueCap.
func TestRingQueueGrowsInOrder(t *testing.T) {
	_, env, m0, _ := build(t)
	if m0.queue != nil {
		t.Fatal("New allocated the queue before the first enqueue")
	}
	rng := rand.New(rand.NewSource(3))
	var model []Segment
	drops := uint64(0)
	for step := 0; step < 5000; step++ {
		seg := &stubSeg{size: step, dst: 1}
		switch r := rng.Intn(10); {
		case r < 4:
			if m0.Enqueue(seg, 1) {
				model = append(model, seg)
			} else {
				drops++
			}
		case r < 6:
			if m0.EnqueueFront(seg, 1) {
				model = append([]Segment{seg}, model...)
			} else {
				drops++
			}
		default:
			m0.OwnSlot()
			if len(model) > 0 {
				if got := env.delivered[len(env.delivered)-1].Seg; got != model[0] {
					t.Fatalf("step %d: sent %v, want %v", step, got, model[0])
				}
				model = model[1:]
			}
		}
		if m0.qlen != len(model) || len(m0.queue) > m0.cfg.QueueCap {
			t.Fatalf("step %d: %d queued in a ring of %d, model holds %d", step, m0.qlen, len(m0.queue), len(model))
		}
	}
	if len(m0.queue) != m0.cfg.QueueCap || drops == 0 || m0.Counters().QueueDrops != drops {
		t.Fatalf("ring %d of %d, %d drops counted of %d: the queue never filled", len(m0.queue), m0.cfg.QueueCap, m0.Counters().QueueDrops, drops)
	}
}

// TestAllocsOwnSlot guards the per-slot MAC hot path: once frames and
// link stats are warm, an enqueue + transmit + deliver cycle and an idle
// slot must both be allocation-free.
func TestAllocsOwnSlot(t *testing.T) {
	_, _, m0, _ := build(t)
	seg := &stubSeg{size: 100, dst: 1}
	// Warm the frame free-list and link stats.
	m0.Enqueue(seg, 1)
	m0.OwnSlot()
	allocs := testing.AllocsPerRun(1000, func() {
		m0.Enqueue(seg, 1)
		m0.OwnSlot() // transmit + deliver
		m0.OwnSlot() // idle slot
	})
	if allocs != 0 {
		t.Fatalf("MAC slot allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestCounters scripts every path a MAC counts and pins the whole
// Counters struct, then pins that Clear zeroes it.
func TestCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	env := newStubEnv()
	cfg := Defaults()
	cfg.QueueCap, cfg.DefaultAttempts = 2, 3
	var mt0, mt1 energy.Meter
	m0 := New(eng, 0, cfg, energy.JAVeLEN(), &mt0, env)
	m1 := New(eng, 1, Defaults(), energy.JAVeLEN(), &mt1, env)
	env.macs[0], env.macs[1] = m0, m1
	for range 3 { // the third finds the queue full
		m0.Enqueue(&stubSeg{size: 100, dst: 1}, 1)
	}
	env.failNext = 1 // the first frame goes through on its second attempt
	m0.OwnSlot()
	m0.OwnSlot()
	env.failNext = 3 // the second exhausts its three attempts
	for range 3 {
		m0.OwnSlot()
	}
	m0.AddPlugin(pluginFunc{pre: func(*Frame, LinkInfo) Verdict { return Drop }})
	m0.EnqueueFront(&stubSeg{size: 100, dst: 1}, 1)
	m0.OwnSlot()
	want := Counters{
		TxAttempts: 5, TxSuccess: 1, QueueDrops: 1, RetryDrops: 1, PluginDrops: 1,
		Enqueues: 3, Retries: 3, QueueHWM: 2, AttemptsSum: 5, AttemptsMax: 3,
	}
	if got := m0.Counters(); got != want {
		t.Fatalf("sender counters %+v, want %+v", got, want)
	}
	if got := m1.Counters(); got != (Counters{RxFrames: 1}) {
		t.Fatalf("receiver counters %+v, want one frame received", got)
	}
	m0.Clear()
	if got := m0.Counters(); got != (Counters{}) {
		t.Fatalf("cleared counters %+v, want zero", got)
	}
}
