package node

import (
	"testing"

	"github.com/javelen/jtp/internal/channel"
	"github.com/javelen/jtp/internal/energy"
	"github.com/javelen/jtp/internal/mac"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/routing"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/topology"
	"github.com/javelen/jtp/internal/trace"
)

// perfectChannel removes stochastic loss so forwarding tests are exact.
func perfectChannel() channel.Config {
	c := channel.Defaults()
	c.GoodLoss = 0
	c.Static = true
	return c
}

func buildNet(t *testing.T, n int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.Linear(n, 80),
		Channel: perfectChannel(),
		MAC:     mac.Defaults(),
		Routing: routing.Config{},
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	return eng, nw
}

// sink records deliveries.
type sink struct {
	got  []mac.Segment
	from []packet.NodeID
}

func (s *sink) Deliver(seg mac.Segment, from packet.NodeID) {
	s.got = append(s.got, seg)
	s.from = append(s.from, from)
}

func dataSeg(src, dst packet.NodeID, flow packet.FlowID, seq uint32) *packet.Packet {
	return &packet.Packet{
		Type: packet.Data, Src: src, Dst: dst, Flow: flow, Seq: seq,
		AvailRate: packet.InitialAvailRate, PayloadLen: 100,
	}
}

func TestMultiHopForwardingAndDelivery(t *testing.T) {
	eng, nw := buildNet(t, 5)
	var s sink
	nw.Bind(4, 1, &s)
	if !nw.SendFrom(0, dataSeg(0, 4, 1, 0)) {
		t.Fatal("send failed")
	}
	eng.RunFor(30 * sim.Second)
	if len(s.got) != 1 {
		t.Fatalf("delivered %d segments", len(s.got))
	}
	if s.from[0] != 3 {
		t.Fatalf("last hop = %v, want 3", s.from[0])
	}
	// The loop-backstop counter increments once per forwarding decision:
	// 3 intermediate nodes on a 4-link path, so the next is the 4th.
	p := s.got[0].(*packet.Packet)
	if n := p.AddHop(); n != 4 {
		t.Fatalf("forward count = %d, want 3", n-1)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	_, nw := buildNet(t, 3)
	var s sink
	nw.Bind(1, 2, &s)
	nw.SendFrom(1, dataSeg(1, 1, 2, 0))
	if len(s.got) != 1 {
		t.Fatal("loopback not delivered immediately")
	}
}

func TestNoEndpointCounted(t *testing.T) {
	eng, nw := buildNet(t, 3)
	nw.SendFrom(0, dataSeg(0, 2, 5, 0)) // nothing bound at node 2 flow 5
	eng.RunFor(10 * sim.Second)
	if c := nw.Counters(); c.NoEndpoint != 1 {
		t.Fatalf("noEndpoint = %d", c.NoEndpoint)
	}
}

func TestUnbindStopsDelivery(t *testing.T) {
	eng, nw := buildNet(t, 3)
	var s sink
	nw.Bind(2, 1, &s)
	nw.Unbind(2, 1)
	nw.SendFrom(0, dataSeg(0, 2, 1, 0))
	eng.RunFor(10 * sim.Second)
	if len(s.got) != 0 {
		t.Fatal("delivered after unbind")
	}
}

func TestNoRouteCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	// Two isolated islands: spacing beyond range.
	nw := New(eng, Config{
		Topo:    topology.Linear(2, 500),
		Channel: perfectChannel(),
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Start()
	if nw.SendFrom(0, dataSeg(0, 1, 1, 0)) {
		t.Fatal("send should fail with no route")
	}
	if c := nw.Counters(); c.NoRoute != 1 {
		t.Fatalf("noRoute = %d", c.NoRoute)
	}
}

func TestEnergyMetered(t *testing.T) {
	eng, nw := buildNet(t, 4)
	var s sink
	nw.Bind(3, 1, &s)
	nw.SendFrom(0, dataSeg(0, 3, 1, 0))
	eng.RunFor(20 * sim.Second)
	if nw.TotalEnergy() <= 0 {
		t.Fatal("no energy charged for a multi-hop delivery")
	}
	per := nw.PerNodeEnergy()
	// Every node on the path participates: 0,1,2 transmit; 1,2,3 receive.
	for i, e := range per {
		if e <= 0 {
			t.Fatalf("node %d metered zero", i)
		}
	}
	nw.ResetMeters()
	if nw.TotalEnergy() != 0 {
		t.Fatal("ResetMeters incomplete")
	}
}

func TestSendFromFrontPriority(t *testing.T) {
	eng, nw := buildNet(t, 3)
	var s sink
	nw.Bind(2, 1, &s)
	// Fill the source queue, then jump one segment to the front.
	for i := uint32(0); i < 5; i++ {
		nw.SendFrom(0, dataSeg(0, 2, 1, i))
	}
	urgent := dataSeg(0, 2, 1, 99)
	nw.SendFromFront(0, urgent)
	eng.RunFor(30 * sim.Second)
	if len(s.got) != 6 {
		t.Fatalf("delivered %d", len(s.got))
	}
	if s.got[0].(*packet.Packet).Seq != 99 {
		t.Fatalf("priority segment arrived %d-th", 1)
	}
}

func TestTTLBackstop(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, Config{
		Topo:    topology.Linear(3, 80),
		Channel: perfectChannel(),
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
		MaxHops: 8,
	})
	nw.Start()
	// A segment whose destination does not exist in any endpoint but is
	// routable cannot loop on a chain; instead test the counter directly
	// by sending a pre-aged segment.
	seg := dataSeg(0, 2, 1, 0)
	for i := 0; i < 8; i++ {
		seg.AddHop()
	}
	nw.SendFrom(0, seg)
	eng.RunFor(20 * sim.Second)
	if c := nw.Counters(); c.TTLDrops != 1 {
		t.Fatalf("ttlDrops = %d", c.TTLDrops)
	}
}

// TestTracerObservesMACDrops pins the MAC drop wiring: a frame that
// exhausts its retries reaches the network's tracer with its reason.
func TestTracerObservesMACDrops(t *testing.T) {
	eng := sim.NewEngine(2)
	cfg := channel.Defaults()
	cfg.GoodLoss = 1.0 // every transmission fails
	cfg.Static = true
	nw := New(eng, Config{
		Topo:    topology.Linear(2, 80),
		Channel: cfg,
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	nw.Tracer = trace.New(64)
	nw.Start()
	nw.SendFrom(0, dataSeg(0, 1, 1, 0))
	eng.RunFor(10 * sim.Second)
	var drops int
	for _, e := range nw.Tracer.Events() {
		if e.Kind == trace.Drop && e.Node == 0 && e.Detail == mac.DropRetries.String() {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("tracer saw %d retry drops", drops)
	}
}

func TestStringAndAccessors(t *testing.T) {
	_, nw := buildNet(t, 3)
	if nw.String() == "" || nw.N() != 3 {
		t.Fatal("accessors broken")
	}
	if nw.Node(1).ID != 1 {
		t.Fatal("node accessor")
	}
	if len(nw.Nodes()) != 3 {
		t.Fatal("nodes accessor")
	}
	if nw.Scheduler() == nil || nw.Channel() == nil || nw.Topology() == nil || nw.Engine() == nil {
		t.Fatal("nil subsystem accessor")
	}
}

func TestEnergyBudgetKillsNode(t *testing.T) {
	eng := sim.NewEngine(1)
	// Give relay 1 a budget of a few packet events; nodes 0 and 2 are
	// unconstrained (budget 0 = unlimited).
	budget := 0.01
	nw := New(eng, Config{
		Topo:    topology.Linear(3, 80),
		Channel: perfectChannel(),
		MAC:     mac.Defaults(),
		Routing: routing.Config{},
		Energy:  energy.JAVeLEN(),
		Budgets: []float64{0, budget, 0},
	})
	nw.Start()
	var s sink
	nw.Bind(2, 1, &s)
	for seq := uint32(0); seq < 200; seq++ {
		nw.SendFrom(0, dataSeg(0, 2, 1, seq))
	}
	eng.RunFor(120 * sim.Second)

	if !nw.BudgetExhausted(1) {
		t.Fatalf("relay spent %g J of a %g J budget without exhausting", nw.PerNodeEnergy()[1], budget)
	}
	if got := nw.PerNodeEnergy()[1]; got > budget {
		t.Fatalf("relay spent %g J, over its %g J budget", got, budget)
	}
	if nw.ExhaustedNodes() != 1 {
		t.Fatalf("ExhaustedNodes = %d, want 1", nw.ExhaustedNodes())
	}
	// A dead relay has no links and transmits nothing.
	if nw.Linked(0, 1) || nw.TransmitsAllowed(1) {
		t.Fatal("battery-dead node still participates")
	}
	// Unconstrained nodes never exhaust.
	if nw.BudgetExhausted(0) || nw.BudgetExhausted(2) {
		t.Fatal("unlimited-budget node reported exhausted")
	}
	if len(nw.Budgets()) != 3 {
		t.Fatalf("Budgets() = %v", nw.Budgets())
	}
}

func TestBudgetsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Budgets length did not panic")
		}
	}()
	New(sim.NewEngine(1), Config{
		Topo:    topology.Linear(3, 80),
		Channel: perfectChannel(),
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
		Budgets: []float64{1},
	})
}
