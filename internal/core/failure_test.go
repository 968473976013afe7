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
	"github.com/javelen/jtp/internal/transport"
)

// gridNet builds a 3x3 grid with periodic routing refresh so failures
// can be routed around, with iJTP installed.
func gridNet(t *testing.T, seed int64) (*sim.Engine, *node.Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := node.New(eng, node.Config{
		Topo:    topology.GridN(9, 75),
		Channel: cleanChannel(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(), // periodic refresh notices failures
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

// TestTransferSurvivesNodeFailure kills a mid-path node mid-transfer;
// the link-state views reroute and the transfer still completes — the
// §2 "intermediate node failure" case that keeps occasional end-to-end
// retransmissions necessary.
func TestTransferSurvivesNodeFailure(t *testing.T) {
	eng, nw := gridNet(t, 1)
	// Grid ids: 0 1 2 / 3 4 5 / 6 7 8. Flow corner to corner.
	cfg := Defaults(1, 0, 8)
	cfg.TotalPackets = 200
	conn := Dial(nw, cfg)
	conn.Start()

	// Fail the center node (the likely relay) mid-transfer.
	eng.Schedule(30*sim.Second, func() { nw.SetDown(4, true) })

	eng.RunFor(1000 * sim.Second)
	if !conn.Done() {
		rs := conn.Receiver.stats
		t.Fatalf("transfer did not survive node failure: %d/200 delivered, cum-done=%v",
			rs.UniqueReceived, rs.Completed)
	}
	if nw.TransmitsAllowed(4) {
		t.Fatal("failure flag lost")
	}
	// The failed node must have stopped participating.
	failedEnergyAt := nw.Node(4).Meter.Total()
	eng.RunFor(100 * sim.Second)
	if nw.Node(4).Meter.Total() != failedEnergyAt {
		t.Fatal("failed node kept consuming energy")
	}
}

// TestFailureForcesReroute verifies the routing layer actually moves the
// path off the failed node.
func TestFailureForcesReroute(t *testing.T) {
	eng, nw := gridNet(t, 2)
	r0 := nw.Node(0).Router
	// Initial route 0->8 goes through 1 or 3 (BFS tie-break: 1).
	nh, ok := r0.NextHop(8)
	if !ok {
		t.Fatal("no initial route")
	}
	nw.SetDown(nh, true)
	eng.RunFor(5 * sim.Second) // > routing refresh period
	nh2, ok := r0.NextHop(8)
	if !ok {
		t.Fatal("no route after failure")
	}
	if nh2 == nh {
		t.Fatalf("route still uses failed node %v", nh)
	}
	if h := r0.HopsTo(8); h != 4 {
		t.Fatalf("grid corner-to-corner should remain 4 hops, got %d", h)
	}
}

// TestPartitionStallsThenRecovers fails the only bridge in a chain; the
// transfer stalls, then completes after the node revives.
func TestPartitionStallsThenRecovers(t *testing.T) {
	eng := sim.NewEngine(3)
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(4, 80),
		Channel: cleanChannel(),
		MAC:     mac.Defaults(),
		Routing: routing.Defaults(),
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
	cfg := Defaults(1, 0, 3)
	cfg.TotalPackets = 150
	conn := Dial(nw, cfg)
	conn.Start()

	eng.Schedule(20*sim.Second, func() { nw.SetDown(1, true) })
	eng.RunFor(200 * sim.Second)
	if conn.Done() {
		t.Fatal("transfer completed across a partition")
	}
	delivered := conn.Receiver.stats.UniqueReceived

	nw.SetDown(1, false)
	eng.RunFor(2000 * sim.Second)
	if !conn.Done() {
		t.Fatalf("transfer did not recover after revival: %d then %d/150",
			delivered, conn.Receiver.stats.UniqueReceived)
	}
}

// TestChannelDefaultsUsedByFailureTests pins the helper we rely on.
func TestChannelDefaultsUsedByFailureTests(t *testing.T) {
	c := cleanChannel()
	if !c.Static || c.GoodLoss != 0 {
		t.Fatal("cleanChannel must be lossless and static")
	}
	if channel.Defaults().BadLoss <= channel.Defaults().GoodLoss {
		t.Fatal("default channel must have a worse bad state")
	}
}

// TestOpenFlowRateOverrides checks that a flow's InitialRate and MaxRate
// reach the connection's config through the driver, and that a zero
// leaves the Table 1 default: FlowSpec is how a scenario sets a flow's
// rates.
func TestOpenFlowRateOverrides(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := node.New(eng, node.Config{
		Topo:    topology.Linear(4, 80),
		Channel: cleanChannel(),
		MAC:     mac.Defaults(),
		Energy:  energy.JAVeLEN(),
	})
	drv, err := transport.New("jtp")
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Attach(nw, transport.NetConfig{}); err != nil {
		t.Fatal(err)
	}
	def := Defaults(1, 0, 3)
	for _, c := range []struct {
		name              string
		initial, max      float64
		wantInit, wantMax float64
	}{
		{"defaults", 0, 0, def.InitialRate, def.MaxRate},
		{"both", 1.6, 1.6, 1.6, 1.6},
		{"max only", 0, 1.6, def.InitialRate, 1.6},
	} {
		fl, err := drv.OpenFlow(transport.FlowSpec{Flow: 1, Src: 0, Dst: 3, InitialRate: c.initial, MaxRate: c.max})
		if err != nil {
			t.Fatal(err)
		}
		r := fl.(*Connection).Receiver
		if r.cfg.InitialRate != c.wantInit || r.cfg.MaxRate != c.wantMax || r.Rate() != c.wantInit {
			t.Errorf("%s: initial %v, max %v, rate %v; want %v, %v, %v", c.name,
				r.cfg.InitialRate, r.cfg.MaxRate, r.Rate(), c.wantInit, c.wantMax, c.wantInit)
		}
	}
}
