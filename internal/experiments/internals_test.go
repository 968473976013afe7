package experiments

import (
	"math"
	"testing"

	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/sim"
	"github.com/javelen/jtp/internal/stats"
	"github.com/javelen/jtp/internal/topology"
)

func TestPickEndpointsExplicit(t *testing.T) {
	topo := topology.Linear(5, 80)
	eng := sim.NewEngine(1)
	src, dst := pickEndpoints(FlowSpec{Src: 1, Dst: 3}, Scenario{Nodes: 5}, eng, topo, 100)
	if src != 1 || dst != 3 {
		t.Fatalf("explicit endpoints changed: %d->%d", src, dst)
	}
}

func TestPickEndpointsRandomDistinctReachable(t *testing.T) {
	eng := sim.NewEngine(2)
	topo, ok := topology.Random(12, 100, eng.Rand(), 100)
	if !ok {
		t.Fatal("no connected topology")
	}
	for i := 0; i < 50; i++ {
		src, dst := pickEndpoints(FlowSpec{Src: -1, Dst: -1}, Scenario{Nodes: 12}, eng, topo, 100)
		if src == dst {
			t.Fatal("random endpoints identical")
		}
		if topology.HopDistance(topo, 100, packet.NodeID(src), packet.NodeID(dst)) < 1 {
			t.Fatalf("unreachable pair %d->%d", src, dst)
		}
	}
}

func TestRateBin(t *testing.T) {
	s := &stats.Series{}
	// 10 deliveries in [0,10): 1 per second.
	for i := 0; i < 10; i++ {
		s.Add(float64(i), 1)
	}
	binned := rateBin(s, 5)
	if binned.Len() < 2 {
		t.Fatalf("bins: %d", binned.Len())
	}
	if math.Abs(binned.Samples[0].V-1.0) > 0.21 {
		t.Fatalf("first bin rate = %v, want ≈1 pps", binned.Samples[0].V)
	}
	if rateBin(&stats.Series{}, 5).Len() != 0 {
		t.Fatal("empty series should stay empty")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		rec := must(Run(Scenario{
			Name: "det", Proto: JTP, Topo: Linear, Nodes: 5, Seconds: 300, Seed: 11,
			Flows: []FlowSpec{{Src: 0, Dst: 4, StartAt: 10, TotalPackets: 40}},
		}))
		return rec.TotalEnergy, rec.Flows[0].UniqueDelivered
	}
	e1, d1 := run()
	e2, d2 := run()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("same scenario diverged: (%v,%d) vs (%v,%d)", e1, d1, e2, d2)
	}
}

func TestScenarioFlowOverrides(t *testing.T) {
	// InitialRate/MaxRate overrides must reach the JTP config.
	rec := must(Run(Scenario{
		Name: "override", Proto: JTP, Topo: Linear, Nodes: 3, Seconds: 120, Seed: 5,
		Flows: []FlowSpec{{
			Src: 0, Dst: 2, StartAt: 1,
			InitialRate: 4, MaxRate: 4,
		}},
	}))
	f := rec.Flows[0]
	// At 4 pps for ~119 s on a clean-ish path, far more than the default
	// 1 pps start would deliver before the first feedback.
	if f.UniqueDelivered < 250 {
		t.Fatalf("initial-rate override ineffective: %d delivered", f.UniqueDelivered)
	}

	// Every protocol honours both overrides: the first two seconds go
	// out at the initial rate, and no rate the protocol adopts paces
	// faster than the ceiling (one packet per 0.25 s, ends included).
	for _, proto := range []Protocol{JTP, ATP, TCP} {
		b, err := BuildScenario(Scenario{
			Name: "override", Proto: proto, Topo: Linear, Nodes: 3, Seconds: 120, Seed: 5,
			Flows: []FlowSpec{{Src: 0, Dst: 2, StartAt: 1, InitialRate: 4, MaxRate: 4}},
		}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		eng, fl := b.Engine(), b.flows[0]
		for _, secs := range []uint64{2, 120} {
			eng.RunUntil(sim.Time(sim.Duration(1+secs) * sim.Second))
			fr := fl.Stats()
			if sent := fr.DataSent + fr.SourceRetransmissions; sent > 4*secs+1 {
				t.Errorf("%s: %d transmissions in %d s, above the 4 pps ceiling", proto, sent, secs)
			} else if secs == 2 && sent < 7 {
				t.Errorf("%s: %d transmissions in the first 2 s, want ≥ 7 at the 4 pps initial rate", proto, sent)
			}
		}
	}
}

func TestScenarioStopAt(t *testing.T) {
	rec := must(Run(Scenario{
		Name: "stopat", Proto: JTP, Topo: Linear, Nodes: 4, Seconds: 600, Seed: 6,
		Flows: []FlowSpec{{Src: 0, Dst: 3, StartAt: 10, StopAt: 100}},
	}))
	f := rec.Flows[0]
	if f.Reception.Len() == 0 {
		t.Fatal("flow never delivered")
	}
	lastT := f.Reception.Samples[f.Reception.Len()-1].T
	if lastT > 110 {
		t.Fatalf("flow delivered at %.0fs after StopAt=100", lastT)
	}
}

func TestTable2FlowCountScaling(t *testing.T) {
	// 14 nodes × 400 s run / 400 s interarrival ⇒ ~14 transfers.
	rec := must(Run(table2Scenario(JTP, Table2Config{
		Nodes: 14, Seconds: 400, MeanInterarriv: 400, TransferKB: 20,
	}, 9)))
	if len(rec.Flows) != 14 {
		t.Fatalf("flow count = %d, want 14", len(rec.Flows))
	}
}

// TestAllocsIdleChainSecond pins the whole assembled stack at rest: on a
// warm 8-node JTP chain whose flow has not started yet, one virtual
// second — TDMA scheduler ticks, slot ownership, idle accounting,
// routing timers — allocates nothing.
func TestAllocsIdleChainSecond(t *testing.T) {
	b, err := BuildScenario(Scenario{
		Name:    "idle-chain",
		Proto:   JTP,
		Topo:    Linear,
		Nodes:   8,
		Seconds: 3600,
		Seed:    1,
		Flows:   []FlowSpec{{Src: 0, Dst: 7, StartAt: 3000}},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	eng := b.Engine()
	eng.RunUntil(sim.Time(10 * sim.Second)) // warm slabs, frames, link stats
	if allocs := testing.AllocsPerRun(100, func() { eng.RunFor(sim.Second) }); allocs != 0 {
		t.Fatalf("an idle chain second allocates %.1f/op, want 0", allocs)
	}
}

// raceEnabled reports a race-detector build (race_test.go), whose
// sync.Pool drops a random quarter of its Puts.
var raceEnabled bool

// TestAllocsPooledChainRun pins the per-run fixed cost a campaign worker
// pays once its substrate is warm: one hook-free run of a 4-node JTP
// chain moving 20 packets, on the substrate the previous run of its
// shape left, allocates at most 31 times (the flow's endpoints, its
// record, the topology and the run record). It was 185 when every run
// built its network.
func TestAllocsPooledChainRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled substrates at random")
	}
	sc := Scenario{
		Name: "pooled-chain", Proto: JTP, Topo: Linear, Nodes: 4, Seconds: 10, Seed: 1,
		Flows: []FlowSpec{{Src: 0, Dst: 3, StartAt: 1, TotalPackets: 20}},
	}
	for i := 0; i < 3; i++ { // warm the substrate, its free lists and pools
		must(Run(sc))
	}
	const max = 31
	if allocs := testing.AllocsPerRun(100, func() { must(Run(sc)) }); allocs > max {
		t.Fatalf("a pooled chain run allocates %.0f times, want ≤ %d", allocs, max)
	}
}

// TestAllocsWarmFlowSecond pins each transport's steady state: one
// virtual second of a warm, unbounded flow on a 4-node default-channel
// chain allocates no more than it did when the endpoints first shared a
// paced source and a counting sink. Pacing, feedback and segment
// recycling must not add a closure or an interface boxing per packet.
// The ceilings are the integer floor of testing.AllocsPerRun. ATP's
// one comes from segments the lossy channel drops, which no endpoint
// gets back to recycle, and from SNACK lists outgrowing their array.
func TestAllocsWarmFlowSecond(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		max   float64
	}{{JTP, 0}, {ATP, 1}, {TCP, 0}} {
		t.Run(string(tc.proto), func(t *testing.T) {
			b, err := BuildScenario(Scenario{
				Name:    "warm-flow",
				Proto:   tc.proto,
				Topo:    Linear,
				Nodes:   4,
				Seconds: 3600,
				Seed:    1,
				Flows:   []FlowSpec{{Src: 0, Dst: 3, StartAt: 1}},
			}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			eng := b.Engine()
			eng.RunUntil(sim.Time(600 * sim.Second))
			if allocs := testing.AllocsPerRun(100, func() { eng.RunFor(sim.Second) }); allocs > tc.max {
				t.Fatalf("a warm %s flow second allocates %.1f/op, want ≤ %g", tc.proto, allocs, tc.max)
			}
		})
	}
}

// TestFig7FlowRateCaps pins fig7's rate caps near the slow MAC's
// per-node share: the long-lived flow starts and stays at 1.6 packets/s
// at most, and each short flow starts at 1.2 under the same ceiling.
func TestFig7FlowRateCaps(t *testing.T) {
	cfg := Fig7Defaults(0.25)
	sc := fig7Scenario(cfg, 0.1, cfg.Seed)
	if len(sc.Flows) != 1+cfg.ShortFlows {
		t.Fatalf("%d flows, want %d", len(sc.Flows), 1+cfg.ShortFlows)
	}
	for i, f := range sc.Flows {
		want := 1.2
		if i == 0 {
			want = 1.6
		}
		if f.InitialRate != want || f.MaxRate != 1.6 {
			t.Errorf("flow %d: initial %v, max %v; want %v, 1.6", i, f.InitialRate, f.MaxRate, want)
		}
	}
}
