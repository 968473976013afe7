package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig10Point is one (protocol, netSize) cell of Fig 10: static random
// topologies with 5 simultaneous flows.
type Fig10Point struct {
	Proto        Protocol
	Nodes        int
	EnergyPerBit stats.Running
	GoodputBps   stats.Running
}

// Fig10Config parameterizes the static random-topology comparison
// (§6.1.2): nodes uniformly placed in a field sized for connectivity,
// 5 flows with random endpoints, 10 runs of 4000 s. All protocols see
// the same placements and flow endpoints in the same run (same seed).
type Fig10Config struct {
	Sizes     []int
	Flows     int
	Runs      int
	Seconds   float64
	Warmup    float64
	Protocols []Protocol
	Seed      int64
	// Par is the campaign worker-pool size (0 = GOMAXPROCS).
	Par int
}

// Fig10Defaults returns the paper's parameters at the given scale.
func Fig10Defaults(scale float64) Fig10Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(10 * scale)
	if runs < 2 {
		runs = 2
	}
	secs := 4000 * scale
	if secs < 500 {
		secs = 500
	}
	return Fig10Config{
		Sizes:     []int{10, 15, 20, 25},
		Flows:     5,
		Runs:      runs,
		Seconds:   secs,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      101,
	}
}

// Fig10 reproduces Figs 10(a) and (b): energy per delivered bit and mean
// goodput over static random topologies, swept on the campaign engine.
// The seed depends on (run, size) but not protocol: same node placement
// and flow endpoints, "all the protocols run under the same conditions
// in the same run" (§6.1.2).
func Fig10(cfg Fig10Config) []*Fig10Point {
	m := campaign.Matrix{
		Name: "fig10",
		Axes: []campaign.Axis{
			{Name: "proto", Values: protocolValues(cfg.Protocols)},
			{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
		},
		Runs: cfg.Runs,
		SeedFn: func(cell campaign.Cell, _, run int) int64 {
			return cfg.Seed + int64(run)*8123 + int64(cell.Int("netSize"))
		},
	}
	rep := mustExecute(m, cfg.Par, func(spec campaign.RunSpec) campaign.Sample {
		rec := runFig10Once(Protocol(spec.Cell.String("proto")), spec.Cell.Int("netSize"), spec.Seed, cfg)
		return telemetrySample(campaign.Sample{
			obsEnergyPerBit: rec.EnergyPerBit(),
			obsGoodputBps:   rec.MeanGoodputBps(),
		}, rec)
	})
	out := make([]*Fig10Point, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = &Fig10Point{
			Proto:        Protocol(c.Cell.String("proto")),
			Nodes:        c.Cell.Int("netSize"),
			EnergyPerBit: c.Running(obsEnergyPerBit),
			GoodputBps:   c.Running(obsGoodputBps),
		}
	}
	return out
}

func runFig10Once(proto Protocol, n int, seed int64, cfg Fig10Config) *metrics.RunRecord {
	flows := make([]FlowSpec, cfg.Flows)
	for i := range flows {
		flows[i] = FlowSpec{
			Src: -1, Dst: -1, // random endpoints drawn from the run's RNG
			StartAt: cfg.Warmup + float64(i)*10,
		}
	}
	return must(Run(Scenario{
		Name:    "fig10",
		Proto:   proto,
		Topo:    Random,
		Nodes:   n,
		Seconds: cfg.Seconds,
		Seed:    seed,
		Flows:   flows,
	}))
}

// Fig10Tables renders both panels.
func Fig10Tables(points []*Fig10Point) (energyTbl, goodputTbl *metrics.Table) {
	energyTbl = metrics.NewTable(
		"Fig 10(a): energy per delivered bit, static random topologies (uJ/bit, 95% CI)",
		"netSize", "proto", "uJ/bit", "±CI")
	goodputTbl = metrics.NewTable(
		"Fig 10(b): average flow goodput, static random topologies (kbps, 95% CI)",
		"netSize", "proto", "kbps", "±CI")
	for _, p := range points {
		energyTbl.AddRow(p.Nodes, string(p.Proto),
			p.EnergyPerBit.Mean()*1e6, p.EnergyPerBit.CI95()*1e6)
		goodputTbl.AddRow(p.Nodes, string(p.Proto),
			p.GoodputBps.Mean()/1e3, p.GoodputBps.CI95()/1e3)
	}
	return energyTbl, goodputTbl
}
