package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig9Point is one (protocol, netSize) cell of Fig 9: energy per
// delivered bit and mean goodput with 95% confidence intervals over
// independent runs.
type Fig9Point struct {
	Proto        Protocol
	Nodes        int
	EnergyPerBit stats.Running // joules/bit across runs
	GoodputBps   stats.Running // bits/s across runs
}

// Fig9Config parameterizes the linear-topology comparison (§6.1.1):
// two competing flows with endpoints at the two ends of the chain,
// Gilbert-Elliott links (10% bad time, 3 s bad periods), 20 runs of
// 2500 s with flows starting randomly after a 900 s warm-up.
type Fig9Config struct {
	// Sizes are the chain lengths (paper: 2–10).
	Sizes []int
	// Runs is the number of independent seeds per cell (paper: 20).
	Runs int
	// Seconds is the run length (paper: 2500).
	Seconds float64
	// Warmup is when flows may start (paper: 900).
	Warmup float64
	// Protocols compared (paper: jtp, atp, tcp).
	Protocols []Protocol
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Par is the worker-pool size for the campaign engine
	// (0 = GOMAXPROCS). Results are identical for every Par value.
	Par int
}

// Fig9Defaults returns the paper's parameters, scaled by the given
// factor in (0,1] for quicker runs (1 = full paper scale).
func Fig9Defaults(scale float64) Fig9Config {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	runs := int(20 * scale)
	if runs < 2 {
		runs = 2
	}
	secs := 2500 * scale
	if secs < 400 {
		secs = 400
	}
	warm := 900 * scale
	if warm < 60 {
		warm = 60
	}
	return Fig9Config{
		Sizes:     []int{2, 4, 6, 8, 10},
		Runs:      runs,
		Seconds:   secs,
		Warmup:    warm,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      42,
	}
}

// fig9Matrix declares the Fig 9 campaign: the (protocol × size × run)
// sweep with the historical seed schedule (Seed + run·1009), preserved
// so results match the original serial implementation exactly.
func fig9Matrix(cfg Fig9Config) campaign.Matrix {
	return campaign.Matrix{
		Name: "fig9",
		Axes: []campaign.Axis{
			{Name: "proto", Values: protocolValues(cfg.Protocols)},
			{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
		},
		Runs: cfg.Runs,
		SeedFn: func(_ campaign.Cell, _, run int) int64 {
			return cfg.Seed + int64(run)*1009
		},
	}
}

// Fig9 reproduces Fig 9(a) energy/bit and Fig 9(b) goodput for linear
// topologies on the campaign engine.
func Fig9(cfg Fig9Config) []*Fig9Point {
	rep := mustExecute(fig9Matrix(cfg), cfg.Par, func(spec campaign.RunSpec) campaign.Sample {
		rec := runFig9Once(Protocol(spec.Cell.String("proto")), spec.Cell.Int("netSize"), spec.Seed, cfg)
		return telemetrySample(campaign.Sample{
			obsEnergyPerBit: rec.EnergyPerBit(),
			obsGoodputBps:   rec.MeanGoodputBps(),
		}, rec)
	})
	out := make([]*Fig9Point, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = &Fig9Point{
			Proto:        Protocol(c.Cell.String("proto")),
			Nodes:        c.Cell.Int("netSize"),
			EnergyPerBit: c.Running(obsEnergyPerBit),
			GoodputBps:   c.Running(obsGoodputBps),
		}
	}
	return out
}

// runFig9Once runs one (protocol, size, seed) cell: two competing
// long-lived flows spanning the chain in both directions, started
// randomly within 100 s after warm-up.
func runFig9Once(proto Protocol, n int, seed int64, cfg Fig9Config) *metrics.RunRecord {
	jitter1 := float64(seed%97) / 97.0 * 100
	jitter2 := float64(seed%89) / 89.0 * 100
	return must(Run(Scenario{
		Name:    "fig9",
		Proto:   proto,
		Topo:    Linear,
		Nodes:   n,
		Seconds: cfg.Seconds,
		Seed:    seed,
		Flows: []FlowSpec{
			{Src: 0, Dst: n - 1, StartAt: cfg.Warmup + jitter1},
			{Src: n - 1, Dst: 0, StartAt: cfg.Warmup + jitter2},
		},
	}))
}

// Fig9Table renders the points as two paper-style tables.
func Fig9Table(points []*Fig9Point) (energyTbl, goodputTbl *metrics.Table) {
	energyTbl = metrics.NewTable(
		"Fig 9(a): energy per delivered bit, linear topologies (uJ/bit, 95% CI)",
		"netSize", "proto", "uJ/bit", "±CI")
	goodputTbl = metrics.NewTable(
		"Fig 9(b): average flow goodput, linear topologies (kbps, 95% CI)",
		"netSize", "proto", "kbps", "±CI")
	for _, p := range points {
		energyTbl.AddRow(p.Nodes, string(p.Proto),
			p.EnergyPerBit.Mean()*1e6, p.EnergyPerBit.CI95()*1e6)
		goodputTbl.AddRow(p.Nodes, string(p.Proto),
			p.GoodputBps.Mean()/1e3, p.GoodputBps.CI95()/1e3)
	}
	return energyTbl, goodputTbl
}
