package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/stats"
)

// Fig11Point is one (protocol, speed) cell of Fig 11: a 15-node mobile
// network under random waypoint motion.
type Fig11Point struct {
	Proto        Protocol
	Speed        float64
	EnergyPerBit stats.Running
	GoodputBps   stats.Running
	// SourceRtx and CacheHits feed Fig 11(c), normalized per delivered
	// kilobyte.
	SourceRtxPerKB stats.Running
	CacheHitsPerKB stats.Running
}

// Fig11Config parameterizes the mobility experiment (§6.1.2): 15 nodes,
// random waypoint with ~47 m legs and ~100 s pauses, at low (0.1 m/s),
// moderate (1 m/s), and fast (5 m/s) speeds.
type Fig11Config struct {
	Nodes     int
	Speeds    []float64
	Flows     int
	Runs      int
	Seconds   float64
	Warmup    float64
	Protocols []Protocol
	Seed      int64
	// Par is the campaign worker-pool size (0 = GOMAXPROCS).
	Par int
}

// Fig11Defaults returns the paper's parameters at the given scale.
func Fig11Defaults(scale float64) Fig11Config {
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
	return Fig11Config{
		Nodes:     15,
		Speeds:    []float64{0.1, 1, 5},
		Flows:     5,
		Runs:      runs,
		Seconds:   secs,
		Warmup:    100,
		Protocols: []Protocol{JTP, ATP, TCP},
		Seed:      111,
	}
}

// Fig11 reproduces Figs 11(a)–(c): energy per bit, goodput, and the
// relation between end-to-end and locally recovered packets under
// mobility.
func Fig11(cfg Fig11Config) []*Fig11Point {
	m := campaign.Matrix{
		Name: "fig11",
		Axes: []campaign.Axis{
			{Name: "proto", Values: protocolValues(cfg.Protocols)},
			{Name: "speed", Values: campaign.Floats(cfg.Speeds...)},
		},
		Runs: cfg.Runs,
		SeedFn: func(_ campaign.Cell, _, run int) int64 {
			return cfg.Seed + int64(run)*4457
		},
	}
	rep := mustExecute(m, cfg.Par, func(spec campaign.RunSpec) campaign.Sample {
		rec := runFig11Once(Protocol(spec.Cell.String("proto")), spec.Cell.Float("speed"), spec.Seed, cfg)
		s := campaign.Sample{
			obsEnergyPerBit: rec.EnergyPerBit(),
			obsGoodputBps:   rec.MeanGoodputBps(),
		}
		// The recovery ratios are only defined when the run delivered
		// data; absent observables are simply not folded for that run.
		if kb := float64(rec.DeliveredBytes()) / 1e3; kb > 0 {
			s[obsSourceRtxPerKB] = float64(rec.SourceRetransmissions()) / kb
			s[obsCacheHitsPerKB] = float64(rec.CacheHits) / kb
		}
		return telemetrySample(s, rec)
	})
	out := make([]*Fig11Point, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = &Fig11Point{
			Proto:          Protocol(c.Cell.String("proto")),
			Speed:          c.Cell.Float("speed"),
			EnergyPerBit:   c.Running(obsEnergyPerBit),
			GoodputBps:     c.Running(obsGoodputBps),
			SourceRtxPerKB: c.Running(obsSourceRtxPerKB),
			CacheHitsPerKB: c.Running(obsCacheHitsPerKB),
		}
	}
	return out
}

func runFig11Once(proto Protocol, speed float64, seed int64, cfg Fig11Config) *metrics.RunRecord {
	flows := make([]FlowSpec, cfg.Flows)
	for i := range flows {
		flows[i] = FlowSpec{Src: -1, Dst: -1, StartAt: cfg.Warmup + float64(i)*10}
	}
	return must(Run(Scenario{
		Name:          "fig11",
		Proto:         proto,
		Topo:          Random,
		Nodes:         cfg.Nodes,
		MobilitySpeed: speed,
		Seconds:       cfg.Seconds,
		Seed:          seed,
		Flows:         flows,
	}))
}

// Fig11Tables renders all three panels.
func Fig11Tables(points []*Fig11Point) (energyTbl, goodputTbl, recoveryTbl *metrics.Table) {
	energyTbl = metrics.NewTable(
		"Fig 11(a): energy per delivered bit under mobility (uJ/bit, 95% CI)",
		"speed(m/s)", "proto", "uJ/bit", "±CI")
	goodputTbl = metrics.NewTable(
		"Fig 11(b): average flow goodput under mobility (kbps, 95% CI)",
		"speed(m/s)", "proto", "kbps", "±CI")
	recoveryTbl = metrics.NewTable(
		"Fig 11(c): end-to-end vs locally recovered packets (per delivered kB, JTP)",
		"speed(m/s)", "sourceRtx/kB", "cacheHits/kB")
	for _, p := range points {
		energyTbl.AddRow(p.Speed, string(p.Proto),
			p.EnergyPerBit.Mean()*1e6, p.EnergyPerBit.CI95()*1e6)
		goodputTbl.AddRow(p.Speed, string(p.Proto),
			p.GoodputBps.Mean()/1e3, p.GoodputBps.CI95()/1e3)
		if p.Proto == JTP {
			recoveryTbl.AddRow(p.Speed, p.SourceRtxPerKB.Mean(), p.CacheHitsPerKB.Mean())
		}
	}
	return energyTbl, goodputTbl, recoveryTbl
}
