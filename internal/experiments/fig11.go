package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

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
func Fig11(cfg Fig11Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig11",
			Config: cfg,
			Axes: []campaign.Axis{
				{Name: "proto", Values: protocolValues(cfg.Protocols)},
				{Name: "speed", Values: campaign.Floats(cfg.Speeds...)},
			},
			Runs:   cfg.Runs,
			SeedFn: runSeeds(cfg.Seed, 4457),
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			flows := make([]FlowSpec, cfg.Flows)
			for i := range flows {
				flows[i] = FlowSpec{Src: -1, Dst: -1, StartAt: cfg.Warmup + float64(i)*10}
			}
			return Scenario{
				Name:          "fig11",
				Proto:         Protocol(cell.String("proto")),
				Topo:          Random,
				Nodes:         cfg.Nodes,
				MobilitySpeed: cell.Float("speed"),
				Seconds:       cfg.Seconds,
				Seed:          seed,
				Flows:         flows,
			}
		},
		Sample: func(rec *metrics.RunRecord) campaign.Sample {
			s := energyGoodputSample(rec)
			// The recovery ratios are only defined when the run delivered
			// data; absent observables are simply not folded for that run.
			if kb := float64(rec.DeliveredBytes()) / 1e3; kb > 0 {
				s[obsSourceRtxPerKB] = float64(rec.SourceRetransmissions()) / kb
				s[obsCacheHitsPerKB] = float64(rec.CacheHits) / kb
			}
			return s
		},
		Tables: func(rep *campaign.Report) []*metrics.Table {
			tables := energyGoodputTables(rep, "speed", "speed(m/s)",
				"Fig 11(a): energy per delivered bit under mobility (uJ/bit, 95% CI)",
				"Fig 11(b): average flow goodput under mobility (kbps, 95% CI)")
			recoveryTbl := metrics.NewTable(
				"Fig 11(c): end-to-end vs locally recovered packets (per delivered kB, JTP)",
				"speed(m/s)", "sourceRtx/kB", "cacheHits/kB")
			for _, c := range rep.Cells {
				if Protocol(c.Cell.String("proto")) == JTP {
					rtx, hits := c.Running(obsSourceRtxPerKB), c.Running(obsCacheHitsPerKB)
					recoveryTbl.AddRow(c.Cell.Float("speed"), rtx.Mean(), hits.Mean())
				}
			}
			return append(tables, recoveryTbl)
		},
	}
}
