package experiments

import (
	"github.com/javelen/jtp/internal/campaign"
	"github.com/javelen/jtp/internal/metrics"
)

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
// goodput over static random topologies. The seed depends on (run, size)
// but not protocol: same node placement and flow endpoints, "all the
// protocols run under the same conditions in the same run" (§6.1.2).
func Fig10(cfg Fig10Config) Figure {
	return Figure{
		Matrix: campaign.Matrix{
			Name:   "fig10",
			Config: cfg,
			Axes: []campaign.Axis{
				{Name: "proto", Values: protocolValues(cfg.Protocols)},
				{Name: "netSize", Values: campaign.Ints(cfg.Sizes...)},
			},
			Runs: cfg.Runs,
			SeedFn: func(cell campaign.Cell, _, run int) int64 {
				return cfg.Seed + int64(run)*8123 + int64(cell.Int("netSize"))
			},
		},
		Scenario: func(cell campaign.Cell, seed int64) Scenario {
			flows := make([]FlowSpec, cfg.Flows)
			for i := range flows {
				flows[i] = FlowSpec{
					Src: -1, Dst: -1, // random endpoints drawn from the run's RNG
					StartAt: cfg.Warmup + float64(i)*10,
				}
			}
			return Scenario{
				Name:    "fig10",
				Proto:   Protocol(cell.String("proto")),
				Topo:    Random,
				Nodes:   cell.Int("netSize"),
				Seconds: cfg.Seconds,
				Seed:    seed,
				Flows:   flows,
			}
		},
		Sample: energyGoodputSample,
		Tables: func(rep *campaign.Report) []*metrics.Table {
			return energyGoodputTables(rep, "netSize", "netSize",
				"Fig 10(a): energy per delivered bit, static random topologies (uJ/bit, 95% CI)",
				"Fig 10(b): average flow goodput, static random topologies (kbps, 95% CI)")
		},
	}
}
